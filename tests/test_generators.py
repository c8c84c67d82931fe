from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlatin import algebraic, generators
from qlatin.claims import _columns_form_bases
from qlatin.algebraic import ONE, sqrt_rational, squarefree_decompose
from qlatin.generators import (
    J_MATRICES,
    X_MATRICES,
    GeneratorId,
    columns_as_vectors,
    make_H,
    make_Hprime,
    make_V,
    make_W,
    make_W0,
    make_Wk,
    make_alpha_basis,
    make_block,
    mat_is_orthonormal,
    mat_mul,
    mat_transpose,
    parse_generator_id,
    product_construct,
    realize_generator,
    wk_row_matrices,
    y_matrices,
)
from qlatin.qls_core import (
    canonical_set,
    cardinality,
    distinct_elements,
    verify_qls,
    verify_row_qlr,
)
from qlatin.vectors import QVector, inner_product, ket, phase_equal, vec_add, vec_scale

F = Fraction


class TestBlocks:
    def test_a0_is_the_identity_block(self):
        (v0, v1), (w0, w1) = make_block("A", F(0))
        assert (v0, v1, w0, w1) == (ket("00"), ket("01"), ket("01"), ket("00"))

    def test_a2_cells(self):
        norm = sqrt_rational(F(1, 5))
        expect0 = vec_scale(vec_add(ket("00"), vec_scale(ket("01"), 2)), norm)
        (v0, v1), _ = make_block("A", F(2))
        assert v0 == expect0

    def test_b_lives_in_the_bottom_plane(self):
        for v in canonical_set(v for row in make_block("B", F(3)) for v in row):
            assert {i for i, _ in v.entries} <= {2, 3}

    def test_alpha_basis_values(self):
        a1, a2, a3, a4 = make_alpha_basis()
        assert a1 == ket("00")
        assert a2 == QVector([0, F(1, 3), F(2, 3), F(2, 3)])
        assert a3 == QVector([0, F(-2, 3), F(-1, 3), F(2, 3)])
        assert a4 == QVector([0, F(2, 3), F(-2, 3), F(1, 3)])

    def test_c_and_d_blocks_are_orthonormal_pairs(self):
        for fam in ("C", "D"):
            (v0, v1), (w0, w1) = make_block(fam, F(1, 2))
            assert inner_product(v0, v0) == ONE and inner_product(v1, v1) == ONE
            assert inner_product(v0, v1).is_zero
            assert (w0, w1) == (v1, v0)


class TestFixedMatrices:
    def test_all_orthonormal(self):
        for m in J_MATRICES + X_MATRICES:
            assert mat_is_orthonormal(m)

    def test_w0_rows_are_x_columns(self):
        g = make_W0()
        for i, m in enumerate(X_MATRICES):
            assert g.cells[i] == columns_as_vectors(m)

    def test_non_orthonormal_matrices_rejected(self):
        assert not mat_is_orthonormal(((1, 0), (0, 2)))  # orthogonal, not unit
        assert not mat_is_orthonormal(((F(3, 5), F(4, 5)), (F(4, 5), F(3, 5))))  # unit, not orthogonal
        assert mat_is_orthonormal(tuple(tuple(-x for x in row) for row in J_MATRICES[1]))

    def test_wk_products_stay_orthonormal(self):
        for k in range(1, 5):
            for m in wk_row_matrices(k):
                assert mat_is_orthonormal(m)
        with pytest.raises(ValueError):
            wk_row_matrices(5)


_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25))


@st.composite
def _orthonormal(draw, n):
    """A signed n x n permutation times up to four Pythagorean-triple
    rotations, each embedded in the identity on a drawn plane."""
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    m = tuple(tuple(signs[i] if perm[i] == j else 0 for j in range(n)) for i in range(n))
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        a, b, c = draw(st.sampled_from(_TRIPLES))
        rot = [[int(r == s) for s in range(n)] for r in range(n)]
        rot[i][i], rot[i][j], rot[j][i], rot[j][j] = F(a, c), F(-b, c), F(b, c), F(a, c)
        m = mat_mul(m, mat_transpose(rot))
    return m


@st.composite
def _matrix(draw, n, k):
    """An n x k matrix and whether its columns are orthonormal by
    construction: k orthonormal columns, one of them rescaled or turned
    towards another, or k scaled basis vectors (disjoint supports)."""
    kinds = ("orthonormal", "non-unit", "non-orthogonal", "disjoint")
    kind = draw(st.sampled_from(kinds if k > 1 else kinds[:2] + kinds[3:]))
    if kind == "disjoint":
        rows = draw(st.permutations(range(n)))[:k]
        scale = st.sampled_from((1, -1, 2, F(1, 2), F(-3, 5)))
        scales = draw(st.lists(scale, min_size=k, max_size=k))
        cols = [[scales[c] if r == rows[c] else 0 for r in range(n)] for c in range(k)]
        return mat_transpose(cols), all(abs(s) == 1 for s in scales)
    cols = [list(col) for col in mat_transpose(draw(_orthonormal(n)))[:k]]
    j = draw(st.integers(0, k - 1))
    if kind == "non-unit":
        s = draw(st.sampled_from((0, 2, F(1, 2), F(-3, 5))))
        cols[j] = [s * x for x in cols[j]]
    elif kind == "non-orthogonal":
        # still a unit vector, with inner product a/c with column i
        i = draw(st.integers(0, k - 1).filter(lambda i: i != j))
        a, b, c = draw(st.sampled_from(_TRIPLES))
        cols[j] = [F(a, c) * y + F(b, c) * x for x, y in zip(cols[j], cols[i])]
    return mat_transpose(cols), kind == "orthonormal"


def _gram_reference(m) -> bool:
    """M^T M = I, by the full table of column inner products."""
    cols = columns_as_vectors(m)
    return all(
        inner_product(u, v) == (1 if p == q else 0)
        for p, u in enumerate(cols)
        for q, v in enumerate(cols)
    )


class TestOrthonormalCheck:
    """The one orthonormality check, as the matrix and the column-family
    checks use it, against the full Gram table."""

    @given(st.data())
    @settings(deadline=None, max_examples=200)
    def test_matrix_check(self, data):
        n = data.draw(st.integers(1, 4))
        m, want = data.draw(_matrix(n, data.draw(st.integers(1, n))))
        assert mat_is_orthonormal(m) == _gram_reference(m) == want

    @given(st.data())
    @settings(deadline=None, max_examples=100)
    def test_column_family_check(self, data):
        # family j of the matrices mats[0..k-1] is the columns of drawn[j]
        n = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(1, n))
        drawn = [data.draw(_matrix(n, k)) for _ in range(data.draw(st.integers(1, 4)))]
        mats = [
            mat_transpose([mat_transpose(m)[p] for m, _ in drawn]) for p in range(k)
        ]
        want = all(w for _, w in drawn)
        reference = all(_gram_reference(m) for m, _ in drawn)
        assert _columns_form_bases(mats) == reference == want


class TestHFamilies:
    def test_h_table_verifies_and_counts(self):
        expected_cards = {0: 4, 1: 8, 2: 6, 3: 4, 4: 8, 5: 6, 6: 8, 7: 8, 8: 8}
        for ell, card in expected_cards.items():
            g = make_H(ell)
            assert verify_qls(g).ok
            assert cardinality(g).cardinality == card

    def test_hprime_verifies(self):
        for ell in (2, 4, 6, 8):
            assert verify_qls(make_Hprime(ell)).ok

    def test_range_errors(self):
        with pytest.raises(ValueError):
            make_H(9)
        with pytest.raises(ValueError):
            make_Hprime(3)


class TestProductRule:
    def test_v_rectangle(self):
        v = make_V(0, 1)
        assert verify_row_qlr(v).ok
        with pytest.raises(ValueError):
            make_V(2, 2)

    def test_w_matches_row_matrix_display_cell_by_cell(self):
        a, b = F(1), F(2)
        grid = make_W(a, b)
        for i, y in enumerate(y_matrices(a, b)):
            for j, expected in enumerate(columns_as_vectors(y)):
                assert phase_equal(grid.cells[i][j], expected)

    def test_w0_equals_product_form_as_a_set(self):
        w0 = make_W0()
        prod = product_construct(make_V(0, F(4, 3)), make_V(0, F(12, 5)), "cross-check")
        assert distinct_elements(w0) == distinct_elements(prod)
        assert cardinality(w0).cardinality == 16

    def test_product_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            product_construct(make_V(0, 1), make_V(2, 3).__class__([[ket("0"), ket("1")]]), "bad")

    def test_wk_grids_verify_with_cardinality_16(self):
        for k in range(1, 5):
            g = make_Wk(k)
            assert verify_qls(g).ok
            assert cardinality(g).cardinality == 16


class TestGeneratorIds:
    @pytest.mark.parametrize(
        "text",
        ["H(0)", "H(8)", "Hprime(4)", "W0", "Wk(3)", "W(5,6)", "W(1/2,-3)", "A(2)", "D(4/3)"],
    )
    def test_parse_and_realize_round_trip(self, text):
        gid = parse_generator_id(text)
        assert isinstance(gid, GeneratorId)
        g = realize_generator(gid)
        assert verify_qls(g).ok
        again = realize_generator(gid.canonical())  # only a name a plan can hold is kept
        assert (again is g) if gid.canonical() in generators._KEPT else (again == g and again is not g)

    @pytest.mark.parametrize("text,parses", [("W(5,6)", []), ("Wk(1/1)", ["Wk(1/1)"]), (" W0 ", [" W0 "])])
    def test_a_kept_block_is_parsed_only_on_a_miss(self, monkeypatch, text, parses):
        # a hit on the canonical text does no parse; another spelling parses once
        kept, parsed = realize_generator(str(parse_generator_id(text))), []
        monkeypatch.setattr(generators, "parse_generator_id", lambda t: parsed.append(t) or parse_generator_id(t))
        assert realize_generator(text) is kept and parsed == parses

    @pytest.mark.parametrize(
        "text",
        ["H(9)", "Hprime(1)", "Wk(0)", "Wk(5)", "W(2,2)", "W0(1)", "Q(1)", "H", "H(1,2)", "A(x)"],
    )
    def test_invalid_ids_rejected(self, text):
        with pytest.raises(ValueError):
            parse_generator_id(text)

    @pytest.mark.parametrize(
        "gid",
        [GeneratorId("H", (F(3, 2),)), GeneratorId("Wk", (F(5, 2),)), GeneratorId("H", ()), GeneratorId("Q", ())],
        ids=str,
    )
    def test_a_hand_built_id_is_checked_as_its_name_is(self, gid):
        # read through its text, not trusted: H(3/2) must not give H(1), nor
        # Wk(5/2) Wk(2), and a wrong arity or tag is parse's ValueError
        with pytest.raises(ValueError):
            realize_generator(gid)

    def test_a_valid_hand_built_id_returns_the_kept_block(self):
        assert realize_generator(GeneratorId("H", (F(3),))) is realize_generator("H(3)")

    @pytest.mark.parametrize("fam", ["A", "B", "C", "D"])
    @pytest.mark.parametrize("a", [F(0), F(2), F(-1, 2), F(4, 3)])
    def test_block_ids_share_the_rotation_formula(self, fam, a):
        # a cell of the 4-dimensional block, read in its plane's basis (e0, e1),
        # is the matching cell of the order-2 id
        a1, a2, a3, a4 = make_alpha_basis()
        e0, e1 = {
            "A": (ket("00"), ket("01")),
            "B": (ket("10"), ket("11")),
            "C": (a1, a2),
            "D": (a3, a4),
        }[fam]
        order2 = realize_generator(f"{fam}({a})")
        for r, row in enumerate(make_block(fam, a)):
            for c, v in enumerate(row):
                coords = QVector([inner_product(e0, v), inner_product(e1, v)])
                assert coords == order2.cells[r][c]
        assert make_V(a, a + 1).cells[0] == realize_generator(f"A({a})").cells[0]

    def test_block_ids_realize_in_subspace_coordinates(self):
        g = realize_generator("A(2)")
        assert g.order == 2
        assert verify_qls(g).ok
        # the block repeats its two cells on the anti-diagonal
        assert cardinality(g).cardinality == 2


class TestCacheBounds:
    def test_every_cache_stays_at_or_under_its_cap(self):
        decompose_cap = algebraic._decompose.cache_info().maxsize
        for n in range(2, decompose_cap + 100):
            squarefree_decompose(n)
        assert algebraic._decompose.cache_info().currsize <= decompose_cap
        block_cap = make_block.cache_info().maxsize
        for k in range(1, block_cap + 50):
            make_block("A", F(1, k))
        assert make_block.cache_info().currsize <= block_cap
        # the realize table keeps only names a plan can hold
        for gid in [f"A({k}/{k + 1})" for k in range(1, 151)] + [f"W(1/2,{k})" for k in range(1, 151)]:
            realize_generator(gid)
        assert set(generators._REALIZE_CACHE) <= generators._KEPT
