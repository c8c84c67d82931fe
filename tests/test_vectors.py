import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlatin import vectors
from qlatin.algebraic import ONE, ZERO, RadExt, sqrt_rational
from qlatin.vectors import (
    QVector,
    basis_vector,
    canonicalize,
    format_vector,
    inner_product,
    ket,
    phase_equal,
    phase_equal_by_inner,
    tensor,
    vec_add,
    vec_scale,
    vector_from_json_dict,
    vector_to_json_dict,
)

F = Fraction


class TestConstruction:
    def test_basis_and_ket(self):
        assert ket("0") == basis_vector(2, 0)
        assert ket("01") == basis_vector(4, 1)
        assert ket("10") == basis_vector(4, 2)
        assert ket("110") == basis_vector(8, 6)

    def test_ket_rejects_junk(self):
        with pytest.raises(ValueError):
            ket("")
        with pytest.raises(ValueError):
            ket("02")

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            QVector([])

    def test_immutable_and_hashable(self):
        v = QVector([1, 0])
        assert hash(v) == hash(QVector([1, 0]))
        assert v in {QVector([1, 0])}


class TestArithmetic:
    def test_tensor_of_basis(self):
        assert tensor(basis_vector(2, 1), basis_vector(2, 0)) == basis_vector(4, 2)
        assert tensor(basis_vector(3, 2), basis_vector(2, 1)) == basis_vector(6, 5)

    def test_tensor_entries(self):
        half = sqrt_rational(F(1, 2))
        u = QVector([half, half])
        w = tensor(u, basis_vector(2, 1))
        assert w.dense() == (ZERO, half, ZERO, half)
        assert w.entries == ((1, half), (3, half))

    def test_inner_product_plane_rotation(self):
        u = QVector([F(3, 5), F(4, 5)])
        v = QVector([F(-4, 5), F(3, 5)])
        assert inner_product(u, u) == ONE
        assert inner_product(u, v).is_zero
        assert inner_product(u, u) == ONE and inner_product(v, v) == ONE

    def test_inner_product_dim_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(basis_vector(2, 0), basis_vector(4, 0))

    def test_rotation_block_cells_are_orthonormal(self):
        # (|00> + 2|01>)/sqrt5 and (-2|00> + |01>)/sqrt5
        norm = sqrt_rational(F(1, 5))
        u = vec_scale(vec_add(ket("00"), vec_scale(ket("01"), 2)), norm)
        v = vec_scale(vec_add(vec_scale(ket("00"), -2), ket("01")), norm)
        assert inner_product(u, u) == ONE and inner_product(v, v) == ONE
        assert inner_product(u, v).is_zero

    def test_scale_and_neg(self):
        v = QVector([1, -2, 0])
        assert vec_scale(v, -1) == QVector([-1, 2, 0])
        assert vec_scale(v, F(1, 2)) == QVector([F(1, 2), -1, 0])


class TestPhase:
    def test_canonicalize_flips_leading_sign(self):
        v = QVector([0, F(-3, 5), F(4, 5)])
        c = canonicalize(v)
        assert c == QVector([0, F(3, 5), F(-4, 5)])
        assert canonicalize(c) == c
        assert canonicalize(vec_scale(v, -1)) == c

    def test_phase_equal(self):
        v = QVector([F(3, 5), F(4, 5)])
        assert phase_equal(v, vec_scale(v, -1))
        assert not phase_equal(v, QVector([F(4, 5), F(3, 5)]))
        with pytest.raises(ValueError):
            phase_equal(v, basis_vector(4, 0))

    @given(st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=4))
    @settings(deadline=None)
    def test_oracle_agreement_on_units(self, ints):
        norm_sq = sum(x * x for x in ints)
        if norm_sq == 0:
            return
        u = vec_scale(QVector(ints), sqrt_rational(F(1, norm_sq)))
        assert inner_product(u, u) == ONE
        assert phase_equal_by_inner(u, vec_scale(u, -1))
        e = basis_vector(u.dim, 0)
        assert phase_equal(u, e) == phase_equal_by_inner(u, e)

    def test_oracle_distinguishes_oblique_pairs(self):
        u = QVector([F(3, 5), F(4, 5)])
        w = QVector([F(4, 5), F(3, 5)])
        assert not phase_equal_by_inner(u, w)
        assert phase_equal_by_inner(u, vec_scale(u, -1))


class TestSerialization:
    def test_round_trip(self):
        v = vec_scale(vec_add(ket("00"), vec_scale(ket("11"), -1)), sqrt_rational(F(1, 2)))
        assert vector_from_json_dict(vector_to_json_dict(v)) == v

    def test_strict_schema(self):
        good = vector_to_json_dict(basis_vector(2, 0))
        assert set(good) == {"dim", "entries"}
        with pytest.raises(ValueError):
            vector_from_json_dict({"dim": 2})
        with pytest.raises(ValueError):
            vector_from_json_dict({**good, "extra": 1})
        with pytest.raises(ValueError):
            vector_from_json_dict({"dim": 0, "entries": []})
        with pytest.raises(ValueError):
            vector_from_json_dict({"dim": 3, "entries": good["entries"]})


class TestFormatting:
    def test_rational_coefficients(self):
        assert format_vector(QVector([F(3, 5), F(4, 5)])) == "3/5|0> + 4/5|1>"
        assert format_vector(QVector([1, 0, -1, 0])) == "|0> - |2>"
        assert format_vector(QVector([0, 0])) == "0"

    def test_radical_coefficients(self):
        half = sqrt_rational(F(1, 2))
        got = format_vector(QVector([half, ZERO - half]))
        assert got == "1/2*sqrt(2)|0> - 1/2*sqrt(2)|1>"


def _scaled(ints):
    return vec_scale(QVector(ints), sqrt_rational(F(1, 5)))


class TestSparseLayout:
    small = st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=5)

    @staticmethod
    def _assert_canonical(v):
        indices = [i for i, _ in v.entries]
        assert indices == sorted(set(indices))
        assert all(0 <= i < v.dim for i in indices)
        assert all(not e.is_zero for _, e in v.entries)

    @given(small, small)
    @settings(deadline=None)
    def test_entries_ascending_and_nonzero(self, a, b):
        u, w = _scaled(a), _scaled(b)
        for v in (
            u, tensor(u, w), vec_scale(u, -1), vec_scale(u, 0), canonicalize(u),
            vector_from_json_dict(vector_to_json_dict(u)),
        ):
            self._assert_canonical(v)
        if len(a) == len(b):
            self._assert_canonical(vec_add(u, w))
            self._assert_canonical(vec_add(u, vec_scale(u, -1)))

    @given(small, small)
    @settings(deadline=None)
    def test_every_construction_agrees(self, a, b):
        u, w = _scaled(a), _scaled(b)
        t = tensor(u, w)
        dense = QVector([x * y for x in u.dense() for y in w.dense()])
        raw = QVector._raw(t.dim, tuple(i for i, _ in t.entries), tuple(e for _, e in t.entries))
        parsed = vector_from_json_dict(vector_to_json_dict(dense))
        for v in (dense, raw, parsed):
            assert v == t and hash(v) == hash(t)
        assert len({t, dense, raw, parsed}) == 1
        assert t.dense() == dense.dense()

    def test_dimension_is_part_of_identity(self):
        assert QVector([1, 0]) != QVector([1, 0, 0])
        assert QVector([0]) != QVector([0, 0])

    def test_zero_vector_round_trips(self):
        z = QVector([0, 0, 0])
        assert z.entries == () and z.dim == 3
        assert z.dense() == (ZERO, ZERO, ZERO)
        assert vector_to_json_dict(z) == {"dim": 3, "entries": [[], [], []]}
        assert vector_from_json_dict(vector_to_json_dict(z)) == z
        assert canonicalize(z) == z and vec_scale(z, -1) == z
        assert inner_product(z, basis_vector(3, 1)).is_zero
        assert tensor(z, ket("1")) == QVector([0] * 6)


# a small pool of coefficients, so random vectors repeat memo keys; the last
# four are equal in value to earlier ones but are distinct objects
_POOL = [sqrt_rational(F(k, 7)) * s for k in (1, 2, 3, 4) for s in (1, -1)]
_POOL += [RadExt.from_rational(F(3, 5)), ONE]
_POOL += [RadExt.from_triples(e.to_triples()) for e in _POOL[:3] + [ONE]]


def _sparse(dim, picks):
    coords = [ZERO] * dim
    for i, k in picks:
        coords[i % dim] = _POOL[k % len(_POOL)]
    return QVector(coords)


class TestProductMemo:
    picks = st.lists(st.tuples(st.integers(0, 15), st.integers(0, 40)), max_size=6)

    @given(st.integers(1, 16), picks, picks)
    @settings(deadline=None, max_examples=300)
    def test_matches_a_fresh_sum(self, dim, a, b):
        from fraction_reference import _mul_into, terms

        u, v = _sparse(dim, a), _sparse(dim, b)
        acc = {}
        right = dict(v.entries)
        for i, e in u.entries:
            if i in right:
                _mul_into(acc, terms(e), terms(right[i]))
        assert terms(inner_product(u, v)) == acc
        assert inner_product(u, v) == inner_product(v, u)

    @pytest.mark.parametrize(
        "u,v",
        [
            (vec_scale(ket("01"), 0), ket("01")),
            (ket("01"), ket("10")),
            (QVector([1, 0, 1, 0]), QVector([0, 1, 0, 1])),
        ],
        ids=["empty-support", "disjoint-ranges", "interleaved-supports"],
    )
    def test_no_shared_index_is_zero_and_no_memo_entry(self, u, v):
        # the merge finds no shared index and returns before the memo
        before = len(vectors._PRODUCT_MEMO)
        assert inner_product(u, v) is ZERO and inner_product(v, u) is ZERO
        assert len(vectors._PRODUCT_MEMO) == before

    def test_never_exceeds_its_cap(self):
        cap = vectors.PRODUCT_MEMO_MAX
        for k in range(1, cap + 200):
            got = inner_product(QVector([F(1, k), 0]), QVector([k, 1]))
            assert got == ONE
            assert 0 < len(vectors._PRODUCT_MEMO) <= cap


# wide coefficients: numerators and denominators up to 10**6, a different
# denominator on every term
_wide_terms = st.dictionaries(
    st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11, 13, 15, 30, 97]),
    st.builds(F, st.integers(-(10**6), 10**6).filter(bool), st.integers(1, 10**6)),
    max_size=3,
)


@st.composite
def _line_pair(draw):
    """Two lines of one dimension, as lists of term maps: dense (every
    coordinate nonzero) or sparse (mostly zero)."""
    dim = draw(st.integers(1, 12))
    if draw(st.booleans()):
        coord = _wide_terms.filter(bool)
    else:
        coord = st.one_of(st.just({}), st.just({}), _wide_terms)
    line = st.lists(coord, min_size=dim, max_size=dim)
    return draw(line), draw(line)


class TestInnerProductReference:
    @given(_line_pair())
    @settings(deadline=None)
    def test_matches_the_reference_sum(self, pair):
        from fraction_reference import _mul_into, terms

        tu, tv = pair
        acc = {}
        for a, b in zip(tu, tv):
            _mul_into(acc, a, b)
        got = inner_product(QVector(map(RadExt, tu)), QVector(map(RadExt, tv)))
        assert terms(got) == acc
        assert got.den >= 1 and math.gcd(got.den, *got.num.values()) == 1


# coefficients of both signs, rational and over one or several radicands
_MIXED = [
    ONE,
    -ONE,
    RadExt.from_rational(F(-3, 5)),
    sqrt_rational(F(2, 3)) + F(1, 5),
    -sqrt_rational(F(1, 6)),
    sqrt_rational(2) - sqrt_rational(F(3, 7)),
    RadExt({2: F(1, 3), 3: F(-1, 2), 5: F(2, 7)}),
]


def _subset_of(pool):
    return st.sets(st.sampled_from(sorted(pool))) if pool else st.just(set())


@st.composite
def _support_pair(draw):
    """Two coordinate maps of one dimension whose supports are equal, one
    nested in the other, disjoint, or unrelated; "same" shares one map."""
    dim = draw(st.integers(1, 10))
    a = draw(_subset_of(range(dim)))
    how = draw(st.sampled_from(["same", "equal", "nested", "disjoint", "any"]))
    b = {
        "same": a,
        "equal": a,
        "nested": draw(_subset_of(a)),
        "disjoint": draw(_subset_of(set(range(dim)) - a)),
        "any": draw(_subset_of(range(dim))),
    }[how]
    coef = st.sampled_from(_MIXED)
    u = {i: draw(coef) for i in sorted(a)}
    v = u if how == "same" else {i: draw(coef) for i in sorted(b)}
    if draw(st.booleans()):
        u, v = v, u  # the larger support on either side
    return dim, u, v


class TestInnerProductDense:
    @given(_support_pair())
    @settings(deadline=None, max_examples=300)
    def test_matches_a_dense_dot_product(self, case):
        dim, cu, cv = case
        u, v = (QVector([c.get(i, 0) for i in range(dim)]) for c in (cu, cv))
        want = sum((x * y for x, y in zip(u.dense(), v.dense())), ZERO)
        # one object per value, so the memoized sum is the reference itself
        assert inner_product(u, v) is want
        assert inner_product(v, u) is want

    def test_shifted_cells_share_coefficients_and_products(self):
        u = QVector([0, F(3, 5), F(-4, 5), 0])
        v = QVector([0, F(4, 5), F(3, 5), 0])
        su, sv = tensor(ket("10"), u), tensor(ket("10"), v)
        assert su.coefs is u.coefs and sv.coefs is v.coefs
        assert su.support == (9, 10) and su.entries == ((9, u.coefs[0]), (10, u.coefs[1]))
        assert inner_product(su, sv) is inner_product(u, v) is ZERO
        assert inner_product(su, su) is ONE
