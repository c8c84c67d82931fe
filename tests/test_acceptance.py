"""Acceptance gate: ten criteria, every check exact (zero numerical
tolerance). Each test prints one PASS line with the measured facts; with
`pytest -v` the test names themselves give the per-criterion verdict.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlatin.generators import (
    make_V,
    make_Wk,
    mat_is_orthonormal,
    realize_generator,
    y_matrices,
)
from qlatin.algebraic import ZERO, RadExt, sqrt_rational
from qlatin.qls_core import (
    QLSGrid,
    RowQLR,
    VerificationReport,
    canonical_set,
    cardinality,
    cardinality_oracle,
    distinct_elements,
    verify_qls,
    verify_row_qlr,
)
from qlatin.synthesis import (
    S1_HIGH,
    S1_LOW,
    ImpossibleCardinalityError,
    execute_plans,
    plan_for,
    reachable_sums,
    set_bits,
    synth,
    valid_cardinalities,
)
from qlatin.vectors import QVector, basis_vector, phase_equal_by_inner, tensor, vec_scale

SWEEP_M = (2, 3, 4, 5, 6, 7, 8)
# criterion 8 recounts every swept grid up to this order with the oracle;
# it may rise over time, never fall
ORACLE_MAX_ORDER = 28

# every named block the library can emit, for the oracle and n+1 checks
GENERATOR_IDS = (
    [f"H({l})" for l in range(9)]
    + [f"Hprime({l})" for l in (2, 4, 6, 8)]
    + ["W0", "Wk(1)", "Wk(2)", "Wk(3)", "Wk(4)", "W(5,6)", "W(7,8)"]
    + ["A(0)", "A(2)", "B(3)", "C(1)", "D(4)"]
)


@pytest.fixture(scope="session")
def sweep_records():
    """(m, c, order, verified, counted, oracle-or-None) for every valid target."""
    records = []
    for m in SWEEP_M:
        rng = valid_cardinalities(m)
        targets = [c for c in range(rng.lo, rng.hi + 1) if c != rng.excluded]
        # one batch per order: execute_plans re-verifies and re-counts each grid
        for c, grid in zip(targets, execute_plans(plan_for(m, c) for c in targets)):
            counted = cardinality(grid).cardinality
            oracle = cardinality_oracle(grid) if grid.order <= ORACLE_MAX_ORDER else None
            records.append((m, c, grid.order, verify_qls(grid).ok, counted, oracle))
    return records


def _require(claims_by_id, *ids):
    failed = [i for i in ids if claims_by_id[i].status != "pass"]
    assert not failed, "failing claims: " + ", ".join(
        f"{i}: {claims_by_id[i].detail}" for i in failed
    )


def test_criterion_01_full_sweep_exact_cardinalities(sweep_records):
    per_m = Counter(r[0] for r in sweep_records)
    assert per_m == {2: 56, 3: 132, 4: 240, 5: 380, 6: 552, 7: 756, 8: 992}
    bad = [(m, c) for m, c, _, ok, counted, _ in sweep_records if not ok or counted != c]
    assert not bad, f"failed targets: {bad[:5]}"
    print(
        f"PASS criterion 1: all {len(sweep_records)} targets in [4m,16m^2] minus "
        f"4m+1 for m in {list(SWEEP_M)} verified with exactly the requested cardinality"
    )


def test_criterion_02_h_family_new_element_table(claims_by_id):
    _require(claims_by_id, "blocks/h-family-new-counts", "blocks/h5-split-1-2-2")
    print(
        "PASS criterion 2: H(2)..H(8) add exactly 2..8 elements beyond "
        "H(0) and H(1); H(5) splits as 1, 2, 2 across its blocks"
    )


def test_criterion_03_w_family_pairwise_distinct(claims_by_id):
    _require(claims_by_id, "w-family/pairwise-distinct-32")
    print("PASS criterion 3: W(2k-1,2k) pairs for k < t <= 10 give 32 distinct elements")


def test_criterion_04_exact_pairwise_intersections(claims_by_id):
    _require(
        claims_by_id,
        "wk/w0-meet-w1",
        "wk/w0-meet-w2",
        "wk/w0-meet-w3",
        "wk/w2-meet-w4",
    )
    sizes = (
        len(distinct_elements(realize_generator("W0")) & distinct_elements(make_Wk(1))),
        len(distinct_elements(realize_generator("W0")) & distinct_elements(make_Wk(2))),
        len(distinct_elements(realize_generator("W0")) & distinct_elements(make_Wk(3))),
        len(distinct_elements(make_Wk(2)) & distinct_elements(make_Wk(4))),
    )
    assert sizes == (1, 4, 2, 6)
    print(
        "PASS criterion 4: intersections W0/W1, W0/W2, W0/W3, W2/W4 have exactly "
        "1, 4, 2, 6 elements and match the frozen element sets"
    )


def test_criterion_05_order8_table_and_range(sweep_records, claims_by_id):
    _require(claims_by_id, "qls8/layout-table", "qls8/c57-square")
    covered = {c for m, c, *_ in sweep_records if m == 2}
    assert covered == set(range(8, 65)) - {9}
    print(
        "PASS criterion 5: nine layouts count to base plus offset for all offsets, "
        "the fixed square counts to 57, and every c in [8,64] minus 9 is produced"
    )


def test_criterion_06_order12_special_square(claims_by_id):
    _require(claims_by_id, "qls12/c105-square")
    print("PASS criterion 6: the fixed 3x3 block square of order 12 counts to exactly 105")


def test_criterion_07_matrix_regressions(claims_by_id):
    _require(claims_by_id, "wk/displayed-product-matrices", "matrices/fixed-orthonormal")
    for a, b in ((1, 2), (5, 6), (7, 8)):
        for y in y_matrices(a, b):
            assert mat_is_orthonormal(y), f"Y at (a,b)=({a},{b})"
    print(
        "PASS criterion 7: 16 displayed product matrices match entry for entry; "
        "J1..J4, X1..X4, and Y at (1,2), (5,6), (7,8) satisfy M^T M = I exactly"
    )


def test_criterion_08_oracle_equivalence(sweep_records):
    checked = 0
    for m, c, order, _, counted, oracle in sweep_records:
        if order <= ORACLE_MAX_ORDER:
            assert oracle == counted == c, (m, c, counted, oracle)
            checked += 1
    for gid in GENERATOR_IDS:
        g = realize_generator(gid)
        assert cardinality_oracle(g) == cardinality(g).cardinality, gid
        checked += 1
    print(
        f"PASS criterion 8: canonical-form and pairwise inner-product counts agree "
        f"on all {checked} grids of order <= {ORACLE_MAX_ORDER}"
    )


def _pairwise_oracle(g):
    """Reference count: <u,v>^2 = 1 over all pairs of cells, then union-find."""
    flat = [v for row in g.cells for v in row]
    parent = list(range(len(flat)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(len(flat)):
        for j in range(i + 1, len(flat)):
            if phase_equal_by_inner(flat[i], flat[j]):
                parent[find(j)] = find(i)
    return sum(1 for i in range(len(flat)) if find(i) == i)


def test_bucketed_oracle_matches_pairwise_reference():
    # (h, h) and (h, -h) share their support and squared coefficients, so
    # they share a bucket, but they are orthogonal: two classes
    h = sqrt_rational(Fraction(1, 2))
    u, w = QVector([h, h]), QVector([h, -h])
    shared_bucket = [
        QLSGrid([[u, w], [w, u]]),
        QLSGrid([[u, w], [vec_scale(w, -1), vec_scale(u, -1)]]),
    ]
    synthesized = [synth(m, c)[1] for m, c in ((2, 8), (2, 29), (2, 57), (2, 64), (3, 12), (3, 70), (3, 105))]
    blocks = [realize_generator(gid) for gid in GENERATOR_IDS]
    for g in shared_bucket + synthesized + blocks:
        assert verify_qls(g).ok, g
        assert cardinality_oracle(g) == _pairwise_oracle(g) == cardinality(g).cardinality, g
    assert cardinality_oracle(shared_bucket[0]) == 2


def _shifted_copies(names):
    """The order-4m grid with block names[j] shifted onto diagonal j, laid
    out as synthesis lays out a plan: row block i, column block (i + j) mod m
    holds |j> (x) the block. A shift keeps its block cell's coefficient
    tuple, so one tuple object sits on up to m supports."""
    m = len(names)
    cells = [[None] * (4 * m) for _ in range(4 * m)]
    for j, name in enumerate(names):
        rows = [[tensor(basis_vector(m, j), v) for v in row] for row in realize_generator(name).cells]
        for i in range(m):
            b = (i + j) % m
            for k, row in enumerate(rows):
                cells[4 * i + k][4 * b:4 * b + 4] = row
    return QLSGrid(cells)


@pytest.mark.parametrize("names", [("H(1)", "H(1)"), ("W(5,6)", "H(2)", "W(5,6)"), ("W0", "Wk(1)", "W0")])
def test_bucketed_oracle_matches_pairwise_reference_on_shifted_copies(names):
    # the oracle squares each distinct tuple once; a tuple shared across
    # supports, and its negation in the flipped rows, still lands each cell
    # in the bucket of its own support
    g = _shifted_copies(names)
    supports = {}
    for row in g.cells:
        for v in row:
            supports.setdefault(id(v.coefs), set()).add(v.support)
    assert max(map(len, supports.values())) > 1
    flipped = QLSGrid([[vec_scale(v, -1) if r % 3 == 0 else v for v in row] for r, row in enumerate(g.cells)])
    for grid in (g, flipped):
        assert verify_qls(grid).ok
        assert cardinality_oracle(grid) == _pairwise_oracle(grid) == cardinality(grid).cardinality


def test_bucketed_oracle_squares_each_tuple_on_its_own():
    # x and y share their leading coefficient but not their squares; y and
    # -y are one class, so they must land in one bucket whichever tuple was
    # squared before them
    h = sqrt_rational(Fraction(1, 2))
    x, y = QVector([h, h, 0, 0]), QVector([h, Fraction(1, 2), Fraction(1, 2), 0])
    basis = [basis_vector(4, k) for k in range(4)]
    cells = [x, y, vec_scale(y, -1), x] + basis * 3
    g = QLSGrid([cells[r * 4:r * 4 + 4] for r in range(4)])
    assert cardinality_oracle(g) == _pairwise_oracle(g) == len(canonical_set(cells)) == 6


def _unit_pool():
    """Unit vectors of dimension 4, several pairs of them sharing a support
    and squared coefficients without sharing a phase class."""
    h, t, s = sqrt_rational(Fraction(1, 2)), sqrt_rational(Fraction(1, 3)), sqrt_rational(Fraction(2, 3))
    a, b = Fraction(3, 5), Fraction(4, 5)
    return [basis_vector(4, k) for k in range(4)] + [
        QVector(coords)
        for coords in (
            (h, h, 0, 0), (h, -h, 0, 0), (0, h, 0, h), (0, -h, 0, h),
            (a, 0, b, 0), (a, 0, -b, 0), (0, b, a, 0), (t, 0, 0, s), (-t, 0, 0, s),
        )
    ]


_UNITS = _unit_pool()


def _copy(v):
    """v with every coefficient an equal but distinct object."""
    return QVector._raw(v.dim, v.support, tuple(RadExt.from_triples(e.to_triples()) for e in v.coefs))


@given(st.lists(st.tuples(st.integers(0, len(_UNITS) - 1), st.integers(0, 2)), min_size=16, max_size=16))
@settings(deadline=None)
def test_bucketed_oracle_matches_pairwise_reference_on_random_grids(picks):
    # each cell is a shared pool vector, its negation, or an equal copy, so
    # classes repeat across cells under all three disguises
    cells = [(_UNITS[k], vec_scale(_UNITS[k], -1), _copy(_UNITS[k]))[how] for k, how in picks]
    g = QLSGrid([cells[r * 4:r * 4 + 4] for r in range(4)])
    assert cardinality_oracle(g) == _pairwise_oracle(g) == len(canonical_set(cells))


@given(st.lists(st.tuples(st.integers(0, len(_UNITS) - 1), st.booleans()), min_size=16, max_size=16))
@settings(deadline=None)
def test_verification_matches_full_pair_reference_on_random_grids(picks):
    # random cells mostly fail, with several failing pairs per line
    cells = [vec_scale(_UNITS[k], -1) if neg else _UNITS[k] for k, neg in picks]
    g = QLSGrid([cells[r * 4:r * 4 + 4] for r in range(4)])
    assert verify_qls(g) == _reference_verify_qls(g)
    rect = RowQLR(g.cells)
    assert verify_row_qlr(rect) == _reference_verify_row_qlr(rect)


def _dense_inner(u, v):
    """Reference inner product over every coordinate, zeros included."""
    return sum((a * b for a, b in zip(u.dense(), v.dense())), ZERO)


def _full_pair_scan(rows, kinds):
    """Reference verifier: every unit equation, then every pair of cells in
    every line, with no use of supports or the inner-product memo."""
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if _dense_inner(v, v) != 1:
                return VerificationReport(False, f"cell ({r},{c}) is not a unit vector", ("unit", r, c))
    lines = {"row": rows, "col": list(zip(*rows))}
    for kind in kinds:
        for index, cells in enumerate(lines[kind]):
            for p in range(len(cells)):
                for q in range(p + 1, len(cells)):
                    if not _dense_inner(cells[p], cells[q]).is_zero:
                        return VerificationReport(
                            False,
                            f"{kind} {index}: cells {p} and {q} are not orthogonal",
                            (kind, index, p, q),
                        )
    return None


def _reference_verify_qls(g):
    return _full_pair_scan(g.cells, ("row", "col")) or VerificationReport(ok=True)


def _reference_verify_row_qlr(r):
    return _full_pair_scan(r.cells, ("row",)) or VerificationReport(ok=True)


def _replace(g, changes):
    cells = [list(row) for row in g.cells]
    for (r, c), v in changes.items():
        cells[r][c] = v
    return QLSGrid(cells)


def _flip_last_coordinate(v):
    coords = list(v.dense())
    i = v.entries[-1][0]
    coords[i] = -coords[i]
    return QVector(coords)


def _corruptions(g):
    """Grids that fail on a row (one coordinate's sign flipped), on a column
    (two cells of a row swapped) and on a unit (a cell scaled by 2)."""
    n = g.order
    spots = [(0, 0), (0, n - 1), (1, 2), (n // 2, n // 3), (n - 1, 0), (n - 1, n - 1)]
    flips = {rc: _flip_last_coordinate(g.cells[rc[0]][rc[1]]) for rc in spots}
    out = [_replace(g, {rc: v}) for rc, v in flips.items()]
    out.append(_replace(g, flips))
    for r, c1, c2 in ((0, 0, 1), (n - 1, 1, n - 1), (n // 2, 0, n // 2)):
        out.append(_replace(g, {(r, c1): g.cells[r][c2], (r, c2): g.cells[r][c1]}))
    out.append(_replace(g, {(n - 1, n // 2): vec_scale(g.cells[n - 1][n // 2], 2)}))
    out.append(_replace(g, {(0, 1): flips[(0, n - 1)], (n - 1, 0): vec_scale(g.cells[n - 1][0], 2)}))
    crossed = _crossed_pairs(g)
    if crossed is not None:
        out.append(crossed)
    return out


def _crossed_pairs(g):
    """A grid whose first row with a multi-coordinate cell at position 0
    fails on two pairs: |b> at position 1 and |a> at position n - 1, for a < b
    the ends of that cell's support. (0, 1) is the first failing pair in
    (p, q) order; (0, n - 1), through the lower coordinate, comes first when
    pairs are taken coordinate by coordinate. None if no row qualifies."""
    n = g.order
    for r, row in enumerate(g.cells):
        if len(row[0].entries) > 1:
            a, b = row[0].entries[0][0], row[0].entries[-1][0]
            return _replace(g, {(r, 1): basis_vector(n, b), (r, n - 1): basis_vector(n, a)})
    return None


def test_verification_matches_full_pair_reference():
    synthesized = [synth(m, c)[1] for m, c in ((2, 8), (2, 57), (3, 105), (3, 144), (4, 20), (4, 200))]
    blocks = [realize_generator(gid) for gid in GENERATOR_IDS]
    # a cyclic order-4 lift with cell (0,0) = (|0> + |2>)/sqrt(2): the pair
    # that fails shares only the cell's second coordinate
    h = sqrt_rational(Fraction(1, 2))
    lift = QLSGrid([[QVector([int((i + j) % 4 == k) for k in range(4)]) for j in range(4)] for i in range(4)])
    oblique = _replace(lift, {(0, 0): QVector([h, 0, h, 0])})
    grids = blocks + synthesized + [oblique] + [bad for g in synthesized for bad in _corruptions(g)]
    kinds = set()
    for g in grids:
        want = _reference_verify_qls(g)
        assert verify_qls(QLSGrid(g.cells)) == want, (g, want)
        kinds.add(want.location[0] if want.location else "ok")
        rect = RowQLR(g.cells)
        assert verify_row_qlr(rect) == _reference_verify_row_qlr(rect), g
    assert sum(_crossed_pairs(g) is not None for g in synthesized) == 5
    # W0 (among the blocks) has cells with full support
    assert sum(len(v.entries) == 4 for row in realize_generator("W0").cells for v in row) == 4
    assert kinds == {"ok", "unit", "row", "col"}
    for a, b in ((0, 1), (2, 3), (1, 1)):
        rect = make_V(a, b) if a != b else RowQLR([make_V(0, 1).cells[0]] * 2)
        assert verify_row_qlr(rect) == _reference_verify_row_qlr(rect)


def test_criterion_09_reachable_sum_sets():
    for m in range(3, 9):
        low = set_bits(reachable_sums(S1_LOW, m))
        window = frozenset(range(0, 16 * m - 7))
        assert low & window == window - {1, 16 * m - 15}, f"m={m} low window"
        assert low - window == {16 * m}, f"m={m} low above window"
        high = set_bits(reachable_sums(S1_HIGH, m))
        assert high == frozenset(range(0, 16 * m + 1)) - {1, 3, 5, 7, 9, 11, 13}, f"m={m} high"
    print(
        "PASS criterion 9: for m in [3,8], low-regime sums within [0,16m-8] are "
        "exactly the window minus {1,16m-15} (plus the lone value 16m above it) "
        "and high-regime sums equal [0,16m] minus {1,3,5,7,9,11,13}, both computed"
    )


def test_criterion_10_order_plus_one_rejected(sweep_records):
    for m in range(2, 9):
        with pytest.raises(ImpossibleCardinalityError) as excinfo:
            plan_for(m, 4 * m + 1)
        assert "impossible" in str(excinfo.value)
    offenders = [
        (m, c) for m, c, order, _, counted, _ in sweep_records if counted == order + 1
    ]
    assert not offenders
    for gid in GENERATOR_IDS:
        g = realize_generator(gid)
        assert cardinality(g).cardinality != g.order + 1, gid
    print(
        "PASS criterion 10: synth(m, 4m+1) fails with the impossibility diagnostic "
        "for m in [2,8]; no grid produced anywhere counts to order plus one"
    )
