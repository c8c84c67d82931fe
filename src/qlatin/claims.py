"""Self-contained regression suite: every numerically checkable statement
about the block families, their intersections, the displayed matrices, and
the synthesis ranges, re-derived from scratch and reported pass/fail.

Claims come in two kinds. "exact" claims are finite computations carried
out in full; some of them prove a statement for every real parameter, as
below. "witness" claims, the three `separations/*` claims, describe zero
sets over all real parameters; they are checked on a rational witness grid
(default bound 4) and labeled as such, since a finite computation cannot
exhaust the reals.

The four identity claims (`blocks/rotation-orthonormality`,
`matrices/y-orthonormal`, `matrices/y-column-bases` and
`product/w-matches-row-matrix-display`) are proved on one fixed grid. Write
a = tan(theta) with theta in (-pi/2, pi/2) and t = tan(theta/2) in (-1, 1),
so a = 2t/(1-t^2) and each real a has exactly one such t; likewise u for b.
The generators' coefficients are then cos(theta) = sqrt(1/(1+a^2)) =
(1-t^2)/(1+t^2) and sin(theta) = a cos(theta) = 2t/(1+t^2), some divided
by sqrt(2). Every entry of a rotation block, of W(a, b) and of the Y
matrices is linear in (cos, sin) of one parameter, so each checked quantity
is a polynomial of degree <= 2 in (cos, sin) of a and of b, that is
N(t, u)/((1+t^2)(1+u^2))^2 with N of degree <= 4 in t and in u. That holds
for the inner products of the orthonormality checks, and for the 2x2
minors x_i y_j - x_j y_i of a W cell x and a Y column y: these all vanish
exactly when x is parallel to y, so, both being unit vectors by the other
identities, exactly when x and y are phase-equal. A polynomial of degree
<= 4 in each variable that vanishes on a 5 x 5 grid is zero (N. Alon,
Combinatorial Nullstellensatz, Lemma 2.1). So the claims run on the 25
points of PROOF_A x PROOF_B below, whose sines and cosines are rational and
decided exactly by `RadExt`, and passing there proves each identity for
every real a and b; the rotation blocks, with one parameter, run on PROOF_A.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from .algebraic import sqrt_rational
from .generators import (
    J_MATRICES,
    X_MATRICES,
    columns_as_vectors,
    make_V,
    make_W,
    make_alpha_basis,
    make_block,
    mat_is_orthonormal,
    product_construct,
    realize_generator,
    wk_row_matrices,
    y_matrices,
)
from .qls_core import (
    QLSGrid,
    RowQLR,
    cardinality,
    canonical_set,
    check_orthonormal,
    count_new_elements,
    distinct_elements,
    verify_qls,
)
from .synthesis import (
    S1_HIGH,
    S1_LOW,
    ImpossibleCardinalityError,
    SynthPlan,
    _QLS8_OFFSETS,
    _QLS8_ROWS,
    _check_m,
    _qls8_low_plan,
    execute_plan,
    execute_plans,
    plan_for,
    plan_qls8,
    reachable_sums,
    set_bits,
    valid_cardinalities,
    w_block,
)
from .vectors import QVector, basis_vector, format_vector, ket, phase_equal

F = Fraction


# the W(2k-1,2k) squares checked, k = 1..W_PAIRWISE_BOUND
W_PAIRWISE_BOUND = 10
# the proof grid: a = 2t/(1-t^2) for t in {0, +-1/2, +-1/3} on the a side and
# t in {+-1/4, +-1/5, 2/3} on the b side; the sides are disjoint, so a != b
PROOF_A = (F(0), F(4, 3), F(-4, 3), F(3, 4), F(-3, 4))
PROOF_B = (F(8, 15), F(-8, 15), F(5, 12), F(-5, 12), F(12, 5))
_PROOF_PAIRS = [(a, b) for a in PROOF_A for b in PROOF_B]
_A_SIDE = "a = 2t/(1-t^2), t in {0,+-1/2,+-1/3}"
_B_SIDE = "b = 2u/(1-u^2), u in {+-1/4,+-1/5,2/3}"
_ON_PROOF_GRID = f"on the 5 x 5 proof grid {_A_SIDE} by {_B_SIDE}, so for every real a, b"
# the m at which coverage, reachable sums and tail disjointness are checked
COVERAGE_M = (3, 4, 5)
DP_M = (3, 4, 5, 6, 7, 8)
DISJOINT_M = (3, 4, 5)
# the largest --witness-bound: the three witness claims' work grows about as
# its fourth power, 2 to 2.5 s at 16 on a shared 2-vCPU host
MAX_WITNESS_BOUND = 16


@dataclass(frozen=True)
class ClaimConfig:
    """What the command line sets: `--witness-bound`, the bound of the rational
    witness grid of the `separations/*` claims (default 4, at most
    MAX_WITNESS_BOUND), and `--m`, the orders `synthesis/full-sweep` builds
    (default m = 3 only, since `qls8/full-range` always sweeps m = 2)."""

    witness_bound: int = 4
    sweep_m: tuple[int, ...] = (3,)

    def __post_init__(self):
        # a bound below 1 leaves no witnesses, and a witness claim over none
        # would pass vacuously
        b = self.witness_bound
        if not isinstance(b, int) or isinstance(b, bool) or b < 1:
            raise ValueError(f"witness bound must be an integer >= 1, got {b!r}")
        if b > MAX_WITNESS_BOUND:
            raise ValueError(f"witness bound must be at most {MAX_WITNESS_BOUND}, got {b}")
        # and a sweep over no m would pass as vacuously; one that names an m
        # twice would sweep it, and count its grids, twice
        if not self.sweep_m:
            raise ValueError("sweep_m must name at least one m")
        for i, m in enumerate(self.sweep_m):
            _check_m(m, 2)
            if m in self.sweep_m[:i]:
                raise ValueError(f"sweep_m names m = {m} twice")


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    status: str  # "pass" or "fail"
    kind: str  # "exact" or "witness"
    detail: str


def _witness_values(bound: int) -> tuple[Fraction, ...]:
    vals = {F(p, q) for p in range(-bound, bound + 1) for q in range(1, bound + 1)}
    return tuple(sorted(vals))


def _classes(*grids: QLSGrid) -> frozenset[QVector]:
    """The phase classes of the grids together."""
    return frozenset().union(*(distinct_elements(g) for g in grids))


def _claim_alpha_basis(cfg: ClaimConfig):
    alphas = make_alpha_basis()
    bad = check_orthonormal(alphas)
    if bad is not None:
        # ("unit", 0, p) or ("row", 0, p, q)
        p, q = bad.location[2], bad.location[-1]
        return False, f"<alpha{p + 1},alpha{q + 1}> != {int(p == q)}"
    if alphas[0] != ket("00"):
        return False, "first basis vector is not |00>"
    return True, "orthonormal quadruple; first vector is |00>"


def _block_set(family: str, a: Fraction) -> frozenset[QVector]:
    return canonical_set(v for row in make_block(family, a) for v in row)


def _claim_rotation_blocks(cfg: ClaimConfig):
    for fam in "ABCD":
        for a in PROOF_A:
            bad = check_orthonormal(make_block(fam, a)[0])
            if bad is not None:
                what = "non-unit cell" if bad.location[0] == "unit" else "row not orthogonal"
                return False, f"{fam}({a}): {what}"
    return True, f"4 families, all rows orthonormal at the 5 proof values {_A_SIDE}, so for every real a"


def _claim_family_separation(cfg: ClaimConfig):
    # a and -1/a give rotations a right angle apart, hence the same
    # unordered pair of lines; every other parameter pair is disjoint
    vals = _witness_values(cfg.witness_bound)
    for fam in "ABCD":
        sets = {a: _block_set(fam, a) for a in vals}
        for i, a in enumerate(vals):
            for x in vals[i + 1 :]:
                if a * x == -1:
                    if sets[a] != sets[x]:
                        return False, f"{fam}: {a} and {x} should coincide"
                elif sets[a] & sets[x]:
                    return False, f"{fam}: parameters {a} and {x} overlap"
    return True, (
        f"{len(vals)} parameter values per family: disjoint cells for distinct "
        "parameters, except x = -1/a which yields the identical block"
    )


def _separation(cfg, family, apart, meets, where, shared, wrong, detail):
    """family(a) never meets apart(x), and meets meets(x) exactly in the
    one cell `shared` where where(a, x) holds, else not at all; `wrong`
    ends the detail of an overlap that is not just that cell."""
    vals = _witness_values(cfg.witness_bound)
    sets = {f: {x: _block_set(f, x) for x in vals} for f in (apart, meets, family)}
    want = canonical_set((shared,))
    for a in vals:
        for x in vals:
            if sets[family][a] & sets[apart][x]:
                return False, f"{family}({a}) meets {apart}({x})"
            inter = sets[family][a] & sets[meets][x]
            if where(a, x):
                if inter != want:
                    return False, f"{family}({a}) and {meets}({x}) share {len(inter)} elements, {wrong}"
            elif inter:
                return False, f"{family}({a}) meets {meets}({x})"
    return True, f"{len(vals)}^2 pairs; {detail}"


def _claim_c_vs_a_b(cfg: ClaimConfig):
    return _separation(
        cfg, "C", "B", "A", lambda a, x: a == x == 0, ket("00"),
        "not just |00>", "sole overlap is C(0)/A(0) at |00>",
    )


def _claim_d_vs_a_b(cfg: ClaimConfig):
    # (|10>-|11>)/sqrt(2) is the one line common to both planes; it sits in
    # D(a) iff a = 1 or -1 and in B(x) iff x = 1 or -1
    half = sqrt_rational(F(1, 2))
    return _separation(
        cfg, "D", "A", "B", lambda a, x: a in (1, -1) and x in (1, -1),
        QVector([0, 0, half, -half]), "not the expected one",
        "the only overlaps are D(+-1)/B(+-1), each at (|10>-|11>)/sqrt(2) alone",
    )


def _adds_own_index(make, indices, base, detail):
    """Each block make(ell) adds exactly ell classes beyond `base`."""
    counts = {ell: count_new_elements(make(ell), base) for ell in indices}
    if any(counts[ell] != ell for ell in counts):
        return False, f"new-element counts {counts}"
    return True, detail


def _claim_h_new_counts(cfg: ClaimConfig):
    return _adds_own_index(
        lambda ell: realize_generator(f"H({ell})"), range(2, 9),
        _classes(realize_generator("H(0)"), realize_generator("H(1)")),
        "H(2).. H(8) add exactly 2..8 elements beyond H(0) and H(1)",
    )


def _claim_h5_split(cfg: ClaimConfig):
    h0 = distinct_elements(realize_generator("H(0)"))
    got = (
        len(_block_set("C", F(0)) - h0),
        len(_block_set("C", F(1)) - h0),
        len(_block_set("D", F(0)) - h0),
    )
    if got != (1, 2, 2):
        return False, f"per-block new counts {got}, expected (1, 2, 2)"
    return True, "H(5)'s blocks C(0), C(1), D(0) add 1, 2, 2 elements beyond H(0)"


def _claim_hprime_new_counts(cfg: ClaimConfig):
    return _adds_own_index(
        lambda ell: realize_generator(f"Hprime({ell})"), (2, 4, 6, 8),
        distinct_elements(realize_generator("W0")),
        "Hprime(2,4,6,8) add exactly 2, 4, 6, 8 elements beyond W0",
    )


def _claim_fixed_matrices_orthonormal(cfg: ClaimConfig):
    for name, mats in (("J", J_MATRICES), ("X", X_MATRICES)):
        for idx, m in enumerate(mats, start=1):
            if not mat_is_orthonormal(m):
                return False, f"{name}{idx} is not orthonormal"
    return True, "J1..J4 and X1..X4 satisfy M^T M = I exactly"


def _claim_y_orthonormal(cfg: ClaimConfig):
    for a, b in _PROOF_PAIRS:
        for idx, m in enumerate(y_matrices(a, b), start=1):
            if not mat_is_orthonormal(m):
                return False, f"Y{idx} at (a,b)=({a},{b}) is not orthonormal"
    return True, f"all four Y matrices orthonormal {_ON_PROOF_GRID}"


def _columns_form_bases(mats) -> bool:
    """For each j, the j-th columns of the matrices are orthonormal."""
    families = zip(*(columns_as_vectors(m) for m in mats))
    return all(check_orthonormal(family) is None for family in families)


def _claim_x_column_bases(cfg: ClaimConfig):
    if not _columns_form_bases(X_MATRICES):
        return False, "some column family across X1..X4 is not an orthonormal basis"
    return True, "for each j, the j-th columns of X1..X4 form an orthonormal basis"


def _claim_y_column_bases(cfg: ClaimConfig):
    for a, b in _PROOF_PAIRS:
        if not _columns_form_bases(y_matrices(a, b)):
            return False, f"column families at (a,b)=({a},{b}) fail"
    return True, f"all column families orthonormal {_ON_PROOF_GRID}"


def _claim_w_display(cfg: ClaimConfig):
    for a, b in _PROOF_PAIRS:
        grid = make_W(a, b)
        for i, y in enumerate(y_matrices(a, b)):
            for j, expected in enumerate(columns_as_vectors(y)):
                if not phase_equal(grid.cells[i][j], expected):
                    return False, f"cell ({i},{j}) at (a,b)=({a},{b}) mismatches the display"
    return True, f"W(a,b) matches the row-matrix display cell by cell {_ON_PROOF_GRID}"


def _claim_product_multiplicative(cfg: ClaimConfig):
    samples = []
    v1, v2 = make_V(0, 1), make_V(2, 3)
    g = product_construct(v1, v2, "V(0,1) x V(2,3)")
    samples.append((len(canonical_set(c for r in v1.cells for c in r))
                    * len(canonical_set(c for r in v2.cells for c in r)),
                    cardinality(g).cardinality))
    # classical cyclic rectangles: an m x n over H_n and an n x m over H_m
    for m, n in ((2, 3), (3, 2), (2, 4)):
        u = RowQLR([[basis_vector(n, (i + j) % n) for j in range(n)] for i in range(m)])
        v = RowQLR([[basis_vector(m, (i + j) % m) for j in range(m)] for i in range(n)])
        g = product_construct(u, v, f"cyclic {m}x{n}")
        samples.append((n * m, cardinality(g).cardinality))
    bad = [s for s in samples if s[0] != s[1]]
    if bad:
        return False, f"expected/actual cardinalities {bad}"
    return True, f"cardinality is multiplicative on {len(samples)} sample products"


def _claim_w_family_qls(cfg: ClaimConfig):
    for k in range(1, W_PAIRWISE_BOUND + 1):
        g = realize_generator(f"W({2 * k - 1},{2 * k})")
        if not verify_qls(g).ok:
            return False, f"W({2 * k - 1},{2 * k}) failed verification"
        if cardinality(g).cardinality != 16:
            return False, f"W({2 * k - 1},{2 * k}) is not maximal"
    return True, f"W(2k-1,2k) verified with cardinality 16 for k = 1..{W_PAIRWISE_BOUND}"


def _claim_w_family_distinct(cfg: ClaimConfig):
    sets = {
        k: distinct_elements(realize_generator(f"W({2 * k - 1},{2 * k})"))
        for k in range(1, W_PAIRWISE_BOUND + 1)
    }
    for k in sets:
        for t in sets:
            if k < t and len(sets[k] | sets[t]) != 32:
                return False, f"k={k}, t={t}: union has {len(sets[k] | sets[t])} elements"
    return True, f"all pairs k < t <= {W_PAIRWISE_BOUND} give 32 distinct elements"


def _claim_w56_w78_vs_h(cfg: ClaimConfig):
    h_union = _classes(*(realize_generator(f"H({ell})") for ell in range(9)))
    w = _classes(realize_generator("W(5,6)"), realize_generator("W(7,8)"))
    if len(w) != 32:
        return False, f"the two tail squares share elements ({len(w)} distinct)"
    if w & h_union:
        return False, f"{len(w & h_union)} elements also occur in the H family"
    return True, "32 elements of W(5,6) and W(7,8), none in H(0)..H(8)"


def _claim_w0_cross_check(cfg: ClaimConfig):
    w0 = realize_generator("W0")
    prod = product_construct(make_V(0, F(4, 3)), make_V(0, F(12, 5)), "W0 via product")
    s1, s2 = distinct_elements(w0), distinct_elements(prod)
    if s1 != s2:
        return False, f"element sets differ ({len(s1 & s2)} shared)"
    if cardinality(w0).cardinality != 16:
        return False, "explicit form is not maximal"
    return True, (
        "the explicit row-matrix form and the product construction give the "
        "same 16 element classes (cell arrangement differs)"
    )


# the four "W0 row matrices conjugated" products, displayed for k = 1..4 and
# i = 1..4; frozen here as an entry-exact regression target
DISPLAYED_PRODUCTS: dict[tuple[int, int], tuple[tuple[Fraction, ...], ...]] = {
    (1, 1): (
        (F(0), F(-14, 39), F(22, 39), F(29, 39)),
        (F(0), F(34, 39), F(19, 39), F(2, 39)),
        (F(0), F(1, 3), F(-2, 3), F(2, 3)),
        (F(1), F(0), F(0), F(0)),
    ),
    (1, 2): (
        (F(-14, 507), F(-1832, 2535), F(851, 2535), F(102, 169)),
        (F(2198, 2535), F(-476, 2535), F(758, 2535), F(-297, 845)),
        (F(-97, 195), F(-56, 195), F(98, 195), F(-42, 65)),
        (F(0), F(3, 5), F(48, 65), F(4, 13)),
    ),
    (1, 3): (
        (F(458, 507), F(-119, 507), F(56, 169), F(-70, 507)),
        (F(119, 507), F(-218, 507), F(-136, 169), F(170, 507)),
        (F(14, 39), F(34, 39), F(-4, 13), F(5, 39)),
        (F(0), F(0), F(5, 13), F(12, 13)),
    ),
    (1, 4): (
        (F(-217, 507), F(458, 845), F(-1718, 2535), F(-128, 507)),
        (F(1114, 2535), F(119, 845), F(406, 2535), F(-2212, 2535)),
        (F(154, 195), F(14, 65), F(-89, 195), F(68, 195)),
        (F(0), F(4, 5), F(36, 65), F(3, 13)),
    ),
    (2, 1): (
        (F(0), F(0), F(-16, 65), F(63, 65)),
        (F(0), F(0), F(63, 65), F(16, 65)),
        (F(0), F(1), F(0), F(0)),
        (F(1), F(0), F(0), F(0)),
    ),
    (2, 2): (
        (F(-12, 25), F(-16, 25), F(189, 325), F(-48, 325)),
        (F(16, 25), F(-12, 25), F(48, 325), F(189, 325)),
        (F(3, 5), F(0), F(4, 13), F(-48, 65)),
        (F(0), F(3, 5), F(48, 65), F(4, 13)),
    ),
    (2, 3): (
        (F(4, 5), F(3, 5), F(0), F(0)),
        (F(3, 5), F(-4, 5), F(0), F(0)),
        (F(0), F(0), F(-12, 13), F(5, 13)),
        (F(0), F(0), F(5, 13), F(12, 13)),
    ),
    (2, 4): (
        (F(9, 25), F(12, 25), F(-252, 325), F(64, 325)),
        (F(-12, 25), F(9, 25), F(-64, 325), F(-252, 325)),
        (F(4, 5), F(0), F(3, 13), F(-36, 65)),
        (F(0), F(4, 5), F(36, 65), F(3, 13)),
    ),
    (3, 1): (
        (F(0), F(-48, 65), F(-36, 65), F(5, 13)),
        (F(0), F(4, 13), F(3, 13), F(12, 13)),
        (F(0), F(3, 5), F(-4, 5), F(0)),
        (F(1), F(0), F(0), F(0)),
    ),
    (3, 2): (
        (F(-164, 169), F(-96, 845), F(3, 845), F(36, 169)),
        (F(12, 169), F(-636, 845), F(548, 845), F(-15, 169)),
        (F(-3, 13), F(16, 65), F(12, 65), F(-12, 13)),
        (F(0), F(3, 5), F(48, 65), F(4, 13)),
    ),
    (3, 3): (
        (F(24, 169), F(557, 845), F(576, 845), F(-48, 169)),
        (F(159, 169), F(24, 169), F(-48, 169), F(20, 169)),
        (F(-4, 13), F(48, 65), F(-36, 65), F(3, 13)),
        (F(0), F(0), F(5, 13), F(12, 13)),
    ),
    (3, 4): (
        (F(-33, 169), F(72, 845), F(-404, 845), F(144, 169)),
        (F(56, 169), F(477, 845), F(-564, 845), F(-60, 169)),
        (F(12, 13), F(-12, 65), F(9, 65), F(4, 13)),
        (F(0), F(4, 5), F(36, 65), F(3, 13)),
    ),
    (4, 1): (
        (F(0), F(0), F(63, 65), F(-16, 65)),
        (F(0), F(0), F(16, 65), F(63, 65)),
        (F(0), F(1), F(0), F(0)),
        (F(1), F(0), F(0), F(0)),
    ),
    (4, 2): (
        (F(3344, 4225), F(-492, 4225), F(-48, 325), F(189, 325)),
        (F(-492, 4225), F(-3344, 4225), F(189, 325), F(48, 325)),
        (F(3, 5), F(0), F(4, 13), F(-48, 65)),
        (F(0), F(3, 5), F(48, 65), F(4, 13)),
    ),
    (4, 3): (
        (F(123, 845), F(-836, 845), F(0), F(0)),
        (F(836, 845), F(123, 845), F(0), F(0)),
        (F(0), F(0), F(-12, 13), F(5, 13)),
        (F(0), F(0), F(5, 13), F(12, 13)),
    ),
    (4, 4): (
        (F(-2508, 4225), F(369, 4225), F(64, 325), F(-252, 325)),
        (F(369, 4225), F(2508, 4225), F(-252, 325), F(-64, 325)),
        (F(4, 5), F(0), F(3, 13), F(-36, 65)),
        (F(0), F(4, 5), F(36, 65), F(3, 13)),
    ),
}


def _claim_displayed_products(cfg: ClaimConfig):
    for k in range(1, 5):
        computed = wk_row_matrices(k)
        for i in range(1, 5):
            want = DISPLAYED_PRODUCTS[(k, i)]
            got = computed[i - 1]
            for r in range(4):
                for c in range(4):
                    if got[r][c] != want[r][c]:
                        return False, (
                            f"product (k={k}, i={i}) entry ({r + 1},{c + 1}): "
                            f"computed {got[r][c]}, displayed {want[r][c]}"
                        )
    return True, "16 displayed product matrices match entry for entry (256 entries)"


# (claim id, left block, right block, the cells they share, pass detail),
# each block named as realize_generator reads it
_MEETS = (
    ("wk/w0-meet-w1", "W0", "Wk(1)", (ket("11"),),
     "W0 and W1 share exactly one element, |11>"),
    ("wk/w0-meet-w2", "W0", "Wk(2)", (
        ket("10"),
        ket("11"),
        QVector([0, 0, F(-12, 13), F(5, 13)]),
        QVector([0, 0, F(5, 13), F(12, 13)]),
    ), "W0 and W2 share exactly the four listed elements"),
    ("wk/w0-meet-w3", "W0", "Wk(3)", (ket("11"), QVector([F(5, 13), F(12, 13), 0, 0])),
     "W0 and W3 share exactly |11> and (5/13)|00>+(12/13)|01>"),
    # the top-plane pair is read off the displayed products: column 4 of
    # the first W2 row matrix and column 3 of the first W4 row matrix
    ("wk/w2-meet-w4", "Wk(2)", "Wk(4)", (
        ket("10"),
        ket("11"),
        QVector([F(63, 65), F(16, 65), 0, 0]),
        QVector([F(-16, 65), F(63, 65), 0, 0]),
        QVector([0, 0, F(-12, 13), F(5, 13)]),
        QVector([0, 0, F(5, 13), F(12, 13)]),
    ), "W2 and W4 share exactly the six listed elements"),
)


def _claim_meet(left, right, cells, detail, cfg: ClaimConfig):
    inter = distinct_elements(realize_generator(left)) & distinct_elements(realize_generator(right))
    if inter != canonical_set(cells):
        # a one-cell meet names its cell
        want = (f", expected exactly {format_vector(cells[0], ('00', '01', '10', '11'))}"
                if len(cells) == 1 else " or wrong members")
        return False, f"intersection has {len(inter)} elements{want}"
    return True, detail


def _claim_w56_vs_w0(cfg: ClaimConfig):
    n = count_new_elements(realize_generator("W(5,6)"), distinct_elements(realize_generator("W0")))
    if n != 16:
        return False, f"only {n} of 16 elements are new"
    return True, "all 16 elements of W(5,6) lie outside W0"


def _claim_qls8_layout_table(cfg: ClaimConfig):
    plans = [_qls8_low_plan(*row, ell) for row in _QLS8_ROWS for ell in _QLS8_OFFSETS]
    built = sum(1 for _ in execute_plans(plans))  # raises if a count misses base + ell
    return True, f"{built} layout/offset combinations all count to base plus offset"


def _claim_qls8_c57(cfg: ClaimConfig):
    execute_plan(plan_qls8(57))
    split = (
        len(_classes(realize_generator("W0"), realize_generator("Wk(1)"))),
        len(_classes(realize_generator("Wk(2)"), realize_generator("Wk(4)"))),
    )
    if split != (31, 26):
        return False, f"per-prefix counts {split}, expected (31, 26)"
    return True, "the fixed square counts to 57 = 31 + 26"


def _synth_every_target(m: int) -> int:
    """Synthesize, verify and count a grid at every attainable cardinality
    of order 4m; the number built."""
    rng = valid_cardinalities(m)
    plans = (plan_for(m, c) for c in range(rng.lo, rng.hi + 1) if c != rng.excluded)
    # one batch; each grid is re-verified and re-counted
    return sum(1 for _ in execute_plans(plans))


def _claim_qls8_full_range(cfg: ClaimConfig):
    built = _synth_every_target(2)
    return True, f"all {built} targets in [8,64] minus 9 verified and counted"


# the paper's order-12 square of cardinality 105, one diagonal per prefix
_C105_DIAGONALS = (
    ("W0", "Wk(1)", "W(5,6)"),
    ("W0", "W0", "W(5,6)"),
    ("H(0)", "H(6)", "W(5,6)"),
)


def _claim_qls12_c105(cfg: ClaimConfig):
    # execute_plan raises unless the square verifies and counts to 105
    execute_plan(SynthPlan(3, 105, "QLS12-c105", _C105_DIAGONALS, {"total": 105}))
    return True, "the fixed 3x3 block square counts to 105 = 47 + 32 + 26"


def _claim_low_sum_range(cfg: ClaimConfig):
    for m in DP_M:
        reach = reachable_sums(S1_LOW, m)
        window = (1 << (16 * m - 7)) - 1  # bits 0..16m-8
        if reach & window != window ^ (1 << 1) ^ (1 << (16 * m - 15)):
            return False, f"m={m}: in-window set differs from the stated one"
        if reach & ~window != 1 << (16 * m):
            return False, f"m={m}: values beyond the window are {sorted(set_bits(reach & ~window))}"
    return True, (
        f"m in {list(DP_M)}: within [0,16m-8] the reachable sums are exactly "
        "the window minus {1, 16m-15}; the all-maximal choice adds the single "
        "extra value 16m above the window"
    )


def _claim_high_sum_range(cfg: ClaimConfig):
    for m in DP_M:
        reach = reachable_sums(S1_HIGH, m)
        want = ((1 << (16 * m + 1)) - 1) ^ sum(1 << s for s in (1, 3, 5, 7, 9, 11, 13))
        if reach != want:
            return False, f"m={m}: symmetric difference {sorted(set_bits(reach ^ want))}"
    return True, f"m in {list(DP_M)}: reachable sums equal [0,16m] minus the seven small odds"


def _claim_coverage_union(cfg: ClaimConfig):
    notes = []
    for m in COVERAGE_M:
        rng = valid_cardinalities(m)  # raises if the union misses the target set
        if m == 3:
            in_low = 105 in rng.low_reachable
            off25 = reachable_sums(S1_HIGH, 3) >> 25 & 1
            notes.append(
                f"m=3: 105 ({'also' if in_low else 'not'} low-reachable by the sums), "
                f"high offset 25 {'reachable (2+8+15)' if off25 else 'unreachable'}"
            )
    detail = f"m in {list(COVERAGE_M)}: regimes plus specials cover the full range"
    if notes:
        detail += "; " + "; ".join(notes)
    return True, detail


def _claim_tail_blocks_disjoint(cfg: ClaimConfig):
    low_base = _classes(*(realize_generator(f"H({ell})") for ell in range(9)))
    high_base = _classes(
        realize_generator("W0"),
        *(realize_generator(f"Wk({k})") for k in range(1, 5)),
        *(realize_generator(f"Hprime({ell})") for ell in (2, 4, 6, 8)),
    )
    for m in DISJOINT_M:
        union = _classes(*(realize_generator(w_block(i)) for i in range(1, m)))
        if len(union) != 16 * (m - 1):
            return False, f"m={m}: tail squares overlap ({len(union)} distinct)"
        if union & low_base:
            return False, f"m={m}: {len(union & low_base)} tail elements occur among the H blocks"
        if union & high_base:
            return False, f"m={m}: {len(union & high_base)} tail elements occur among the W/Hprime blocks"
    return True, (
        f"m in {list(DISJOINT_M)}: the 16(m-1) tail elements are pairwise "
        "distinct and avoid both regimes' base blocks"
    )


def _claim_synthesis_sweep(cfg: ClaimConfig):
    built = sum(_synth_every_target(m) for m in cfg.sweep_m)
    return True, f"{built} verified grids across m in {list(cfg.sweep_m)}"


def _claim_order_plus_one_rejected(cfg: ClaimConfig):
    for m in range(2, 9):
        try:
            plan_for(m, 4 * m + 1)
        except ImpossibleCardinalityError as exc:
            if "impossible" not in str(exc):
                return False, f"m={m}: diagnostic lacks the impossibility wording"
        else:
            return False, f"m={m}: target 4m+1 was not rejected"
    return True, "4m+1 rejected with the impossibility diagnostic for m in [2,8]"


Claim = tuple[str, str, Callable[[ClaimConfig], tuple[bool, str]]]

CLAIMS: tuple[Claim, ...] = (
    ("alpha-basis/orthonormal", "exact", _claim_alpha_basis),
    ("blocks/h-family-new-counts", "exact", _claim_h_new_counts),
    ("blocks/h5-split-1-2-2", "exact", _claim_h5_split),
    ("blocks/hprime-new-counts", "exact", _claim_hprime_new_counts),
    ("blocks/rotation-orthonormality", "exact", _claim_rotation_blocks),
    ("matrices/fixed-orthonormal", "exact", _claim_fixed_matrices_orthonormal),
    ("matrices/x-column-bases", "exact", _claim_x_column_bases),
    ("matrices/y-column-bases", "exact", _claim_y_column_bases),
    ("matrices/y-orthonormal", "exact", _claim_y_orthonormal),
    ("product/cardinality-multiplicative", "exact", _claim_product_multiplicative),
    ("product/w-matches-row-matrix-display", "exact", _claim_w_display),
    ("qls12/c105-square", "exact", _claim_qls12_c105),
    ("qls8/c57-square", "exact", _claim_qls8_c57),
    ("qls8/full-range", "exact", _claim_qls8_full_range),
    ("qls8/layout-table", "exact", _claim_qls8_layout_table),
    ("scaffold/coverage-union", "exact", _claim_coverage_union),
    ("scaffold/high-sum-range", "exact", _claim_high_sum_range),
    ("scaffold/low-sum-range", "exact", _claim_low_sum_range),
    ("scaffold/tail-blocks-disjoint", "exact", _claim_tail_blocks_disjoint),
    ("separations/c-vs-a-and-b", "witness", _claim_c_vs_a_b),
    ("separations/d-vs-a-and-b", "witness", _claim_d_vs_a_b),
    ("separations/within-family", "witness", _claim_family_separation),
    ("synthesis/full-sweep", "exact", _claim_synthesis_sweep),
    ("synthesis/order-plus-one-rejected", "exact", _claim_order_plus_one_rejected),
    ("w-family/pairwise-distinct-32", "exact", _claim_w_family_distinct),
    ("w-family/qls-and-max-cardinality", "exact", _claim_w_family_qls),
    ("w-family/tails-avoid-h-blocks", "exact", _claim_w56_w78_vs_h),
    ("w0/product-cross-check", "exact", _claim_w0_cross_check),
    ("wk/displayed-product-matrices", "exact", _claim_displayed_products),
    *((cid, "exact", partial(_claim_meet, *meet)) for cid, *meet in _MEETS),
    ("wk/w56-outside-w0", "exact", _claim_w56_vs_w0),
)


def run_all_claims(config: ClaimConfig | None = None) -> list[ClaimResult]:
    cfg = config if config is not None else ClaimConfig()
    results = []
    for claim_id, kind, func in sorted(CLAIMS, key=lambda c: c[0]):
        try:
            ok, detail = func(cfg)
        except Exception as exc:  # a crashed claim is a failed claim
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(
            ClaimResult(claim_id=claim_id, status="pass" if ok else "fail", kind=kind, detail=detail)
        )
    return results


def report_text(results: list[ClaimResult]) -> str:
    width = max(len(r.claim_id) for r in results)
    lines = [
        f"{r.status.upper():4} [{r.kind:7}] {r.claim_id:<{width}}  {r.detail}"
        for r in results
    ]
    failed = sum(1 for r in results if r.status != "pass")
    lines.append(f"{len(results) - failed}/{len(results)} claims passed")
    return "\n".join(lines) + "\n"


def report_json(results: list[ClaimResult]) -> str:
    payload = [
        {"claim_id": r.claim_id, "status": r.status, "kind": r.kind, "detail": r.detail}
        for r in results
    ]
    return json.dumps(payload, indent=2) + "\n"
