import json
from collections import Counter
from fractions import Fraction

import pytest

from qlatin import claims, generators, qls_core, synthesis
from qlatin.algebraic import sqrt_rational
from qlatin.claims import (
    CLAIMS,
    DISPLAYED_PRODUCTS,
    PROOF_A,
    PROOF_B,
    ClaimConfig,
    report_json,
    report_text,
    run_all_claims,
)
from qlatin.generators import mat, y_matrices
from qlatin.synthesis import execute_plans

_SEPARATIONS = {"separations/c-vs-a-and-b", "separations/d-vs-a-and-b", "separations/within-family"}


def test_registry_shape():
    ids = [claim_id for claim_id, _, _ in CLAIMS]
    assert len(ids) == 34
    assert len(set(ids)) == len(ids)
    kinds = {kind for _, kind, _ in CLAIMS}
    assert kinds == {"exact", "witness"}
    # only statements about zero sets are sampled; every identity is proved
    assert {claim_id for claim_id, kind, _ in CLAIMS if kind == "witness"} == _SEPARATIONS


def test_displayed_products_are_complete():
    assert set(DISPLAYED_PRODUCTS) == {(k, i) for k in range(1, 5) for i in range(1, 5)}
    for m in DISPLAYED_PRODUCTS.values():
        assert len(m) == 4 and all(len(row) == 4 for row in m)


def test_all_claims_pass(claims_results):
    failed = [r for r in claims_results if r.status != "pass"]
    assert not failed, "\n".join(f"{r.claim_id}: {r.detail}" for r in failed)
    assert len(claims_results) == len(CLAIMS)


def test_results_sorted_by_id(claims_results):
    ids = [r.claim_id for r in claims_results]
    assert ids == sorted(ids)


def test_report_rendering(claims_results):
    text = report_text(claims_results)
    assert f"{len(claims_results)}/{len(claims_results)} claims passed" in text
    assert text.count("PASS") == len(claims_results)
    payload = json.loads(report_json(claims_results))
    assert len(payload) == len(claims_results)
    assert all(set(item) == {"claim_id", "status", "kind", "detail"} for item in payload)


def test_reduced_config_still_passes():
    cfg = ClaimConfig(witness_bound=2, sweep_m=(2,))
    results = run_all_claims(cfg)
    assert all(r.status == "pass" for r in results)


def test_a_sweep_over_no_m_is_refused():
    # it would pass synthesis/full-sweep with 0 grids built
    with pytest.raises(ValueError, match="^sweep_m must name at least one m$"):
        ClaimConfig(sweep_m=())


def test_a_sweep_that_repeats_an_m_is_refused():
    # it would sweep m = 3 twice and report 264 verified grids for 132
    with pytest.raises(ValueError, match="^sweep_m names m = 3 twice$"):
        ClaimConfig(sweep_m=(3, 2, 3))


# Fail details, which the golden digest (passing output only) cannot see.
# Each claim is forced to fail by adding a made-up class to the sets it
# compares; the detail must name what went wrong exactly as before.

_SMALL = ClaimConfig(witness_bound=1, sweep_m=(2,))


def _claim(claim_id):
    return next(fn for cid, _, fn in CLAIMS if cid == claim_id)


@pytest.mark.parametrize(
    "claim_id,marked,detail",
    [
        ("separations/c-vs-a-and-b", {("C", 0), ("A", 0)}, "C(0) and A(0) share 2 elements, not just |00>"),
        ("separations/c-vs-a-and-b", {("C", -1), ("B", 1)}, "C(-1) meets B(1)"),
        ("separations/c-vs-a-and-b", {("C", 1), ("A", -1)}, "C(1) meets A(-1)"),
        ("separations/d-vs-a-and-b", {("D", 1), ("B", 1)}, "D(1) and B(1) share 2 elements, not the expected one"),
        ("separations/d-vs-a-and-b", {("D", 0), ("A", 1)}, "D(0) meets A(1)"),
        ("separations/d-vs-a-and-b", {("D", -1), ("B", 0)}, "D(-1) meets B(0)"),
    ],
)
def test_separation_fail_details(monkeypatch, claim_id, marked, detail):
    block_set = claims._block_set

    def with_extra(family, a):
        cells = block_set(family, a)
        return cells | {"extra"} if (family, a) in marked else cells

    monkeypatch.setattr(claims, "_block_set", with_extra)
    assert _claim(claim_id)(_SMALL) == (False, detail)


def _shared(g):
    return "extra"  # one class added to every grid: each intersection gains it


def _own(g):
    return ("extra", g.provenance)  # a class of its own: each block gains one new class


@pytest.mark.parametrize(
    "claim_id,extra,detail",
    [
        ("wk/w0-meet-w1", _shared, "intersection has 2 elements, expected exactly |11>"),
        ("wk/w0-meet-w2", _shared, "intersection has 5 elements or wrong members"),
        ("wk/w0-meet-w3", _shared, "intersection has 3 elements or wrong members"),
        ("wk/w2-meet-w4", _shared, "intersection has 7 elements or wrong members"),
        ("blocks/h-family-new-counts", _own, "new-element counts {2: 3, 3: 4, 4: 5, 5: 6, 6: 7, 7: 8, 8: 9}"),
        ("blocks/hprime-new-counts", _own, "new-element counts {2: 3, 4: 5, 6: 7, 8: 9}"),
        ("w-family/tails-avoid-h-blocks", _own, "the two tail squares share elements (34 distinct)"),
        ("scaffold/tail-blocks-disjoint", _own, "m=3: tail squares overlap (34 distinct)"),
        ("qls8/c57-square", _own, "per-prefix counts (33, 28), expected (31, 26)"),
    ],
)
def test_class_set_fail_details(monkeypatch, claim_id, extra, detail):
    elements = qls_core.distinct_elements
    with_extra = lambda g: elements(g) | {extra(g)}  # noqa: E731
    monkeypatch.setattr(claims, "distinct_elements", with_extra)
    monkeypatch.setattr(qls_core, "distinct_elements", with_extra)
    assert _claim(claim_id)(_SMALL) == (False, detail)


@pytest.mark.parametrize(
    "claim_id,name,stub,detail",
    [
        ("matrices/y-orthonormal", "mat_is_orthonormal", lambda m: False,
         "Y1 at (a,b)=(0,8/15) is not orthonormal"),
        ("matrices/y-column-bases", "_columns_form_bases", lambda mats: False,
         "column families at (a,b)=(0,8/15) fail"),
        ("product/w-matches-row-matrix-display", "phase_equal", lambda u, v: False,
         "cell (0,0) at (a,b)=(0,8/15) mismatches the display"),
    ],
)
def test_witness_pair_fail_details(monkeypatch, claim_id, name, stub, detail):
    monkeypatch.setattr(claims, name, stub)
    assert _claim(claim_id)(_SMALL) == (False, detail)


# The proof grid of the four identity claims; why 5 x 5 points prove them
# for every real a, b is in the qlatin.claims docstring.


def test_proof_grid_sides_are_five_distinct_disjoint_values():
    assert len(set(PROOF_A)) == len(PROOF_A) == 5
    assert len(set(PROOF_B)) == len(PROOF_B) == 5
    assert not set(PROOF_A) & set(PROOF_B)


@pytest.mark.parametrize("a", PROOF_A + PROOF_B, ids=str)
def test_proof_value_is_a_half_angle_tangent(a):
    cos = sqrt_rational(1 / (1 + a * a))
    assert set(cos.num) <= {1}  # rational: the cosine is (1-t^2)/(1+t^2)
    cos = Fraction(cos.num.get(1, 0), cos.den)
    t = a * cos / (1 + cos)  # tan(theta/2) = sin/(1 + cos)
    assert abs(t) < 1 and 2 * t / (1 - t * t) == a


def _y3_sign_flipped(a, b):
    """y_matrices with the sign of Y3's entry (0,0), -a/sqrt(2+2a^2), flipped:
    a wrong display that is still right at a = 0."""
    y1, y2, y3, y4 = y_matrices(a, b)
    rows = [list(row) for row in y3]
    rows[0][0] = -rows[0][0]
    return y1, y2, mat(rows), y4


@pytest.mark.parametrize(
    "claim_id,detail",
    [
        ("matrices/y-orthonormal", "Y3 at (a,b)=(4/3,8/15) is not orthonormal"),
        ("matrices/y-column-bases", "column families at (a,b)=(4/3,8/15) fail"),
        ("product/w-matches-row-matrix-display", "cell (2,0) at (a,b)=(4/3,8/15) mismatches the display"),
    ],
)
def test_proof_grid_catches_a_sign_flip_invisible_at_zero(monkeypatch, claim_id, detail):
    monkeypatch.setattr(claims, "y_matrices", _y3_sign_flipped)
    assert _claim(claim_id)(ClaimConfig()) == (False, detail)


# Work of each identity claim, counted as in tests/test_qls_core.py's
# WORK_CEILINGS, with the rotation-block cache emptied first. A counter a
# claim does not name is held at zero; a ceiling may only fall.
CLAIM_WORK_CEILINGS = {
    "blocks/rotation-orthonormality": {"mul": 158, "inner_product": 57},
    "matrices/y-orthonormal": {"neg": 400, "inner_product": 780},
    "matrices/y-column-bases": {"neg": 400, "inner_product": 860},
    "product/w-matches-row-matrix-display": {"mul": 1240, "neg": 1360, "sign": 800, "inner_product": 270},
}


@pytest.mark.parametrize("claim_id", sorted(CLAIM_WORK_CEILINGS))
def test_claim_work_stays_under_its_ceiling(claim_id, count_work):
    generators.make_block.cache_clear()
    used = count_work(_claim(claim_id), ClaimConfig())
    ceiling = CLAIM_WORK_CEILINGS[claim_id]
    over = {name: (n, ceiling.get(name, 0)) for name, n in used.items() if n > ceiling.get(name, 0)}
    assert not over, f"(work, ceiling) above the ceiling: {over}"


def test_one_run_sweeps_each_order_once(monkeypatch):
    # qls8/full-range sweeps m = 2 and the default synthesis/full-sweep
    # sweeps m = 3 only, so a run sweeps m = 2 once, and so does the claim
    # called on its own. Each sweep is one batch; its plans are counted as
    # the batch executes them, and a sweep of order 8 is a batch that
    # executes each of the 56 targets' plans exactly once
    batches = []

    def counted(plans):
        plans, executed = list(plans), Counter()
        batches.append(executed)
        for plan, grid in zip(plans, execute_plans(plans)):
            executed[plan.m, plan.target_c, plan.diagonals] += 1
            yield grid

    monkeypatch.setattr(claims, "execute_plans", counted)
    rng = synthesis.valid_cardinalities(2)
    sweep = Counter(
        (2, c, synthesis.plan_for(2, c).diagonals) for c in range(rng.lo, rng.hi + 1) if c != rng.excluded
    )
    assert len(sweep) == 56
    for runs in (1, 2):
        assert all(r.status == "pass" for r in run_all_claims(ClaimConfig(witness_bound=1)))
        assert sum(b == sweep for b in batches) == runs
    for runs in (3, 4):
        assert _claim("qls8/full-range")(ClaimConfig())[0]
        assert sum(b == sweep for b in batches) == runs
