import json

from qlatin.claims import (
    CLAIMS,
    DISPLAYED_PRODUCTS,
    ClaimConfig,
    report_json,
    report_text,
    run_all_claims,
)


def test_registry_shape():
    ids = [claim_id for claim_id, _, _ in CLAIMS]
    assert len(ids) == 34
    assert len(set(ids)) == len(ids)
    kinds = {kind for _, kind, _ in CLAIMS}
    assert kinds == {"exact", "witness"}


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
