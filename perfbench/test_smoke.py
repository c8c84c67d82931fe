"""Smoke test of the benchmark itself: a tiny draw of every workload, plain
and traced, must print every metric BENCHMARK.json names with its unit; the
traced run must see every traced function and record the layers its workload
runs; and a corrupted grid fed to the verify step must count as a failed op.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
import tracer  # noqa: E402

# per-layer metrics each workload's smoke draw must record above zero
RECORDED = {
    "gate_sweep": [
        "qls_core.cardinality_oracle.calls",
        "qls_core.verify_qls.calls",
        "vectors.inner_product.calls",
        "vectors.tensor.calls",
        "step.oracle.n8.p50_s",
    ],
    "cli_pipeline": [
        "qls_core.verify_qls.calls",
        "qls_core.grid_from_json.bytes",
        "qls_core.grid_from_json.self_s",
        "qls_core.grid_to_json.self_s",
        "algebraic.sign.calls",
    ],
    "claims_suite": [m["name"] for m in SPEC["per_layer"] if m["name"].startswith("claims.")]
    + ["generators.realize_generator.cache_misses"],
}


def bench(*args):
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "7", "--seconds", "0", "--smoke", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert p.returncode == 0, p.stderr
    *report, last = p.stdout.strip().splitlines()
    return json.loads("\n".join(report)), json.loads(last)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_present_with_unit(workload, trace, kind):
    report, result = bench("--workload", workload, "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["failed_ratio"] == 0
    wanted = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert set(result["metrics"]) == set(wanted)
    for name, unit in wanted.items():
        got = result["metrics"][name]
        assert got["unit"] == unit, name
        assert isinstance(got["value"], (int, float)), name
    if kind == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert report["untraced_functions"] == []
        assert report["absent_metrics"] == {}
        assert report["tracer_errors"] == {}
        assert [n for n in RECORDED[workload] if not result["metrics"][n]["value"] > 0] == []
    assert len(report["digest_first_round"]) == 64


class Coeff:
    def __init__(self, terms):
        self.terms = terms


class Vec:
    def __init__(self, entries):
        self.entries = entries


def test_disjoint_supports_reads_dense_and_sparse_layouts():
    one, zero = Coeff({1: 1}), Coeff({})
    assert tracer.disjoint_supports(Vec((one, zero)), Vec((zero, one))) is True
    assert tracer.disjoint_supports(Vec((one, zero)), Vec((one, one))) is False
    assert tracer.disjoint_supports(Vec(((0, one),)), Vec(((1, one),))) is True
    assert tracer.disjoint_supports(Vec(((3, one),)), Vec({3: one})) is False
    assert tracer.disjoint_supports(Vec({1: one}), Vec({2: one, 3: zero})) is True
    assert tracer.disjoint_supports(Vec(()), Vec(((1, one),))) is True
    assert tracer.disjoint_supports(Vec("ab"), Vec("ab")) is None
    assert tracer.disjoint_supports(object(), object()) is None


def test_leaf_bookkeeping_never_raises_into_the_call():
    t = tracer.Tracer()
    wrapped = t._leaf("vectors.inner_product", lambda *args, **kw: (args, kw))
    assert wrapped(1, 2, scale=3) == ((1, 2), {"scale": 3})
    assert wrapped(5) == ((5,), {})
    counts = t.counts[0]
    assert counts["vectors.inner_product.calls"] == 2
    assert counts["vectors.inner_product.disjoint_unknown"] == 2
    assert t.errors == {}


def test_same_seed_same_digest():
    digests = [bench("--workload", "gate_sweep")[0]["digest_first_round"] for _ in range(2)]
    assert digests[0] == digests[1]


def test_corrupted_grid_fails_verify():
    report, result = bench("--workload", "cli_pipeline", "--corrupt")
    assert not result["correct"]
    assert result["failed"] > 0
    assert report["failed_ratio"] > 0
    assert any("verify exit 1" in f for f in report["failures"])
