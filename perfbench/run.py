"""The qlatin benchmark: run one workload for a while, check every output, and
print its metrics.

    python3 perfbench/run.py --workload gate_sweep --seed 1 --seconds 35 --trace 0

Workloads (BENCHMARK.json says why each one is there):

- ``gate_sweep``: the library path, in this process. One op is what the
  Tier-1 sweep fixture does for one target: ``plan_for`` + ``execute_plan``
  + ``cardinality`` + ``cardinality_oracle`` + ``verify_qls`` on a drawn
  target (m, c) with m in {2, 3, 4}, checked as oracle == counted == c.
- ``cli_pipeline``: the file path. One op is three fresh ``qlatin``
  processes, ``synth`` to a file, ``verify`` it, ``cardinality`` of it, at
  m in {8, 16} (order 32 and 64), checked as exit 0, ``OK: order n`` and the
  printed count == c.
- ``claims_suite``: one op is a fresh ``qlatin claims --format json`` process;
  every claim must pass and every op must print the same bytes. It has no
  inputs, so its seed changes nothing.

Load is a closed loop: one process, one op at a time, no threads. A run
repeats whole rounds of its workload's cycle of m values until --seconds have
passed, so every run has the same mix of sizes. Targets are drawn from
--seed, spread evenly over each m's range of valid c (Targets).
Where each mix comes from is said at GATE_MIX and CLI_MIX.

--trace 0 measures with tracing off and prints the end-to-end metrics.
--trace 1 runs every op twice in alternating order, once plain and once with
spans around qlatin's public functions (see tracer.py), and prints the
per-layer metrics, each as a mean per traced op, plus the tracing overhead.
A metric of a function the tracer could not wrap is left out of the result
and named in the report's ``absent_metrics``; a traced function that the
workload never calls, or a step it does not run, reads 0.

Besides the last line, the machine-readable result, the run
prints a report (and writes it under .perfbench_out/) with the op-tail
percentile and its sample count, per-step medians, the failure ratio and
first failures, a sha256 digest of the first round's outputs, qlatin's cache
sizes, and the machine's facts. The host is shared: wall time of the same
code moves by up to about 30% between runs, and within one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from warm import SRC, use_checkout_sources, valid_targets, warm_up

clock = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SHIM = str(Path(__file__).resolve().parent / "cli_shim.py")
WARM = str(Path(__file__).resolve().parent / "warm.py")
PY = sys.executable

SETUP_PROBES = 8
STEP_TIMEOUT_S = 150
TAIL_BEYOND = 10

# One round of gate_sweep: the Tier-1 fixture synthesizes every valid target,
# 56, 132 and 240 of them at m = 2, 3, 4; divided by 19 and rounded that is
# 3 : 7 : 13.
GATE_MIX = (2,) * 3 + (3,) * 7 + (4,) * 13
# One round of cli_pipeline: three n = 32 ops, then one n = 64 op. A workload
# has one op_p50_s and one op_tail_s, and ROADMAP times the CLI at n = 32 and
# 64 alike; this mix gives each size one of the two. The median falls inside
# the n = 32 ops, at their 2/3 quantile; the tail is the slowest n = 64 op.
# By time a round is about 1 : 2, so ops_per_s moves with both. A 1:1 mix
# would put the median halfway between the slowest n = 32 op and the fastest
# n = 64 one, a figure of neither size. The per-layer step.<step>.n32 / .n64
# medians give each size's commands.
CLI_MIX = (8, 8, 8, 16)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@dataclass
class Op:
    ok: bool = False
    seconds: float = 0.0
    steps: dict = field(default_factory=dict)
    error: str | None = None
    order: int | None = None  # n of the op's grid, for per-size step medians
    output: object = None  # bytes, or a callable giving them, for the digest
    traces: list = field(default_factory=list)  # span files of traced processes


class Targets:
    """The targets of each round, one per entry of ms. The k draws of an m in
    round r sit at the evenly spaced quantiles (u + i) / k of m's valid c,
    where u = u0 + r * GOLDEN mod 1 and u0 is drawn from the seed. Each round
    fills the largest gap the earlier ones left, so even the few rounds of a
    cli_pipeline run span each range evenly and run time depends little on
    the seed."""

    GOLDEN = (5 ** 0.5 - 1) / 2

    def __init__(self, ms, seed: int):
        rng = random.Random(seed)
        self.ms = ms
        self.valid = {m: valid_targets(m) for m in sorted(set(ms))}
        self.u0 = {m: rng.random() for m in sorted(set(ms))}
        self.rounds = 0

    def next_round(self) -> list[tuple[int, int]]:
        picks = {}
        for m, cs in self.valid.items():
            k = self.ms.count(m)
            u = (self.u0[m] + self.rounds * self.GOLDEN) % 1
            picks[m] = iter([cs[int((u + i) / k * len(cs))] for i in range(k)])
        self.rounds += 1
        return [(m, next(picks[m])) for m in self.ms]


def child_env(trace: str | None = None) -> dict:
    """Environment of a child process; with `trace`, the CLI shim traces
    itself and writes its spans to that file."""
    env = dict(os.environ)
    env.pop("PERFBENCH_TRACE_OUT", None)
    if trace is not None:
        env["PERFBENCH_TRACE_OUT"] = trace
    return env


def run_cli(args, trace: str | None = None, stdout=subprocess.PIPE):
    """One fresh qlatin process; returns it and its wall time."""
    t0 = clock()
    p = subprocess.run(
        [PY, SHIM, *map(str, args)],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=child_env(trace),
        timeout=STEP_TIMEOUT_S,
    )
    return p, clock() - t0


def corrupt_grid(data: bytes) -> bytes:
    """Flip the sign of one coordinate of the first cell (row-major) with two
    or more nonzero coordinates. Its row then holds another cell with that
    coordinate nonzero, so the grid is no longer a QLS. A grid of basis
    vectors only has no such cell and is returned unchanged."""
    obj = json.loads(data)
    for row in obj["cells"]:
        for cell in row:
            nonzero = [t for t in cell["entries"] if t]
            if len(nonzero) >= 2:
                for term in nonzero[0]:
                    term[0] = -term[0]
                return (json.dumps(obj, separators=(",", ":")) + "\n").encode()
    return data


class GateSweep:
    in_process = True

    def __init__(self, seed: int, smoke: bool, corrupt: bool):
        use_checkout_sources()
        self.ms = (2, 2, 3) if smoke else GATE_MIX
        self.targets = Targets(self.ms, seed)
        self.setup_cmd = [PY, WARM, *map(str, sorted(set(self.ms)))]

    def check_setup(self, p) -> bool:
        return p.returncode == 0

    def prepare(self) -> None:
        warm_up(self.ms)

    def cycle(self):
        return self.targets.next_round()

    def run(self, target, trace_dir=None) -> Op:
        # looked up at call time, so the tracer's wrappers are the ones called
        from qlatin import qls_core, synthesis

        m, c = target
        t0 = clock()
        grid = synthesis.execute_plan(synthesis.plan_for(m, c))
        t1 = clock()
        counted = qls_core.cardinality(grid).cardinality
        t2 = clock()
        oracle = qls_core.cardinality_oracle(grid)
        t3 = clock()
        ok = qls_core.verify_qls(grid).ok and oracle == counted == c
        t4 = clock()
        return Op(
            ok=ok,
            seconds=t4 - t0,
            steps={"synth": t1 - t0, "oracle": t3 - t2},
            error=None if ok else f"m={m} c={c}: oracle {oracle}, counted {counted}",
            order=4 * m,
            output=lambda: qls_core.grid_to_json(grid).encode(),
        )


class CliPipeline:
    in_process = False

    def __init__(self, seed: int, smoke: bool, corrupt: bool):
        use_checkout_sources()
        self.ms = (2, 2) if smoke else CLI_MIX
        self.corrupt = corrupt
        self.targets = Targets(self.ms, seed)
        self.setup_cmd = [PY, SHIM, "range", "--m", "2"]
        self.grid_path = OUT / f"grid-{os.getpid()}.json"

    def check_setup(self, p) -> bool:
        return p.returncode == 0 and p.stdout == b"[8,64] excluding 9\n"

    def prepare(self) -> None:
        pass

    def cycle(self):
        return self.targets.next_round()

    def run(self, target, trace_dir=None) -> Op:
        m, c = target
        op, path = Op(order=4 * m), str(self.grid_path)
        errors = []

        def step(name, args, **kw):
            trace = None
            if trace_dir is not None:
                trace = str(trace_dir / f"{name}.json")
                op.traces.append(trace)
            p, op.steps[name] = run_cli(args, trace, **kw)
            return p

        with open(path, "wb") as fh:
            p = step("synth", ["synth", "--m", m, "--c", c], stdout=fh)
        if p.returncode != 0:
            errors.append(f"synth exit {p.returncode}: {p.stderr.decode()[-200:]}")
        data = self.grid_path.read_bytes()
        op.output = data
        if self.corrupt:
            self.grid_path.write_bytes(corrupt_grid(data))
        p = step("verify", ["verify", path])
        if p.returncode != 0 or p.stdout != f"OK: order {4 * m} quantum Latin square\n".encode():
            errors.append(f"verify exit {p.returncode}: {(p.stdout + p.stderr).decode()[-200:]}")
        p = step("cardinality", ["cardinality", path])
        if p.returncode != 0 or p.stdout.strip() != str(c).encode():
            errors.append(f"cardinality exit {p.returncode}: {(p.stdout + p.stderr).decode()[-200:]}")
        op.ok = not errors
        op.error = f"m={m} c={c}: " + "; ".join(errors) if errors else None
        op.seconds = sum(op.steps.values())
        return op


class ClaimsSuite:
    in_process = False

    def __init__(self, seed: int, smoke: bool, corrupt: bool):
        self.args = ["claims", "--format", "json"]
        if smoke:
            self.args += ["--m", "2", "--witness-bound", "2"]
        self.setup_cmd = [PY, SHIM, "range", "--m", "2"]
        self.first = None
        # the claims BENCHMARK.json times; a run must report each one once
        self.expected = sorted(
            tracer.metric_source(m["name"]) for m in SPEC["per_layer"] if m["name"].startswith("claims.")
        )

    check_setup = CliPipeline.check_setup

    def prepare(self) -> None:
        pass

    def cycle(self):
        return [None]

    def run(self, target, trace_dir=None) -> Op:
        traces = [] if trace_dir is None else [str(trace_dir / "claims.json")]
        p, seconds = run_cli(self.args, *traces)
        error = None
        if p.returncode != 0:
            error = f"claims exit {p.returncode}: {p.stderr.decode()[-200:]}"
        else:
            results = json.loads(p.stdout)
            failed = [r["claim_id"] for r in results if r["status"] != "pass"]
            ran = sorted(tracer.claim_span(r["claim_id"]) for r in results)
            if failed:
                error = f"{len(failed)}/{len(results)} claims failed: {failed[:5]}"
            elif ran != self.expected:
                lost = sorted(set(self.expected) - set(ran))[:5]
                error = f"ran {len(ran)} claims, not the {len(self.expected)} expected; missing {lost}"
            elif self.first is not None and p.stdout != self.first:
                error = "claims output differs from the first op's"
            self.first = self.first or p.stdout
        return Op(ok=error is None, seconds=seconds, steps={"claims": seconds}, error=error,
                  output=p.stdout, traces=traces)


WORKLOADS = {"gate_sweep": GateSweep, "cli_pipeline": CliPipeline, "claims_suite": ClaimsSuite}


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
        "host_shared": True,
        "note": "shared host: other tenants' load moves wall time between runs",
    }


def measure_setup(workload, n: int) -> list[float]:
    """Wall times of n fresh set-up processes."""
    times = []
    for _ in range(n):
        t0 = clock()
        p = subprocess.run(workload.setup_cmd, capture_output=True, env=child_env(), timeout=STEP_TIMEOUT_S)
        times.append(clock() - t0)
        if not workload.check_setup(p):
            raise RuntimeError(f"set-up probe failed: exit {p.returncode}: {p.stderr.decode()[-300:]}")
    return times


def run_one(workload, target, tr, op_id, trace_root) -> Op:
    """One op, plain (tr is None) or traced; a raised error is a failed op."""
    trace_dir = None
    if tr is not None:
        if workload.in_process:
            tr.op = op_id
            tr.install()
        else:
            trace_dir = trace_root / f"op{op_id}"
            trace_dir.mkdir(parents=True)
    t0 = clock()
    try:
        return workload.run(target, trace_dir)
    except Exception as exc:  # the op failed; the run goes on and counts it
        return Op(ok=False, seconds=clock() - t0, error=f"{target}: {type(exc).__name__}: {exc}")
    finally:
        if tr is not None and workload.in_process:
            tr.uninstall()


def tail(samples: list[float]) -> dict:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.
    Below 10 * TAIL_BEYOND ops that percentile falls under p90 and moves with
    the op count, so the maximum stands in for it."""
    xs, n = sorted(samples), len(samples)
    if n >= 10 * TAIL_BEYOND:
        return {"value": xs[n - TAIL_BEYOND - 1], "percentile": 100 * (n - TAIL_BEYOND) / n,
                "samples": n, "beyond": TAIL_BEYOND}
    return {"value": xs[-1], "percentile": 100.0, "samples": n, "beyond": 0}


def step_medians(plain: list[Op]) -> dict[str, float]:
    """Median seconds of each step at each grid order, as '<step>.n<order>'."""
    by = {}
    for op in plain:
        for name, seconds in op.steps.items():
            by.setdefault(f"{name}.n{op.order}" if op.order else name, []).append(seconds)
    return {k: statistics.median(xs) for k, xs in sorted(by.items())}


def layer_metrics(workload, tr, traced: list[tuple[int, Op]], plain: list[Op], pairs) -> tuple[dict, dict]:
    """Per-layer means per traced op, from the spans, plus per-size step
    medians of the plain ops, the tracing overhead and qlatin's cache sizes.
    Also returns what the tracer saw of itself: the functions it wrapped and
    those it could not find (over every traced process), and the errors of
    its own bookkeeping. A value of None is a metric with no defined value."""
    if workload.in_process:
        dumps = [{"spans": tr.spans, "counts": tr.counts, "caches": tracer.cache_sizes(),
                  "installed": tr.installed, "missing": tr.missing, "errors": tr.errors}]
    else:
        dumps = []
        for _, op in traced:
            for path in op.traces:
                if os.path.exists(path):  # else the traced process died; its op failed
                    with open(path, encoding="utf-8") as fh:
                        dumps.append(json.load(fh))
    totals: dict[str, float] = {}
    caches: dict[str, int] = {}
    seen = {"installed": set(), "missing": set(), "errors": {}}
    for dump in dumps:
        for counts in tracer.op_metrics(dump["spans"], dump["counts"]).values():
            for k, v in counts.items():
                totals[k] = totals.get(k, 0) + v
        for k, v in dump["caches"].items():
            caches[k] = max(caches.get(k, 0), v)
        seen["installed"].update(dump["installed"])
        seen["missing"].update(dump["missing"])
        for k, v in dump["errors"].items():
            seen["errors"][k] = seen["errors"].get(k, 0) + v
    seen["installed"].update(caches)

    n = max(len(traced), 1)
    out = {k: v / n for k, v in totals.items()}
    ip = "vectors.inner_product"
    known = totals.get(f"{ip}.calls", 0) - totals.get(f"{ip}.disjoint_unknown", 0)
    if known:
        out[f"{ip}.disjoint_support_ratio"] = totals.get(f"{ip}.disjoint", 0) / known
    elif totals.get(f"{ip}.calls", 0):
        out[f"{ip}.disjoint_support_ratio"] = None  # no call's vector layout was known
    out.update({f"step.{k}.p50_s": v for k, v in step_medians(plain).items()})
    ratios = [t / p - 1 for p, t in pairs if p > 0]
    out["trace.overhead_ratio"] = statistics.median(ratios) if ratios else 0.0
    out.update(caches)
    return out, seen


def per_layer_result(values: dict, installed: set) -> tuple[dict, dict, list]:
    """The per-layer metrics to print, the absent ones with the reason, and
    the ones that read 0 because this workload does not run them."""
    metrics, absent, not_run = {}, {}, []
    for m in SPEC["per_layer"]:
        name, source = m["name"], tracer.metric_source(m["name"])
        if source is not None and source not in installed:
            absent[name] = f"{source} was not traced"
        elif name in values and values[name] is None:
            absent[name] = "no value is defined from what was traced"
        elif name in values:
            metrics[name] = values[name]
        else:  # a traced function never called, or a step not in this workload
            metrics[name] = 0.0
            not_run.append(name)
    return metrics, absent, not_run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measuring time; the round under way when it ends is finished")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny targets, for the smoke test")
    ap.add_argument("--corrupt", action="store_true",
                    help="fault injection: corrupt each synthesized grid before verify")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qlatin", "__init__.py")):
        print(f"error: no qlatin sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_root = OUT / f"trace-{tag}"
    shutil.rmtree(trace_root, ignore_errors=True)

    machine = machine_facts()
    workload = WORKLOADS[args.workload](args.seed, args.smoke, args.corrupt)
    measure_setup(workload, 1)  # may compile bytecode in a fresh checkout; not counted
    # half the probes before the ops and half after, so one slow spell of
    # the shared host weighs less
    setup_samples = measure_setup(workload, SETUP_PROBES)
    workload.prepare()

    tr = tracer.Tracer() if args.trace else None
    ops: list[Op] = []
    plain: list[Op] = []
    traced: list[tuple[int, Op]] = []
    pairs: list[tuple[float, float]] = []
    samples: list = []  # [target, seconds] of each plain op, for the report file
    digest = hashlib.sha256()
    rounds = 0
    start = clock()
    deadline = start + args.seconds
    while rounds == 0 or clock() < deadline:
        for target in workload.cycle():
            if tr is None:
                op = run_one(workload, target, None, len(ops), trace_root)
                ops.append(op)
            else:
                op_id = len(ops)
                order = (False, True) if len(pairs) % 2 == 0 else (True, False)
                got = {}
                for traced_run in order:
                    got[traced_run] = run_one(workload, target, tr if traced_run else None, op_id, trace_root)
                    ops.append(got[traced_run])
                op = got[False]
                traced.append((op_id, got[True]))
                pairs.append((op.seconds, got[True].seconds))
            plain.append(op)
            samples.append([target, op.seconds])
            if rounds == 0:
                out = op.output() if callable(op.output) else op.output
                digest.update(hashlib.sha256(out or b"").digest())
            for kept in ops[-2:]:
                kept.output = None  # holds a grid; keeping it would grow this process
        rounds += 1
    elapsed = clock() - start
    setup_samples += measure_setup(workload, SETUP_PROBES)

    failed = [op for op in ops if not op.ok]
    times = [op.seconds for op in plain]
    op_tail = tail(times)
    usage = resource.getrusage(resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN)
    machine["loadavg_end"] = list(os.getloadavg())

    end_to_end = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(plain) / elapsed,
        "op_p50_s": statistics.median(times),
        "op_tail_s": op_tail["value"],
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "corrupt": args.corrupt,
        "cycle": list(getattr(workload, "ms", ())),
        "rounds": rounds,
        "elapsed_s": elapsed,
        "attempted": len(ops),
        "failed": len(failed),
        "failed_ratio": len(failed) / len(ops),
        "failures": [op.error for op in failed[:5]],
        "op_tail": op_tail,
        "steps_p50_s": step_medians(plain),
        "digest_first_round": digest.hexdigest(),
        "setup_samples_s": setup_samples,
        "machine": machine,
    }
    if workload.in_process:
        report["caches"] = tracer.cache_sizes()

    if tr is None:
        metrics = {m["name"]: end_to_end[m["name"]] for m in SPEC["end_to_end"]}
        report["end_to_end"] = metrics
    else:
        # traced ops share the run's time, so end-to-end figures come from --trace 0
        values, seen = layer_metrics(workload, tr, traced, plain, pairs)
        values["bench.failed_ratio"] = report["failed_ratio"]
        metrics, absent, not_run = per_layer_result(values, seen["installed"])
        report["caches"] = {k: v for k, v in values.items() if k.startswith("cache.")}
        report["per_layer"] = metrics
        report["absent_metrics"] = absent
        report["zero_not_run"] = not_run
        report["untraced_functions"] = sorted(seen["missing"])
        report["tracer_errors"] = seen["errors"]
        if workload.in_process:
            spans_path = OUT / f"spans-{tag}.json"
            tr.dump(str(spans_path))
            report["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            report["spans_dir"] = str(trace_root.relative_to(ROOT))

    grid_path = getattr(workload, "grid_path", None)
    if grid_path is not None and grid_path.exists():
        grid_path.unlink()
    with open(OUT / f"report-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({**report, "samples": samples}, fh, indent=2)
    print(json.dumps(report, indent=2))
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in SPEC["per_layer" if args.trace else "end_to_end"] if m["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
