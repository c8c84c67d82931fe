"""Command-line front end: generate blocks, synthesize grids to a target
cardinality, verify and count grids from JSON, and run the claims suite.

Exit codes: 0 success, 1 verification or claim failure, 2 invalid arguments
or malformed input. Grid JSON uses the one schema shared with the library;
identical arguments produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

# only what grid I/O, verify and cardinality need; each other command
# imports its own modules, so a process loads only what it runs
from .qls_core import QLSGrid, cardinality, grid_from_json, grid_to_json, verify_qls
from .vectors import format_vector


def _read_grid(path: str) -> QLSGrid:
    if path == "-":
        return grid_from_json(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return grid_from_json(text)


def _grid_text(g: QLSGrid) -> str:
    lines = [f"order {g.order}" + (f"  [{g.provenance}]" if g.provenance else "")]
    for r, row in enumerate(g.cells):
        for c, v in enumerate(row):
            lines.append(f"  [{r}][{c}] {format_vector(v)}")
    return "\n".join(lines) + "\n"


def _emit_grid(g: QLSGrid, fmt: str) -> None:
    sys.stdout.write(grid_to_json(g) if fmt == "json" else _grid_text(g))


def _cmd_gen(args: argparse.Namespace) -> int:
    from .generators import realize_generator

    _emit_grid(realize_generator(args.generator), args.format)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from .synthesis import execute_plan, plan_for

    plan = plan_for(args.m, args.c)
    plan_json = json.dumps(plan.to_json_dict(), indent=2) + "\n"
    if args.plan_out:
        with open(args.plan_out, "w", encoding="utf-8") as fh:
            fh.write(plan_json)
    else:
        sys.stderr.write(plan_json)
    grid = execute_plan(plan)
    _emit_grid(grid, args.format)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _read_grid(args.input)
    report = verify_qls(g)
    if not report.ok:
        print(f"FAIL: {report.message}", file=sys.stderr)
        return 1
    print(f"OK: order {g.order} quantum Latin square")
    return 0


def _cmd_cardinality(args: argparse.Namespace) -> int:
    g = _read_grid(args.input)
    report = verify_qls(g)
    if not report.ok:
        print(f"FAIL: {report.message}", file=sys.stderr)
        return 1
    print(cardinality(g).cardinality)
    return 0


def _cmd_range(args: argparse.Namespace) -> int:
    from .synthesis import valid_cardinalities

    print(valid_cardinalities(args.m).describe())
    return 0


def _cmd_claims(args: argparse.Namespace) -> int:
    from .claims import ClaimConfig, report_json, report_text, run_all_claims

    # an option left out takes ClaimConfig's default
    settings = {}
    if args.witness_bound is not None:
        settings["witness_bound"] = args.witness_bound
    if args.m is not None:
        settings["sweep_m"] = tuple(args.m)
    results = run_all_claims(ClaimConfig(**settings))
    sys.stdout.write(report_json(results) if args.format == "json" else report_text(results))
    return 0 if all(r.status == "pass" for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlatin",
        description="construct, verify, and count quantum Latin squares exactly",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a named generator block as grid JSON")
    p.add_argument("generator", help='generator id, e.g. "H(3)", "W(5,6)", "W0", "Wk(2)", "A(1/2)"')
    p.add_argument("--format", choices=("json", "pretty"), default="json")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("synth", help="build a QLS(4m) with a prescribed cardinality")
    p.add_argument("--m", type=int, required=True, help="order is 4m")
    p.add_argument("--c", type=int, required=True, help="target cardinality")
    p.add_argument("--plan-out", help="write the plan JSON here instead of stderr")
    p.add_argument("--format", choices=("json", "pretty"), default="json")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("verify", help="check the QLS axioms on a grid JSON file")
    p.add_argument("input", help='grid JSON path, or "-" for stdin')
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cardinality", help="count phase classes of a grid JSON file")
    p.add_argument("input", help='grid JSON path, or "-" for stdin')
    p.set_defaults(func=_cmd_cardinality)

    p = sub.add_parser("range", help="describe the attainable cardinalities for order 4m")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_range)

    p = sub.add_parser("claims", help="re-derive and report every recorded claim")
    p.add_argument("--witness-bound", type=int)
    p.add_argument("--m", type=int, action="append", help="sweep order parameter; repeatable")
    p.add_argument("--format", choices=("json", "pretty"), default="pretty")
    p.set_defaults(func=_cmd_claims)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
