import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlatin
from qlatin import algebraic, claims, cli, qls_core
from qlatin.algebraic import sqrt_rational
from qlatin.cli import main
from qlatin.generators import PARAM_MAX_SIZE, parse_generator_id, realize_generator
from qlatin.qls_core import QLSGrid, grid_from_json, grid_to_json
from qlatin.synthesis import MAX_M, execute_plan, plan_for
from qlatin.vectors import QVector

from test_qls_core import _JSON_VALUES, _mutate, _reference_parse


# grids that repeat a key, once at the top and once in a cell; each would
# otherwise be accepted (the first counts to 1, the second verifies)
_REPEATED_KEYS = (
    '{"order":1,"provenance":"x","provenance":"","cells":[[{"dim":1,"entries":[[[1,1,1]]]}]]}',
    '{"order":1,"provenance":"","cells":[[{"dim":1,"entries":[[]],"entries":[[[1,1,1]]]}]]}',
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_gen_verify_round_trip(self, capsys, tmp_path):
        for gid in ("H(3)", "Hprime(6)", "W0", "Wk(2)", "W(5,6)", "A(1/2)"):
            code, out, _ = run_cli(capsys, "gen", gid)
            assert code == 0
            path = tmp_path / "grid.json"
            path.write_text(out)
            code, out, err = run_cli(capsys, "verify", str(path))
            assert code == 0, err
            assert out.startswith("OK")

    def test_gen_is_byte_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "gen", "W(5,6)")
        _, second, _ = run_cli(capsys, "gen", "W(5,6)")
        assert first == second

    def test_gen_pretty_format(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "H(0)", "--format", "pretty")
        assert code == 0
        assert out.startswith("order 4") and "|0>" in out

    def test_unknown_generator_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "gen", "Q(7)")
        assert code == 2 and "error:" in err


class TestPipes:
    def test_cardinality_from_stdin(self, capsys, monkeypatch):
        _, grid_json, _ = run_cli(capsys, "gen", "W(5,6)")
        monkeypatch.setattr("sys.stdin", io.StringIO(grid_json))
        code, out, _ = run_cli(capsys, "cardinality", "-")
        assert code == 0 and out.strip() == "16"

    def test_verify_from_stdin(self, capsys, monkeypatch):
        _, grid_json, _ = run_cli(capsys, "gen", "H(5)")
        monkeypatch.setattr("sys.stdin", io.StringIO(grid_json))
        code, out, _ = run_cli(capsys, "verify", "-")
        assert code == 0 and out.startswith("OK")


class TestSynth:
    def test_synth_pipeline(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        code, out, err = run_cli(
            capsys, "synth", "--m", "2", "--c", "57", "--plan-out", str(plan_path)
        )
        assert code == 0
        grid = grid_from_json(out)
        assert grid.order == 8
        plan = json.loads(plan_path.read_text())
        assert plan["target_c"] == 57 and plan["regime"] == "QLS8-c57"
        assert err == ""  # plan went to the file, not stderr

    def test_synth_plan_to_stderr_by_default(self, capsys):
        code, out, err = run_cli(capsys, "synth", "--m", "2", "--c", "12")
        assert code == 0
        assert json.loads(err)["target_c"] == 12
        assert grid_from_json(out).order == 8

    def test_synth_output_feeds_verify_and_cardinality(self, capsys, monkeypatch, tmp_path):
        code, out, _ = run_cli(capsys, "synth", "--m", "3", "--c", "100")
        assert code == 0
        path = tmp_path / "g.json"
        path.write_text(out)
        code, out2, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        code, out3, _ = run_cli(capsys, "cardinality", str(path))
        assert code == 0 and out3.strip() == "100"

    def test_environment_does_not_change_the_answer(self, capsys, tmp_path):
        # the trial division bound is a constant: a variable in the
        # environment, such as the bound's old override, changes nothing
        _, out, _ = run_cli(capsys, "synth", "--m", "2", "--c", "64")
        path = tmp_path / "g.json"
        path.write_text(out)
        src = os.path.dirname(os.path.dirname(qlatin.__file__))
        env = {**os.environ, "PYTHONPATH": src, "QLS_TRIAL_DIVISION_BOUND": "2"}
        done = subprocess.run(
            [sys.executable, "-m", "qlatin.cli", "verify", str(path)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("OK: order 8")

    def test_synth_is_byte_deterministic(self, capsys):
        _, first, err1 = run_cli(capsys, "synth", "--m", "2", "--c", "40")
        _, second, err2 = run_cli(capsys, "synth", "--m", "2", "--c", "40")
        assert first == second and err1 == err2

    def test_impossible_target_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "synth", "--m", "3", "--c", "13")
        assert code == 2
        assert "impossible" in err

    def test_out_of_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "synth", "--m", "2", "--c", "100")
        assert code == 2 and "error:" in err


class TestVerifyFailures:
    @pytest.mark.parametrize("zero", [{}, ""], ids=["object", "string"])
    def test_zero_coordinate_has_one_encoding(self, capsys, tmp_path, zero):
        # an order-2 square whose zero coordinates are written as {} or ""
        _, out, _ = run_cli(capsys, "gen", "A(0)")
        obj = json.loads(out)
        for row in obj["cells"]:
            for cell in row:
                cell["entries"] = [t if t else zero for t in cell["entries"]]
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps(obj))
        for command in ("verify", "cardinality"):
            code, out, err = run_cli(capsys, command, str(path))
            assert code == 2 and out == "" and err.startswith("error:"), (command, err)

    def test_inner_product_the_reader_cannot_factor_names_the_pair(self, capsys, tmp_path):
        # a readable order-2 grid of units whose row-0 inner product has the
        # radicand 1000036000099, which needs a trial divisor over the bound:
        # the failure still names the pair
        def unit(p):
            return QVector([sqrt_rational(Fraction(p, p + 1)), sqrt_rational(Fraction(1, p + 1))])

        u, v = unit(1000003), unit(1000033)
        path = tmp_path / "large.json"
        path.write_text(grid_to_json(QLSGrid([[u, v], [v, u]])))
        for command in ("verify", "cardinality"):
            got = run_cli(capsys, command, str(path))
            assert got == (1, "", "FAIL: row 0: cells 0 and 1 are not orthogonal\n"), command

    def test_corrupted_grid_exits_1(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "gen", "H(0)")
        obj = json.loads(out)
        # duplicate one cell inside a row: orthogonality breaks, schema stays valid
        obj["cells"][0][1] = obj["cells"][0][0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 1 and "FAIL" in err
        code, _, err = run_cli(capsys, "cardinality", str(path))
        assert code == 1

    def test_failing_cardinality_verifies_once(self, capsys, tmp_path, monkeypatch):
        _, out, _ = run_cli(capsys, "gen", "H(0)")
        obj = json.loads(out)
        row = obj["cells"][0]
        row[0], row[1] = row[1], row[0]
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps(obj))
        _, _, verify_err = run_cli(capsys, "verify", str(path))
        calls = []

        def counted(g):
            calls.append(g)
            return qls_core.verify_qls(g)

        monkeypatch.setattr(cli, "verify_qls", counted)
        code, out, err = run_cli(capsys, "cardinality", str(path))
        assert (code, out, len(calls)) == (1, "", 1)
        assert err == verify_err and err.startswith("FAIL: ")

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{this is not json")
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2 and "error:" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "/nonexistent/grid.json")
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            # JSON true must not pass as the integer 1: in order, dim, a triple, all three
            '{"order":true,"provenance":"","cells":[[{"dim":1,"entries":[[[1,1,1]]]}]]}',
            '{"order":1,"provenance":"","cells":[[{"dim":true,"entries":[[[1,1,1]]]}]]}',
            '{"order":1,"provenance":"","cells":[[{"dim":1,"entries":[[[true,1,1]]]}]]}',
            '{"order":true,"provenance":"","cells":[[{"dim":true,"entries":[[[true,1,1]]]}]]}',
            # nesting deeper than the recursion limit
            "[" * 100_000 + "]" * 100_000,
            # a zero coordinate is written [] and only []
            '{"order":1,"provenance":"","cells":[[{"dim":1,"entries":[{}]}]]}',
            '{"order":1,"provenance":"","cells":[[{"dim":1,"entries":[""]}]]}',
            # a triple is a list, not an object or a string
            '{"order":1,"provenance":"","cells":[[{"dim":1,"entries":[[{"a":1,"b":1,"c":1}]]}]]}',
            '{"order":1,"provenance":"","cells":[[{"dim":1,"entries":[["abc"]]}]]}',
            # a repeated key: json.loads would keep the last value, so one
            # grid would have many encodings
            *_REPEATED_KEYS,
        ],
        ids=[
            "order-true", "dim-true", "triple-true", "all-true", "deep-nesting",
            "object-coordinate", "string-coordinate", "object-triple", "string-triple",
            "repeated-provenance", "repeated-entries",
        ],
    )
    def test_hostile_json_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "hostile.json"
        path.write_text(text)
        for command in ("verify", "cardinality"):
            code, out, err = run_cli(capsys, command, str(path))
            assert code == 2 and out == "" and err.startswith("error:"), (command, err)
            assert err.count("\n") == 1, (command, err)

    @pytest.mark.parametrize("text,key", zip(_REPEATED_KEYS, ("provenance", "entries")))
    def test_repeated_key_is_named(self, capsys, tmp_path, text, key):
        path = tmp_path / "repeated.json"
        path.write_text(text)
        assert run_cli(capsys, "cardinality", str(path)) == (2, "", f"error: grid JSON repeats the key '{key}'\n")
        TestFuzzedGridFiles._check(text)

    def test_unfactorable_radicand_exits_2_with_a_short_line(self, capsys, monkeypatch):
        # a lower trial-division bound fails the same way in milliseconds;
        # A(1e20)'s radicand is under the bit cap, so it reaches that bound
        monkeypatch.setattr(algebraic, "TRIAL_DIVISION_BOUND", 100)
        for gid in ("A(1e20)", "A(1e2000)", "A(1e4000)"):
            code, out, err = run_cli(capsys, "gen", gid)
            assert code == 2 and out == "" and err.count("\n") == 1, (gid, err)
            assert err.startswith("error: cannot factor") and len(err) < 200, (gid, err)

    def test_radicand_over_the_bit_cap_exits_2_naming_the_cap(self, capsys):
        # A(1e4000) needs sqrt(1/(1 + 10^8000)): a 26576-bit radicand,
        # refused by size before any trial division
        code, out, err = run_cli(capsys, "gen", "A(1e4000)")
        assert (code, out) == (2, "")
        assert err == (
            "error: cannot factor a 26576-bit radicand: "
            f"exceeds the cap of {algebraic.RADICAND_MAX_BITS} bits\n"
        )

    @pytest.mark.parametrize(
        "param,size",
        [("1e5000", 5006), ("7" * 5000, 5000), ("-2.5E-99999999999", 100000000016)],
        ids=["exponent", "digits", "huge-exponent"],
    )
    def test_long_generator_parameter_exits_2_naming_its_size(self, capsys, param, size):
        # refused before the value is built, whatever str() or int() allow
        code, out, err = run_cli(capsys, "gen", f"W(1,{param})")
        assert (code, out) == (2, "")
        assert err == (
            f"error: generator parameter of size {size} (characters plus exponent) "
            f"exceeds the bound {PARAM_MAX_SIZE}\n"
        )

    def test_parameter_at_the_size_bound_is_named_in_full(self):
        gid = parse_generator_id(f"A(1e{PARAM_MAX_SIZE - 6})")
        assert gid.canonical() == "A(1" + "0" * (PARAM_MAX_SIZE - 6) + ")"


def _reference_rejects(text: str) -> bool:
    try:
        _reference_parse(text)
    except ValueError:
        return True
    return False


class TestFuzzedGridFiles:
    """verify and cardinality on mutated grid files: exit 0, 1 or 2, exit 2
    exactly when the json.loads reference rejects the text, and a one-line
    stderr with no traceback."""

    bases = {
        "W(5,6)": grid_to_json(realize_generator("W(5,6)")),
        "synth 2 40": grid_to_json(execute_plan(plan_for(2, 40))),
    }

    @given(
        st.sampled_from(sorted(bases)),
        st.integers(0, 10_000),
        st.integers(0, 3),
        st.text(alphabet='[]{}",:-0123456789tx ', max_size=4),
    )
    @settings(deadline=None, max_examples=40)
    def test_mutated_text(self, base, at, cut, insert):
        text = self.bases[base]
        at %= len(text)
        self._check(text[:at] + insert + text[at + cut:])

    @given(st.lists(st.integers(0, 50), max_size=7), _JSON_VALUES, st.booleans())
    @settings(deadline=None, max_examples=40)
    def test_mutated_structure(self, path, value, compact):
        obj = _mutate(json.loads(self.bases["W(5,6)"]), path, value)
        self._check(json.dumps(obj, separators=(",", ":") if compact else None))

    @staticmethod
    def _check(text):
        rejected = _reference_rejects(text)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "grid.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            for command in ("verify", "cardinality"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([command, path])
                err = err.getvalue()
                assert code in (0, 1, 2), (command, code)
                assert (code == 2) == rejected, (command, code, err)
                if code:
                    assert err.count("\n") == 1 and err.endswith("\n"), err
                    assert "Traceback" not in err
                else:
                    assert err == ""


class TestRangeAndClaims:
    def test_range_output(self, capsys):
        code, out, _ = run_cli(capsys, "range", "--m", "2")
        assert code == 0 and out == "[8,64] excluding 9\n"
        code, out, _ = run_cli(capsys, "range", "--m", "4")
        assert code == 0 and out == "[16,256] excluding 17\n"

    def test_range_rejects_small_m(self, capsys):
        code, _, err = run_cli(capsys, "range", "--m", "1")
        assert code == 2

    @pytest.mark.parametrize("m", [MAX_M + 1, 2000])
    def test_m_above_max_exits_2(self, capsys, m):
        for argv in (("range", "--m", str(m)), ("synth", "--m", str(m), "--c", "9000")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "", argv
            assert err == f"error: m must be at most {MAX_M} (order {4 * MAX_M}), got {m}\n"

    def test_claims_subcommand(self, capsys):
        code, out, _ = run_cli(
            capsys, "claims", "--witness-bound", "2", "--m", "2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert all(item["status"] == "pass" for item in payload)

    def test_witness_bound_moves_only_the_separations(self, capsys):
        # the identity claims are proved on a fixed grid, so the bound only
        # resizes the witness grid of the three separation claims
        runs = []
        for bound in ("1", "4"):
            code, out, _ = run_cli(capsys, "claims", "--witness-bound", bound, "--format", "json")
            assert code == 0
            runs.append({item["claim_id"]: item for item in json.loads(out)})
        low, high = runs
        assert low.keys() == high.keys() and len(low) == 34
        moved = {cid for cid in low if low[cid] != high[cid]}
        assert moved == {"separations/c-vs-a-and-b", "separations/d-vs-a-and-b", "separations/within-family"}
        assert {low[cid]["kind"] for cid in moved} == {"witness"}

    @pytest.mark.parametrize(
        "argv,err",
        [
            # no witnesses: every witness claim would pass over zero parameters
            (("--witness-bound", "0"), "witness bound must be an integer >= 1, got 0"),
            (("--witness-bound", "-3"), "witness bound must be an integer >= 1, got -3"),
            (("--m", "1"), "m must be an integer >= 2, got 1"),
            (("--m", "2", "--m", str(MAX_M + 1)),
             f"m must be at most {MAX_M} (order {4 * MAX_M}), got {MAX_M + 1}"),
            # unbounded work: the witness claims grow as the bound's fourth power
            (("--witness-bound", "100000"), f"witness bound must be at most {claims.MAX_WITNESS_BOUND}, got 100000"),
            # each m once: a repeated m would be swept and counted twice
            (("--m", "3", "--m", "3"), "sweep_m names m = 3 twice"),
        ],
    )
    def test_claims_rejects_senseless_arguments(self, capsys, argv, err):
        # rejected before any claim runs: nothing on stdout
        assert run_cli(capsys, "claims", *argv) == (2, "", f"error: {err}\n")

    def test_claims_defaults_come_from_claim_config(self, capsys, monkeypatch):
        # an option left out is left to ClaimConfig, which holds the one copy
        # of each default
        seen = []

        def run_all_claims(config):
            seen.append(config)
            return [claims.ClaimResult("stub", "pass", "exact", "")]

        monkeypatch.setattr(claims, "run_all_claims", run_all_claims)
        assert run_cli(capsys, "claims")[0] == 0
        assert run_cli(capsys, "claims", "--m", "2")[0] == 0
        assert seen == [claims.ClaimConfig(), claims.ClaimConfig(sweep_m=(2,))]

    def test_bad_arguments_exit_2(self, capsys):
        assert run_cli(capsys, "synth", "--m", "2")[0] == 2  # missing --c
        assert run_cli(capsys, "nonsense")[0] == 2
        assert run_cli(capsys)[0] == 2


# Runs one command in a fresh interpreter and prints its exit code, the
# qlatin modules it loaded and whether it loaded dataclasses.
_LOADED_BY = """
import json, sys
from qlatin import cli
code = cli.main(sys.argv[1:])
loaded = sorted(k for k in sys.modules if k.startswith("qlatin"))
print(json.dumps([code, loaded, "dataclasses" in sys.modules]))
"""

_GRID_IO = ["qlatin", "qlatin.algebraic", "qlatin.cli", "qlatin.qls_core", "qlatin.vectors"]


def loaded_by(*argv):
    src = os.path.dirname(os.path.dirname(qlatin.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _LOADED_BY, *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestSameBytesInEveryProcess:
    """Values hash by address, which differs from process to process; what a
    command prints must not."""

    @pytest.mark.parametrize(
        "argv",
        [("synth", "--m", "4", "--c", "200"), ("claims", "--format", "json", "--witness-bound", "2", "--m", "2")],
        ids=["synth", "claims"],
    )
    def test_output_is_identical_across_processes(self, argv):
        src = os.path.dirname(os.path.dirname(qlatin.__file__))
        runs = []
        for seed in ("0", "4242"):
            done = subprocess.run(
                [sys.executable, "-m", "qlatin.cli", *argv],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, timeout=120,
            )
            runs.append((done.returncode, done.stdout, done.stderr))
        assert runs[0][0] == 0 and runs[0][1], runs[0][2]
        assert runs[0] == runs[1]


class TestStartup:
    """A process loads only the modules its command runs."""

    @pytest.mark.parametrize("command", ["verify", "cardinality"])
    def test_grid_commands_load_grid_io_only(self, tmp_path, command):
        path = tmp_path / "grid.json"
        path.write_text(grid_to_json(realize_generator("H(3)")))
        assert loaded_by(command, str(path)) == [0, _GRID_IO, False]

    @pytest.mark.parametrize(
        "argv", [("range", "--m", "2"), ("synth", "--m", "2", "--c", "24"), ("gen", "H(3)")]
    )
    def test_other_commands_skip_claims(self, argv):
        code, loaded, dataclasses = loaded_by(*argv)
        assert code == 0 and "qlatin.claims" not in loaded and not dataclasses
