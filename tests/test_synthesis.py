import itertools
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlatin import claims, generators, synthesis
from qlatin.generators import realize_generator
from qlatin.qls_core import (
    QLSGrid,
    cardinality,
    count_new_elements,
    distinct_elements,
    grid_from_json,
    grid_to_json,
    verify_qls,
)
from qlatin.vectors import tensor, vec_scale
from qlatin.synthesis import (
    HIGH_SLOT1,
    S1_HIGH,
    S1_LOW,
    MAX_M,
    CardinalityRangeError,
    ImpossibleCardinalityError,
    SynthPlan,
    _choices,
    _pick_per_diagonal,
    execute_plan,
    execute_plans,
    impossibility_message,
    plan_for,
    plan_qls4m,
    plan_qls8,
    reachable_sums,
    set_bits,
    synth,
    valid_cardinalities,
)


class TestReachableSums:
    def test_against_brute_force(self):
        # independent enumeration for small multiplicities: bit s is set
        # exactly when s is a sum, and no bit lies above the largest sum
        for values, count in ((S1_LOW, 3), (S1_HIGH, 3), (S1_LOW, 2), (S1_HIGH, 0)):
            brute = {sum(t) for t in itertools.product(values, repeat=count)}
            mask = reachable_sums(values, count)
            assert mask.bit_length() == max(brute) + 1
            for s in range(max(brute) + 1):
                assert mask >> s & 1 == (s in brute), (values, count, s)

    def test_large_count_fills_in_a_loop(self):
        # a cold count far above any plan's fills counts without recursing
        reachable_sums.clear()
        assert reachable_sums((0, 1), 3000) == (1 << 3001) - 1
        assert reachable_sums((0, 2, 3), 3000) == ((1 << 9001) - 1) ^ 2
        # the one store holds counts 0..3000 of each tuple, and reports it
        assert len(reachable_sums) == 2 * 3001

    def test_set_bits(self):
        assert set_bits(0) == frozenset()
        assert set_bits(0b1011) == {0, 1, 3}
        assert set_bits(0b1011, 5) == {5, 6, 8}

    def test_low_set_shape(self):
        for m in (3, 4, 5):
            low = set_bits(reachable_sums(S1_LOW, m))
            window = frozenset(range(0, 16 * m - 7))
            assert low & window == window - {1, 16 * m - 15}
            assert low - window == {16 * m}

    def test_high_set_shape(self):
        for m in (3, 4, 5):
            assert set_bits(reachable_sums(S1_HIGH, m)) == frozenset(range(0, 16 * m + 1)) - {
                1, 3, 5, 7, 9, 11, 13,
            }


class TestPickPerDiagonal:
    @given(
        st.lists(st.integers(min_value=0, max_value=12), max_size=5),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=50),
    )
    @settings(deadline=None)
    def test_first_feasible_tuple_by_brute_force(self, values, m, rem):
        # option i has value values[i]; equal values stay distinguishable
        options = tuple((v, i) for i, v in enumerate(values))
        first = next(
            (t for t in itertools.product(options, repeat=m) if sum(v for v, _ in t) == rem),
            None,
        )
        if first is None:
            with pytest.raises(RuntimeError):
                _pick_per_diagonal(_choices(options), m, rem)
        else:
            assert _pick_per_diagonal(_choices(options), m, rem) == [i for _, i in first]


class TestPlanning:
    def test_plans_are_deterministic(self):
        a = plan_for(3, 50).to_json_dict()
        b = plan_for(3, 50).to_json_dict()
        assert a == b

    def test_low_plan_regression(self):
        plan = plan_for(3, 50)
        assert plan.regime == "low"
        assert plan.diagonals == (
            ("H(0)", "H(0)", "H(0)"),
            ("H(0)", "H(0)", "W(7,8)"),
            ("H(0)", "H(6)", "W(7,8)"),
        )
        assert plan.witness["total"] == 50

    def test_high_plan_regression(self):
        plan = plan_for(3, 113)
        assert plan.regime == "high"
        assert plan.diagonals == (
            ("W0", "W0", "W(7,8)"),
            ("W0", "Hprime(2)", "W(7,8)"),
            ("W0", "Wk(1)", "W(7,8)"),
        )
        assert plan.witness["x1"] == [0, 2, 15]

    def test_qls8_table_row_selection(self):
        assert plan_qls8(8).diagonals == (("H(0)", "H(0)"), ("H(0)", "H(0)"))
        assert plan_qls8(17).witness["base"] == 12  # 8 + 9 is not expressible
        assert plan_qls8(41).witness == {"base": 36, "new_in_last_block": 5, "total": 41}

    def test_qls8_special_and_high(self):
        assert plan_qls8(57).regime == "QLS8-c57"
        high = plan_qls8(49)
        assert high.regime == "QLS8-high"
        assert high.witness["total"] == 49

    def test_special_square_regimes(self):
        # only order 8 has a special square; the paper's order-12 target
        # 105 is met by the low regime
        plan = plan_qls4m(3, 105)
        assert plan.regime == "low"
        assert plan.diagonals == (
            ("H(0)", "H(5)", "W(7,8)"),
            ("H(1)", "W(5,6)", "W(7,8)"),
            ("H(1)", "W(5,6)", "W(7,8)"),
        )
        assert plan_for(2, 57).regime == "QLS8-c57"

    def test_cold_planning_memory_at_max_m(self):
        # a cold plan at the largest m, low and high regime, holds masks
        # only: no per-count set of sums
        reachable_sums.clear()
        synthesis._low_choices.cache_clear()
        tracemalloc.start()
        try:
            assert plan_for(MAX_M, 4096).regime == "low"
            assert plan_for(MAX_M, 16300).regime == "high"
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"peak {peak} bytes"

    def test_regime_boundary(self):
        # low tops out at 16m^2 - 8m - 8; everything above is high
        assert plan_for(3, 112).regime == "low"
        assert plan_for(3, 113).regime == "high"
        assert plan_for(3, 120).regime == "high"

    def test_slot1_binding_is_measured(self):
        # each high-regime block adds exactly its key's count of classes
        # beyond W0, so a slip in the table fails here; ascending, since
        # the planner prefers the smaller count
        assert S1_HIGH == tuple(HIGH_SLOT1) == (0, 2, 4, 6, 8, 12, 14, 15, 16)
        base = distinct_elements(realize_generator("W0"))
        for count, name in HIGH_SLOT1.items():
            assert count_new_elements(realize_generator(name), base) == count, name

    def test_planning_realizes_no_generator(self, monkeypatch):
        # which block adds how many classes is data: only execute_plan builds
        calls = []
        monkeypatch.setattr(synthesis, "realize_generator", calls.append)
        for m in (2, 3, 4):
            rng = valid_cardinalities(m)
            for c in range(rng.lo, rng.hi + 1):
                if c != rng.excluded:
                    plan_for(m, c)
        assert calls == []

    def test_plans_name_exactly_the_kept_blocks(self):
        # the realize table keeps every name some plan holds, and no other
        plans = [p for m in range(2, 9) for p in _sweep_plans(m)] + [plan_qls8(57)]
        plans += [plan_for(m, c) for m in (16, MAX_M) for c in range(4 * m, 16 * m * m + 1, 8 * m + 1)]
        names = {n for diags in [p.diagonals for p in plans] + [claims._C105_DIAGONALS] for d in diags for n in d}
        assert names == generators._KEPT and len(names) == 49

    def test_plan_json_key_order(self):
        keys = list(plan_for(2, 20).to_json_dict())
        assert keys == ["m", "target_c", "regime", "diagonals", "witness"]


class TestErrors:
    def test_impossible_cardinality(self):
        for m in (2, 3, 5):
            with pytest.raises(ImpossibleCardinalityError, match="impossible"):
                plan_for(m, 4 * m + 1)
        assert "impossible" in impossibility_message(3)

    def test_out_of_range(self):
        with pytest.raises(CardinalityRangeError):
            plan_for(2, 7)
        with pytest.raises(CardinalityRangeError):
            plan_for(2, 65)
        with pytest.raises(CardinalityRangeError):
            plan_for(3, 145)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            plan_for(1, 4)
        with pytest.raises(ValueError):
            plan_for(2, True)  # bool is not an acceptable count
        with pytest.raises(ValueError):
            plan_qls4m(2, 40)  # the order-8 planner owns m = 2

    def test_execute_rejects_foreign_blocks(self):
        plan = SynthPlan(
            m=2,
            target_c=8,
            regime="QLS8-low",
            diagonals=(("A(1)", "H(0)"), ("H(0)", "H(0)")),
            witness={},
        )
        with pytest.raises(ValueError):
            execute_plan(plan)

    @pytest.mark.parametrize(
        "diagonals,lengths",
        [((("H(0)",) * 3,) * 2, "[3, 3]"), ((("H(0)",) * 4,) * 3, "[4, 4, 4]")],
    )
    def test_execute_rejects_a_malformed_plan(self, monkeypatch, diagonals, lengths):
        # refused before any block is realized
        monkeypatch.setattr(synthesis, "realize_generator", lambda gid: pytest.fail(gid))
        plan = SynthPlan(3, 12, "x", diagonals, {})
        want = rf"3 diagonals of 3 names, got lengths {re.escape(lengths)}"
        with pytest.raises(ValueError, match=want):
            execute_plan(plan)


class TestExecution:
    @pytest.mark.parametrize("m,c", [(2, 8), (2, 33), (2, 57), (3, 12), (3, 105), (3, 144)])
    def test_synth_hits_the_target(self, m, c):
        plan, grid = synth(m, c)
        assert grid.order == 4 * m
        assert verify_qls(grid).ok
        assert cardinality(grid).cardinality == c == plan.witness["total"]

    def test_order8_low_layout(self):
        plan, grid = synth(2, 24)
        assert plan.regime == "QLS8-low" and plan.witness == {"base": 16, "new_in_last_block": 8, "total": 24}
        assert grid.order == 8 and cardinality(grid).cardinality == 24

    @pytest.fixture
    def builds(self, monkeypatch):
        """Each block built from an empty realize table on, in order."""
        built = []
        monkeypatch.setattr(generators, "_REALIZE_CACHE", {})
        for tag, spec in generators._GENERATORS.items():
            build = lambda *args, make=spec.build: built.append(make(*args)) or built[-1]
            monkeypatch.setitem(generators._GENERATORS, tag, spec._replace(build=build))
        return built

    def test_each_generator_name_is_realized_once(self, builds):
        # in slot order, and once per process: a second execution builds none
        plan = plan_for(8, 500)
        names = [gid for diag in plan.diagonals for gid in diag]
        for _ in range(2):
            execute_plan(plan)
            assert len(names) == 64 and [g.provenance for g in builds] == list(dict.fromkeys(names))

    def test_each_generator_name_is_realized_once_per_batch(self, builds):
        # in slot order, plan by plan, as the plans of a loop would first meet it
        plans = [plan_for(8, 500), plan_for(3, 60), plan_for(8, 500), plan_for(2, 57)]
        assert len(list(execute_plans(plans))) == 4
        names = dict.fromkeys(n for plan in plans for diag in plan.diagonals for n in diag)
        assert [g.provenance for g in builds] == list(names)

    @pytest.mark.parametrize("m,c", [(3, 60), (8, 500), (16, 2000)])
    def test_each_block_is_shifted_once_per_diagonal(self, monkeypatch, m, c):
        # 16 tensor calls per distinct (diagonal, block), not 16 per slot
        plan = plan_for(m, c)
        calls = []

        def counted(u, v):
            calls.append(u)
            return tensor(u, v)

        monkeypatch.setattr(synthesis, "tensor", counted)
        grid = execute_plan(plan)
        distinct = sum(len(set(diag)) for diag in plan.diagonals)
        assert len(calls) == 16 * distinct < 16 * m * m
        # a block repeated on a diagonal shares its cell objects
        assert len({id(v) for row in grid.cells for v in row}) == 16 * distinct

    def test_provenance_mentions_the_target(self):
        _, grid = synth(2, 30)
        assert "c=30" in grid.provenance


def _sweep_plans(m: int) -> list[SynthPlan]:
    rng = valid_cardinalities(m)
    return [plan_for(m, c) for c in range(rng.lo, rng.hi + 1) if c != rng.excluded]


def _interleaved() -> list[SynthPlan]:
    return [p for pair in zip(_sweep_plans(2), _sweep_plans(3)) for p in pair]


class TestBatchExecution:
    @pytest.mark.parametrize(
        "plans", [_sweep_plans(2), _sweep_plans(3), _sweep_plans(4), _interleaved()],
        ids=["m=2", "m=3", "m=4", "m=2,3 interleaved"],
    )
    def test_a_batch_matches_lone_plans(self, plans):
        grids = list(execute_plans(plans))
        assert len(grids) == len(plans)
        for plan, grid in zip(plans, grids):
            lone = execute_plan(plan)
            assert grid.cells == lone.cells and grid.provenance == lone.provenance
            # a recount of a parsed copy shares no cell object with the batch
            again = grid_from_json(grid_to_json(grid))
            assert cardinality(grid).classes == cardinality(again).classes
            assert cardinality(again).cardinality == plan.target_c

    def test_a_batch_shares_shifted_blocks(self):
        # a block met again on the same diagonal, in any plan of the batch,
        # reuses its cells
        plans = _sweep_plans(3)
        grids = list(execute_plans(plans))
        cells = {id(v) for g in grids for row in g.cells for v in row}
        shifts = {(gid, j) for p in plans for j, diag in enumerate(p.diagonals) for gid in diag}
        assert len(cells) == 16 * len(shifts) < 16 * sum(len(set(d)) for p in plans for d in p.diagonals)

    @pytest.mark.parametrize(
        "bad",
        [
            plan_for(3, 70)._replace(target_c=71),
            SynthPlan(2, 8, "QLS8-low", (("A(1)", "H(0)"), ("H(0)", "H(0)")), {}),
            # blocks that are no QLS: H(0) with cell (0, 1) a copy of cell
            # (0, 0), and H(0) with cell (2, 3) halved; the rows H(0) shares
            # with the earlier grids of the batch are already verified
            SynthPlan(2, 8, "x", (("H(0)", "H(0)"), ("copy", "H(0)")), {}),
            SynthPlan(2, 8, "x", (("H(0)", "half"), ("H(0)", "H(0)")), {}),
        ],
        ids=["wrong target", "non-order-4 block", "non-orthogonal row", "non-unit cell"],
    )
    def test_a_bad_plan_mid_batch_raises_the_lone_error(self, monkeypatch, bad):
        h = [list(row) for row in realize_generator("H(0)").cells]
        copy = [row[:] for row in h]
        copy[0][1] = h[0][0]
        half = [row[:] for row in h]
        half[2][3] = vec_scale(h[2][3], Fraction(1, 2))
        fakes = {"copy": QLSGrid(copy), "half": QLSGrid(half)}
        monkeypatch.setattr(synthesis, "realize_generator", lambda gid: fakes.get(gid) or realize_generator(gid))
        with pytest.raises((RuntimeError, ValueError)) as lone:
            execute_plan(bad)
        good = [plan_for(2, 8), plan_for(3, 70)]
        batch = execute_plans(good + [bad, plan_for(3, 71)])
        for plan in good:
            assert next(batch).cells == execute_plan(plan).cells
        with pytest.raises(type(lone.value)) as got:
            next(batch)
        assert str(got.value) == str(lone.value)


class TestRanges:
    def test_descriptions(self):
        assert valid_cardinalities(2).describe() == "[8,64] excluding 9"
        assert valid_cardinalities(3).describe() == "[12,144] excluding 13"

    def test_contains(self):
        rng = valid_cardinalities(2)
        assert (rng.lo, rng.hi, rng.excluded) == (8, 64, 9)
        assert 57 in rng.specials

    def test_specials(self):
        assert valid_cardinalities(2).specials == frozenset({57})
        assert valid_cardinalities(3).specials == frozenset()
        assert 105 in valid_cardinalities(3).low_reachable
        assert valid_cardinalities(4).specials == frozenset()
