from fractions import Fraction

import gc
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlatin import qls_core, synthesis, vectors
from qlatin.algebraic import RadExt, sqrt_rational
from qlatin.generators import make_H, make_V, make_W, realize_generator
from qlatin.qls_core import (
    QLSGrid,
    RowQLR,
    VerificationReport,
    canonical_set,
    cardinality,
    cardinality_oracle,
    count_new_elements,
    distinct_elements,
    grid_from_json,
    grid_from_json_dict,
    grid_to_json,
    grid_to_json_dict,
    verify_qls,
    verify_row_qlr,
    _grid_from_canonical,
)
from qlatin.synthesis import execute_plan, execute_plans, plan_for, synth, valid_cardinalities
from qlatin.vectors import QVector, basis_vector, canonicalize, tensor, vec_scale

from test_algebraic import _over_the_cap_pair

F = Fraction


def cyclic_grid(n: int) -> QLSGrid:
    return QLSGrid(
        [[basis_vector(n, (i + j) % n) for j in range(n)] for i in range(n)],
        provenance=f"cyclic({n})",
    )


class TestVerification:
    def test_classical_cyclic_lift_passes(self):
        g = cyclic_grid(4)
        report = verify_qls(g)
        assert report.ok and report.message is None
        assert cardinality(g).cardinality == 4
        assert cardinality_oracle(g) == 4

    def test_repeated_cell_in_a_row_fails(self):
        cells = [[basis_vector(2, 0), basis_vector(2, 0)], [basis_vector(2, 1), basis_vector(2, 0)]]
        report = verify_qls(QLSGrid(cells))
        assert not report.ok
        assert report.location is not None and report.location[0] in ("row", "col")

    def test_non_unit_cell_fails_with_location(self):
        half = vec_scale(basis_vector(2, 0), F(1, 2))
        cells = [[half, basis_vector(2, 1)], [basis_vector(2, 1), basis_vector(2, 0)]]
        report = verify_qls(QLSGrid(cells))
        assert not report.ok and report.location == ("unit", 0, 0)

    def test_product_over_the_bit_cap_names_the_pair(self):
        # the two cells' inner product has a radicand over RADICAND_MAX_BITS;
        # arithmetic builds it, so the check names the pair instead of raising
        a, b = _over_the_cap_pair()
        u, v = QVector([sqrt_rational(a)]), QVector([sqrt_rational(b)])
        report = qls_core._check_lines("row", [(u, v)])
        assert report.location == ("row", 0, 0, 1)
        assert report.message == "row 0: cells 0 and 1 are not orthogonal"

    def test_orthogonal_but_sign_flipped_passes(self):
        g = QLSGrid(
            [
                [basis_vector(2, 0), vec_scale(basis_vector(2, 1), -1)],
                [basis_vector(2, 1), basis_vector(2, 0)],
            ]
        )
        assert verify_qls(g).ok
        assert cardinality(g).cardinality == 2  # -|1> and |1> share a class

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            QLSGrid([[basis_vector(2, 0)]])  # cell dim != order
        with pytest.raises(ValueError):
            QLSGrid([[basis_vector(2, 0), basis_vector(2, 1)]])  # not square
        with pytest.raises(ValueError):
            QLSGrid([])

    def test_cardinality_requires_a_valid_grid(self):
        cells = [[basis_vector(2, 0), basis_vector(2, 0)], [basis_vector(2, 1), basis_vector(2, 0)]]
        with pytest.raises(ValueError, match="not a QLS"):
            cardinality(QLSGrid(cells))


class TestRowRectangles:
    def test_v_rectangle_verifies(self):
        report = verify_row_qlr(make_V(0, 1))
        assert report.ok

    def test_repeated_rows_pass(self):
        row = [basis_vector(2, 0), basis_vector(2, 1)]
        # rows are individually orthonormal; columns are not checked
        assert verify_row_qlr(RowQLR([row, row])) == VerificationReport(ok=True)

    def test_non_orthogonal_row_fails(self):
        half = sqrt_rational(F(1, 2))
        v = QVector([half, half])
        report = verify_row_qlr(RowQLR([[v, v]]))
        assert not report.ok


class TestCounting:
    def test_known_generator_cardinalities(self):
        assert cardinality(make_H(0)).cardinality == 4
        assert cardinality(make_H(1)).cardinality == 8
        assert cardinality(make_W(5, 6)).cardinality == 16

    def test_distinct_elements_are_canonical(self):
        for v in distinct_elements(make_H(1)):
            assert canonicalize(v) == v

    def test_count_new_elements(self):
        base = distinct_elements(make_H(0))
        assert count_new_elements(make_H(0), base) == 0
        assert count_new_elements(make_H(0), frozenset()) == 4

    def test_canonical_set_merges_phases(self):
        v = QVector([F(3, 5), F(4, 5)])
        assert len(canonical_set([v, vec_scale(v, -1)])) == 1

    # leading coefficients whose sign needs exact intervals, and plain ones
    _pool = (
        RadExt({1: F(3, 5)}),
        sqrt_rational(F(1, 2)),
        RadExt({1: 1, 2: -1}),
        RadExt({2: F(1, 3), 3: F(-2, 7)}),
        RadExt({1: F(-1, 4), 5: F(1, 9), 6: 2}),
    )
    _negated = tuple(-e for e in _pool)

    @classmethod
    def _coefficient(cls, pick):
        # one shared object, an equal but distinct object, a shared negation,
        # or a fresh negation
        k, how = pick
        e = cls._pool[k]
        return (e, RadExt.from_triples(e.to_triples()), cls._negated[k], -e)[how]

    @given(
        st.lists(
            st.dictionaries(
                st.integers(0, 3),
                st.tuples(st.integers(0, len(_pool) - 1), st.integers(0, 3)),
                max_size=4,
            ),
            max_size=12,
        ),
        st.integers(1, 3),
    )
    @settings(deadline=None)
    def test_canonical_set_matches_canonicalize(self, picks, stride):
        cells = [QVector([self._coefficient(d[i]) if i in d else 0 for i in range(4)]) for d in picks]
        cells += [vec_scale(v, -1) for v in cells[::stride]]
        got = canonical_set(cells)
        assert got == frozenset(canonicalize(v) for v in cells)
        assert all(v.entries[0][1].sign() > 0 for v in got if v.entries)


# Work per call on a fresh copy of synth(m, c): verify_qls, then cardinality
# on the verified copy, then cardinality_oracle. A counter that a call does
# not name is held at zero. These are counts, not times, so a regression
# fails the same way on any host. A change that cuts work lowers a ceiling
# and says so in CHANGES.md; a ceiling may only fall, never be raised to pass.
# "eq" is zero because equal coefficients are one object, so every table and
# memo finds them by identity without running RadExt.__eq__.
WORK_CEILINGS = {
    (2, 40): {
        "verify": {"inner_product": 95, "eq": 0},
        "count": {"sign": 19, "neg": 18, "eq": 0},
        "oracle": {"mul": 24, "inner_product": 32, "eq": 0},
    },
    (4, 200): {
        "verify": {"inner_product": 451, "eq": 0},
        "count": {"sign": 39, "neg": 38, "eq": 0},
        "oracle": {"mul": 46, "inner_product": 108, "eq": 0},
    },
    (8, 500): {
        "verify": {"inner_product": 1139, "eq": 0},
        "count": {"sign": 90, "neg": 89, "eq": 0},
        "oracle": {"mul": 107, "inner_product": 648, "eq": 0},
    },
    (16, 2000): {
        "verify": {"inner_product": 4533, "eq": 0},
        "count": {"sign": 184, "neg": 183, "eq": 0},
        "oracle": {"mul": 216, "inner_product": 2600, "eq": 0},
    },
}


@pytest.mark.parametrize("target", sorted(WORK_CEILINGS), ids=lambda t: "synth(%d,%d)" % t)
def test_work_stays_under_its_ceiling(target, count_work):
    g = synth(*target)[1]
    copy = QLSGrid(g.cells)
    spent = {
        call: count_work(run, copy)
        for call, run in (("verify", verify_qls), ("count", cardinality), ("oracle", cardinality_oracle))
    }
    over = {
        (call, name): (n, WORK_CEILINGS[target][call].get(name, 0))
        for call, used in spent.items()
        for name, n in used.items()
        if n > WORK_CEILINGS[target][call].get(name, 0)
    }
    assert not over, f"(work, ceiling) above the ceiling: {over}"


def test_a_recount_computes_no_sign_negation_or_square(count_work):
    # each is stored on its value, so a fresh copy of a counted grid is
    # counted, by canonical form and by the oracle, with none of them; the
    # memo is emptied first so that it cannot clear itself, and drop the
    # oracle's inner products, between the two counts
    vectors._PRODUCT_MEMO.clear()
    g = synth(4, 200)[1]
    assert cardinality(g).cardinality == cardinality_oracle(g) == 200
    copy = QLSGrid(g.cells)
    for run in (cardinality, cardinality_oracle):
        used = count_work(run, copy)
        assert not {name: used[name] for name in ("sign", "neg", "mul") if name in used}, run


# Work of one batch, execute_plans over the 132 targets of order 12, counted
# as above once every block is realized. Each distinct line's verdict and
# each cell's unit test and canonical form is computed once per batch; the
# same plans executed one by one make about 40,000 inner products. A
# ceiling may only fall.
BATCH_WORK_CEILING = {"inner_product": 5400, "sign": 85, "neg": 91, "eq": 0}


def _sweep_plans(m):
    rng = valid_cardinalities(m)
    return [plan_for(m, c) for c in range(rng.lo, rng.hi + 1) if c != rng.excluded]


def test_batch_work_stays_under_its_ceiling(count_work):
    plans = _sweep_plans(3)
    assert len(list(execute_plans(plans))) == 132
    used = count_work(lambda: list(execute_plans(plans)))
    over = {
        name: (n, BATCH_WORK_CEILING.get(name, 0))
        for name, n in used.items()
        if n > BATCH_WORK_CEILING.get(name, 0)
    }
    assert not over, f"(work, ceiling) above the ceiling: {over}"


def test_batch_keys_each_row_once(monkeypatch):
    # a row's classes are stored under the very key object of its verdict
    made = []
    monkeypatch.setattr(synthesis, "_GridWork", lambda: made.append(qls_core._GridWork()) or made[-1])
    assert len(list(execute_plans(_sweep_plans(3)))) == 132
    (work,) = made
    verdict_keys = {id(key) for key in work.lines}
    assert work.row_classes and all(id(key) in verdict_keys for key in work.row_classes)


def test_batch_owns_the_ids_it_keys_on():
    # each good grid is dropped once verified, so the next parse may reuse
    # its cells' addresses; the batch holds every cell it keys on, so a
    # reused id never finds another cell's unit test or line verdict
    text = grid_to_json(synth(2, 40)[1])
    work = qls_core._GridWork()
    for trial in range(200):
        assert work.verify(grid_from_json(text)).ok
        cells = [list(row) for row in grid_from_json(text).cells]
        r, c = divmod(trial % 64, 8)
        cells[r][c] = vec_scale(cells[r][c], 2)
        assert work.verify(QLSGrid(cells)) == verify_qls(QLSGrid(cells))


def test_batch_counts_a_grid_it_did_not_verify():
    g = synth(3, 100)[1]
    copy = QLSGrid(g.cells)
    assert verify_qls(copy).ok
    assert qls_core._GridWork().count(copy) == cardinality(g)


def _two_shifts(u, w):
    """An order-4 grid of the order-2 square [[u, w], [w, u]] shifted onto
    two diagonals: each cell |j> (x) u or |j> (x) w keeps u's or w's
    coefficient tuple, so each tuple sits on two supports."""
    top = [tensor(basis_vector(2, j), v) for j in (0, 1) for v in (u, w)]
    low = [tensor(basis_vector(2, j), v) for j in (0, 1) for v in (w, u)]
    return QLSGrid([top, low, top[2:] + top[:2], low[2:] + low[:2]])


class TestPerTupleFacts:
    """A cell's unit test and its oracle squares depend on its coefficient
    tuple alone, so they are worked out once per distinct tuple."""

    def test_a_unit_tuple_on_different_supports_passes(self, count_work):
        h = sqrt_rational(F(1, 2))
        g = _two_shifts(QVector([h, h]), QVector([h, -h]))
        assert len({v.coefs for row in g.cells for v in row}) == 2
        assert count_work(qls_core._check_units, g.cells) == {"inner_product": 2}
        assert verify_qls(g).ok
        assert cardinality(g).cardinality == cardinality_oracle(g) == 4

    @pytest.mark.parametrize(
        "spots, first",
        [
            # (r, c) of tuple a's cells, then of tuple b's
            (([(0, 1), (2, 3)], [(1, 0)]), (0, 1)),
            (([(1, 2), (3, 0)], [(2, 1)]), (1, 2)),
            (([(3, 3), (0, 2)], [(0, 3)]), (0, 2)),
        ],
    )
    def test_a_shared_non_unit_tuple_reports_the_earlier_cell(self, spots, first):
        # two non-unit tuples, each object shared by cells on different
        # supports: the cell named is the first one a per-cell scan fails
        g = cyclic_grid(4)
        cells = [list(row) for row in g.cells]
        for tup, places in zip(((RadExt({1: 2}),), (RadExt({1: F(1, 2)}),)), spots):
            for r, c in places:
                cells[r][c] = QVector._raw(4, g.cells[r][c].support, tup)
        report = verify_qls(QLSGrid(cells))
        assert report.location == ("unit", *first)
        assert report.message == "cell (%d,%d) is not a unit vector" % first
        assert verify_row_qlr(RowQLR(cells)) == report

    def test_a_json_round_trip_keeps_every_report(self):
        # the reader builds one tuple per cell, so equal tuples arrive as
        # distinct objects; the unit set and the oracle squares compare them
        # by value
        g = synth(3, 70)[1]
        cells = [list(row) for row in g.cells]
        bad = vec_scale(cells[5][7], 2)
        cells[5][7], cells[9][1] = bad, QVector._raw(12, cells[9][1].support, bad.coefs)
        for grid in (g, QLSGrid(cells)):
            again = grid_from_json(grid_to_json(grid))
            tuples = [v.coefs for row in again.cells for v in row]
            assert len(set(map(id, tuples))) == len(tuples) > len(set(tuples))
            assert verify_qls(again) == verify_qls(QLSGrid(grid.cells))
        assert verify_qls(again).location == ("unit", 5, 7)
        again = grid_from_json(grid_to_json(g))
        assert cardinality(again) == cardinality(g)
        assert cardinality_oracle(again) == cardinality_oracle(g) == 70

    def test_the_private_constructor_matches_the_public_one(self):
        # _assemble builds each grid through QLSGrid._raw, which skips the
        # shape checks of checked blocks
        for m, c in ((2, 40), (3, 105), (4, 200)):
            g = synth(m, c)[1]
            public = QLSGrid(g.cells, provenance=g.provenance)
            raw = QLSGrid._raw(public.cells, public.provenance)
            assert type(g.cells) is tuple and all(type(row) is tuple for row in g.cells)
            for grid in (g, raw):
                assert grid == public and hash(grid) == hash(public)
                assert (grid.order, grid.provenance) == (public.order, public.provenance)
                assert verify_qls(grid) == verify_qls(public)
                assert cardinality(grid) == cardinality(public)
                assert cardinality(grid).classes == cardinality(public).classes


class TestSerialization:
    def test_byte_exact_round_trip(self):
        g = make_W(5, 6)
        text = grid_to_json(g)
        again = grid_from_json(text)
        assert grid_to_json(again) == text
        assert again == g and again.provenance == g.provenance

    def test_pretty_output_parses_identically(self):
        g = make_H(3)
        pretty = json.dumps(grid_to_json_dict(g), indent=2)
        assert _grid_from_canonical(pretty) is None  # read by the json.loads path
        assert grid_from_json(pretty) == g

    def test_compact_json_is_deterministic(self):
        g = cyclic_grid(3)
        assert grid_to_json(g) == grid_to_json(cyclic_grid(3))
        assert grid_to_json(g).endswith("\n")

    def test_strict_schema(self):
        obj = grid_to_json_dict(make_H(0))
        assert set(obj) == {"order", "provenance", "cells"}
        with pytest.raises(ValueError):
            grid_from_json_dict({**obj, "extra": 1})
        with pytest.raises(ValueError):
            grid_from_json_dict({"order": obj["order"], "cells": obj["cells"]})
        bad = {**obj, "order": 5}
        with pytest.raises(ValueError):
            grid_from_json_dict(bad)

    def test_malformed_text_raises(self):
        with pytest.raises(ValueError):
            grid_from_json("{not json")
        with pytest.raises(ValueError):
            grid_from_json('{"order": 2}')

    def test_equal_coefficients_are_interned(self):
        # one object per value: in the built grid, in each parse of it by
        # either reader, and across grids
        g = make_W(5, 6)
        text, pretty = grid_to_json(g), json.dumps(grid_to_json_dict(g), indent=2)
        grids = [g, grid_from_json(text), grid_from_json(pretty), grid_from_json(text)]
        coeffs = [[e for row in h.cells for v in row for _, e in v.entries] for h in grids]
        for other in coeffs[1:]:
            assert len(other) == len(coeffs[0])
            assert all(a is b for a, b in zip(coeffs[0], other))
        assert len(set(map(id, coeffs[0]))) < len(coeffs[0])

    def test_interning_never_aliases_true(self):
        obj = grid_to_json_dict(cyclic_grid(2))
        obj["cells"][1][1]["entries"][0] = [[True, 1, 1]]
        with pytest.raises(ValueError):
            grid_from_json(json.dumps(obj))

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_state_is_restored(self, enabled):
        g = make_W(5, 6)
        text = grid_to_json(g)
        pretty = json.dumps(grid_to_json_dict(g), indent=2)
        malformed = [text.replace('"order":', '"order":-', 1), "[" * 100_000]
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert grid_from_json(text) == grid_from_json(pretty) == g
            assert gc.isenabled() is enabled
            for bad in malformed:
                with pytest.raises(ValueError):
                    grid_from_json(bad)
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    @given(st.data())
    @settings(deadline=None, max_examples=60)
    def test_writer_matches_reference(self, data):
        g = data.draw(_grids())
        text = grid_to_json(g)
        assert text == _reference_json(g)
        again = _grid_from_canonical(text)  # the writer's output takes the streamed path
        assert again == g and again.provenance == g.provenance

    def test_parse_memory_is_linear_in_the_text(self):
        # order 32: the json.loads tree costs about 20x the text
        text = grid_to_json(execute_plan(plan_for(8, 1000)))
        tracemalloc.start()
        try:
            assert grid_from_json(text).order == 32
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(text), (peak, len(text))


def _reference_json(g: QLSGrid) -> str:
    return json.dumps(grid_to_json_dict(g), separators=(",", ":")) + "\n"


def _reference_parse(text: str) -> QLSGrid:
    try:
        obj = json.loads(text, object_pairs_hook=qls_core._unique_keys)
    except RecursionError:
        raise ValueError("grid JSON is nested too deeply") from None
    return grid_from_json_dict(obj)


def _outcome(parse, text):
    """A parse's grid and provenance, or its error's class and message."""
    try:
        g = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return g, g.provenance


_COEFFICIENTS = st.builds(
    lambda a, b, p, q, d: RadExt({1: F(a, b), d: F(p, q)}),
    st.integers(-3, 3),
    st.integers(1, 9),
    st.integers(-3, 3),
    st.integers(1, 9),
    st.sampled_from([2, 3, 5, 6, 8, 12]),
)


@st.composite
def _grids(draw):
    """Square arrays of a few random coefficients, not QLSs: mostly zeros, or
    dense like W0."""
    n = draw(st.integers(1, 5))
    pool = draw(st.lists(_COEFFICIENTS, min_size=1, max_size=4))
    if draw(st.booleans()):
        pool += [0] * (3 * len(pool))
    rng = draw(st.randoms(use_true_random=False))
    prov = draw(st.one_of(st.text(max_size=8), st.sampled_from(['"', "\\", 'q"u\\o\u00e9\u2028'])))
    cells = [[QVector([rng.choice(pool) for _ in range(n)]) for _ in range(n)] for _ in range(n)]
    return QLSGrid(cells, provenance=prov)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)


def _mutate(node, path, value):
    """Replace the value at `path` (indices into lists and sorted dict keys)."""
    if not path or not isinstance(node, (list, dict)) or not node:
        return value
    keys = sorted(node) if isinstance(node, dict) else range(len(node))
    key = list(keys)[path[0] % len(node)]
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[key] = _mutate(node[key], path[1:], value)
    return copy


class TestHostileJSON:
    """Parsing returns a grid or raises ValueError, and nothing else. A grid
    it returns writes back the same JSON value, so no value has a second
    encoding. The streamed reader and the json.loads reference agree on
    every text: the same grid, or the same error class and message."""

    valid = json.loads(grid_to_json(realize_generator("A(1/2)")))

    @given(st.lists(st.integers(0, 50), max_size=7), _JSON_VALUES, st.booleans())
    @settings(deadline=None, max_examples=300)
    def test_mutated_structure(self, path, value, compact):
        # the compact separators keep the writer's layout, so the streamed reader runs
        separators = (",", ":") if compact else None
        self._check(json.dumps(_mutate(self.valid, path, value), separators=separators))

    @given(
        st.sampled_from(["A(1/2)", "W(5,6)"]),
        st.integers(0, 10_000),
        st.integers(0, 3),
        st.text(alphabet='[]{}",:-0123456789tx ', max_size=4),
    )
    @settings(deadline=None, max_examples=300)
    def test_mutated_text(self, gid, at, cut, insert):
        text = grid_to_json(realize_generator(gid))
        at %= len(text)
        self._check(text[:at] + insert + text[at + cut:])

    def test_canonical_text(self):
        self._check(grid_to_json(realize_generator("A(1/2)")))
        self._check(grid_to_json(realize_generator("A(1/2)")).rstrip("\n") + " \t\r\n")

    @staticmethod
    def _check(text):
        got = _outcome(grid_from_json, text)
        assert got == _outcome(_reference_parse, text)
        try:
            streamed = _grid_from_canonical(text)
        except (ValueError, RecursionError):
            streamed = None
        if streamed is not None:
            assert (streamed, streamed.provenance) == got
        if isinstance(got[0], QLSGrid):
            assert json.loads(grid_to_json(got[0])) == json.loads(text)
