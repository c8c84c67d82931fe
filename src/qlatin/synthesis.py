"""Cardinality-targeted synthesis of order-4m grids.

The scaffold is the cyclic classical square a[i][j] = (j - i) mod m, each
entry replaced by |a[i][j]> tensor (an order-4 block). All blocks on
diagonal j share the prefix |j>, so diagonals contribute disjoint element
sets and cardinality is additive across diagonals. Per diagonal the block
choices are ranked by how many new element classes they add, and one
routine, `_pick_per_diagonal`, splits a target over the diagonals: it takes
the lexicographically first feasible choice sequence, each pick checked
against the sums the later diagonals can still reach.

Two counting regimes cover [4m, 16m^2] minus 4m+1 (which no square of
order 4m can hit): a "low" regime anchored at the basis-like blocks and a
"high" regime anchored at maximal-cardinality blocks. Order 8 adds one
fixed special square, for c = 57. Reachable sums are int bit masks.

Which block adds how many classes is data (`_low_slot_names`, `HIGH_SLOT1`,
`w_block`), so planning realizes no block; `execute_plan` re-verifies and
re-counts every grid it builds, and the claims prove each count.

A sweep executes its plans as one batch (`execute_plans`): the same checks,
errors and order as a loop of `execute_plan`, but each (name, m, diagonal)
shift is built once, so the grids share cell objects and a line met again
is verified once. The m = 3 sweep makes about 5,300 inner products as a
batch and 40,000 as a loop.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .generators import MAX_M, realize_generator, w_block
from .qls_core import QLSGrid, _GridWork, cardinality, verify_qls
from .vectors import basis_vector, tensor

# per-diagonal values of the second slot's new-element count in the low regime
S1_LOW = (0, 2, 3, 4, 5, 6, 7, 8, 16)

#: The high regime's second-slot block for each count of element classes it
#: adds beyond W0, in ascending order (proved by the claims
#: `blocks/hprime-new-counts`, `wk/w0-meet-w*`, `wk/w56-outside-w0` and
#: `qls8/c57-square`).
HIGH_SLOT1 = {
    0: "W0", 2: "Hprime(2)", 4: "Hprime(4)", 6: "Hprime(6)", 8: "Hprime(8)",
    12: "Wk(2)", 14: "Wk(3)", 15: "Wk(1)", 16: "W(5,6)",
}
S1_HIGH = tuple(HIGH_SLOT1)


def _check_m(m: int, least: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < least:
        raise ValueError(f"m must be an integer >= {least}, got {m!r}")
    if m > MAX_M:
        raise ValueError(f"m must be at most {MAX_M} (order {4 * MAX_M}), got {m}")


class CardinalityRangeError(ValueError):
    """Requested cardinality is outside [4m, 16m^2]."""


class ImpossibleCardinalityError(ValueError):
    """Requested cardinality is order+1, which no order-n square attains."""


def impossibility_message(m: int) -> str:
    n = 4 * m
    return (
        f"cardinality {n + 1} is impossible at order {n}: no quantum Latin "
        f"square of order n has exactly n+1 distinct elements (a row with a "
        f"single new element is forced back into the first row's basis)"
    )


class _ReachableSums:
    """The function `reachable_sums`, with its one store: for each value
    tuple, the list of masks of counts 0, 1, 2, ..., extended in place.
    Its length is the number of masks held, which a cache-size report
    reads; `clear` empties it."""

    def __init__(self) -> None:
        self._masks: dict[tuple[int, ...], list[int]] = {}

    def __call__(self, values: tuple[int, ...], count: int) -> int:
        """Bit mask of the sums of `count` nonnegative values drawn from
        `values` with repetition: bit s is set when s is reachable. A cold
        call extends the highest count already filled for `values`, one
        count at a time in a loop, so counts 0..m take m * len(values)
        shift-ORs in all and no count recurses."""
        masks = self._masks.get(values)
        if masks is None:
            masks = self._masks[values] = [1]
        while len(masks) <= count:
            prev, mask = masks[-1], 0
            for v in values:
                mask |= prev << v
            masks.append(mask)
        return masks[count]

    def __len__(self) -> int:
        return sum(map(len, self._masks.values()))

    def clear(self) -> None:
        self._masks.clear()


reachable_sums = _ReachableSums()


def set_bits(mask: int, offset: int = 0) -> frozenset[int]:
    """The set {offset + s : bit s of mask is set}."""
    return frozenset(offset + s for s in range(mask.bit_length()) if mask >> s & 1)


class _Choices(NamedTuple):
    """One diagonal's options as (value, option) pairs in preference order,
    with the sorted distinct values whose reachable sums decide feasibility."""

    pairs: tuple
    values: tuple[int, ...]


def _choices(pairs: tuple) -> _Choices:
    return _Choices(pairs, tuple(sorted({v for v, _ in pairs})))


def _pick_per_diagonal(choices: _Choices, m: int, rem: int) -> list:
    """One option for each of m >= 1 diagonals, values summing to rem.

    Each diagonal takes the first option that leaves a remainder the later
    diagonals can still reach exactly: the lexicographically first feasible
    choice sequence."""
    pairs, values = choices
    picks = []
    for left in range(m - 1, -1, -1):
        suffix = reachable_sums(values, left)
        for v, option in pairs:
            if rem >= v and suffix >> (rem - v) & 1:
                break
        else:  # only on the first diagonal: each pick keeps rem reachable
            raise RuntimeError(f"no choice over {m} diagonals sums to {rem}")
        rem -= v
        picks.append(option)
    return picks


@lru_cache(maxsize=None)
def _low_choices(m: int) -> _Choices:
    """The low regime's options (x0, x1, tail bits), each worth
    4*x0 + x1 + 16*(set tail bits); of the m-2 tail slots, the last q hold
    the disjoint W squares."""
    return _choices(
        tuple(
            (4 * x0 + x1 + 16 * q, (x0, x1, (0,) * (m - 2 - q) + (1,) * q))
            for x0 in (0, 1)
            for x1 in S1_LOW
            for q in range(m - 1)
        )
    )


_HIGH_CHOICES = _choices(tuple((v, v) for v in S1_HIGH))


class SynthPlan(NamedTuple):
    """Block assignment per diagonal plus the arithmetic showing the target
    is met before any grid is built."""

    m: int
    target_c: int
    regime: str
    # diagonals[j][i] fills block (i, (i+j) mod m); all of diagonal j gets prefix |j>
    diagonals: tuple[tuple[str, ...], ...]
    witness: dict

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "diagonals": [list(d) for d in self.diagonals]}


# QLS(8) layouts: (base count, top-left, top-right, bottom-left); the
# bottom-right block varies over H(0), H(2..8) and supplies base+offset.
_QLS8_ROWS = (
    (8, "H(0)", "H(0)", "H(0)"),
    (12, "H(0)", "H(8)", "H(8)"),
    (16, "H(0)", "H(0)", "H(8)"),
    (20, "H(0)", "W(5,6)", "W(5,6)"),
    (24, "H(0)", "H(0)", "W(5,6)"),
    (28, "H(0)", "H(8)", "W(5,6)"),
    (32, "H(1)", "H(8)", "W(5,6)"),
    (36, "H(0)", "W(5,6)", "W(7,8)"),
    (40, "H(1)", "W(5,6)", "W(7,8)"),
)
_QLS8_OFFSETS = (0, 2, 3, 4, 5, 6, 7, 8)


def _check_range(m: int, c: int) -> None:
    lo, hi = 4 * m, 16 * m * m
    if not isinstance(c, int) or isinstance(c, bool):
        raise CardinalityRangeError(f"cardinality must be an integer, got {c!r}")
    if c < lo or c > hi:
        raise CardinalityRangeError(
            f"cardinality {c} out of range [{lo},{hi}] for order {4 * m}"
        )
    if c == lo + 1:
        raise ImpossibleCardinalityError(impossibility_message(m))


def _qls8_low_plan(base: int, tl: str, tr: str, bl: str, ell: int) -> SynthPlan:
    """The QLS(8) of a layout row with H(ell) bottom right: base + ell classes."""
    return SynthPlan(
        m=2,
        target_c=base + ell,
        regime="QLS8-low",
        diagonals=((tl, f"H({ell})"), (tr, bl)),
        witness={"base": base, "new_in_last_block": ell, "total": base + ell},
    )


def plan_qls8(c: int) -> SynthPlan:
    _check_range(2, c)
    if c <= 48:
        for base, tl, tr, bl in _QLS8_ROWS:
            if c - base in _QLS8_OFFSETS:
                return _qls8_low_plan(base, tl, tr, bl, c - base)
        raise RuntimeError(f"no layout row reaches cardinality {c}")
    if c == 57:
        return SynthPlan(
            m=2,
            target_c=57,
            regime="QLS8-c57",
            diagonals=(("W0", "Wk(1)"), ("Wk(2)", "Wk(4)")),
            witness={"prefix0_count": 31, "prefix1_count": 26, "total": 57},
        )
    l1, l2 = _pick_per_diagonal(_HIGH_CHOICES, 2, c - 32)
    return SynthPlan(
        m=2,
        target_c=c,
        regime="QLS8-high",
        diagonals=(("W0", HIGH_SLOT1[l1]), ("W0", HIGH_SLOT1[l2])),
        witness={
            "base": 32,
            "new_bottom_right": l1,
            "new_bottom_left": l2,
            "total": 32 + l1 + l2,
        },
    )


def _low_slot_names(x0: int, x1: int, bits: tuple[int, ...]) -> tuple[str, ...]:
    slot0 = f"H({x0})"
    if x1 == 0:
        slot1 = slot0
    elif x1 == 16:
        slot1 = w_block(1)
    else:
        slot1 = f"H({x1})"
    tail = tuple([w_block(i) if b else slot0 for i, b in enumerate(bits, 2)])
    return (slot0, slot1) + tail


def _plan_low(m: int, c: int) -> SynthPlan:
    xs = _pick_per_diagonal(_low_choices(m), m, c - 4 * m)
    total = 4 * m + sum(4 * x0 + x1 + 16 * sum(bits) for x0, x1, bits in xs)
    if total != c:
        raise RuntimeError(f"witness sum {total} does not match target {c}")
    return SynthPlan(
        m=m,
        target_c=c,
        regime="low",
        diagonals=tuple([_low_slot_names(*x) for x in xs]),
        witness={
            "x0": [x[0] for x in xs],
            "x1": [x[1] for x in xs],
            "x_tail": [list(x[2]) for x in xs],
            "formula": "4*m + 4*sum(x0) + sum(x1) + 16*sum(x_tail)",
            "total": total,
        },
    )


def _plan_high(m: int, c: int) -> SynthPlan:
    x1s = _pick_per_diagonal(_HIGH_CHOICES, m, c - 16 * m * (m - 1))
    tail = tuple([w_block(i) for i in range(2, m)])
    diagonals = tuple([("W0", HIGH_SLOT1[x1]) + tail for x1 in x1s])
    total = 16 * m * (m - 1) + sum(x1s)
    if total != c:
        raise RuntimeError(f"witness sum {total} does not match target {c}")
    return SynthPlan(
        m=m,
        target_c=c,
        regime="high",
        diagonals=diagonals,
        witness={
            "x1": x1s,
            "formula": "16*m*(m-1) + sum(x1)",
            "total": total,
        },
    )


def plan_qls4m(m: int, c: int) -> SynthPlan:
    _check_m(m, 3)
    _check_range(m, c)
    if c <= 16 * m * m - 8 * m - 8 and (
        reachable_sums(_low_choices(m).values, m) >> (c - 4 * m) & 1
    ):
        return _plan_low(m, c)
    return _plan_high(m, c)


def plan_for(m: int, c: int) -> SynthPlan:
    _check_m(m, 2)
    return plan_qls8(c) if m == 2 else plan_qls4m(m, c)


def _assemble(plan: SynthPlan, shifted: dict) -> QLSGrid:
    """The grid a plan describes. `shifted` holds each order-4 block shifted
    onto its diagonal, keyed on (name, m, diagonal): a block met again, on
    the same diagonal or in a later plan of the same batch, reuses its
    cells. A name is realized where it is first shifted, in slot order."""
    m = plan.m
    order = 4 * m
    shape = [len(diag) for diag in plan.diagonals]
    if shape != [m] * m:
        raise ValueError(f"a plan for m={m} needs {m} diagonals of {m} names, got lengths {shape}")
    cells = [[None] * order for _ in range(order)]
    for j, diag in enumerate(plan.diagonals):
        prefix = basis_vector(m, j)
        for i, gid in enumerate(diag):
            rows = shifted.get((gid, m, j))
            if rows is None:
                block = realize_generator(gid)
                if block.order != 4:
                    raise ValueError(f"generator {gid} is not an order-4 block")
                rows = shifted[gid, m, j] = [[tensor(prefix, v) for v in row] for row in block.cells]
            bj = (i + j) % m
            for k, row in enumerate(rows):
                cells[i * 4 + k][bj * 4 : bj * 4 + 4] = row
    # every cell is a shift of a checked order-4 block cell into dimension 4m
    rows = tuple([tuple(row) for row in cells])
    return QLSGrid._raw(rows, f"synth(m={m},c={plan.target_c},{plan.regime})")


def _checked(plan: SynthPlan, grid: QLSGrid, verify, count) -> QLSGrid:
    """The grid, once `verify` passes it and `count` finds the planned
    cardinality; RuntimeError otherwise."""
    report = verify(grid)
    if not report.ok:
        raise RuntimeError(f"synthesized grid failed verification: {report.message}")
    counted = count(grid).cardinality
    if counted != plan.target_c:
        raise RuntimeError(
            f"synthesized grid has cardinality {counted}, planned {plan.target_c}"
        )
    return grid


def execute_plan(plan: SynthPlan) -> QLSGrid:
    """Assemble the grid a plan describes, then re-verify and re-count it.
    Each distinct block is shifted once per diagonal, so a block that
    repeats on its diagonal shares its cell objects."""
    return _checked(plan, _assemble(plan, {}), verify_qls, cardinality)


def execute_plans(plans: Iterable[SynthPlan]) -> Iterator[QLSGrid]:
    """execute_plan of each plan in turn, yielding each grid as it passes,
    with the same checks, errors and order. The plans share their work:
    each (name, m, diagonal) shift is built once, so the grids share cell
    objects, and one table set holds each distinct line's verdict and each
    passing cell's canonical form."""
    shifted, work = {}, _GridWork()
    for plan in plans:
        yield _checked(plan, _assemble(plan, shifted), work.verify, work.count)


def synth(m: int, c: int) -> tuple[SynthPlan, QLSGrid]:
    plan = plan_for(m, c)
    return plan, execute_plan(plan)


class CardinalityRange(NamedTuple):
    """The attainable cardinalities for order 4m, with the per-regime
    reachable sets that witness coverage."""

    m: int
    lo: int
    hi: int
    excluded: int
    low_reachable: frozenset[int]
    high_reachable: frozenset[int]
    specials: frozenset[int]

    def describe(self) -> str:
        return f"[{self.lo},{self.hi}] excluding {self.excluded}"


def valid_cardinalities(m: int) -> CardinalityRange:
    _check_m(m, 2)
    lo, hi = 4 * m, 16 * m * m
    high = set_bits(reachable_sums(S1_HIGH, m), 16 * m * (m - 1))
    if m == 2:
        low = frozenset(
            base + off for base, _, _, _ in _QLS8_ROWS for off in _QLS8_OFFSETS
        )
        high &= frozenset(range(49, 65))
        specials = frozenset({57})
    else:
        low = set_bits(reachable_sums(_low_choices(m).values, m), lo)
        specials = frozenset()
    expected = frozenset(range(lo, hi + 1)) - {lo + 1}
    if (low | high | specials) != expected:
        raise RuntimeError(
            f"reachable sets for m={m} do not cover [{lo},{hi}] minus {lo + 1}"
        )
    return CardinalityRange(
        m=m,
        lo=lo,
        hi=hi,
        excluded=lo + 1,
        low_reachable=low,
        high_reachable=high,
        specials=specials,
    )
