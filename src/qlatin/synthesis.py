"""Cardinality-targeted synthesis of order-4m grids.

The scaffold is the cyclic classical square a[i][j] = (j - i) mod m, each
entry replaced by |a[i][j]> tensor (an order-4 block). All blocks on
diagonal j share the prefix |j>, so diagonals contribute disjoint element
sets and cardinality is additive across diagonals. Per diagonal the block
choices are ranked by how many new element classes they add, and a target
is decomposed over diagonals by dynamic programming on the reachable sums.

Two counting regimes cover [4m, 16m^2] minus 4m+1 (which no square of
order 4m can hit): a "low" regime anchored at the basis-like blocks and a
"high" regime anchored at maximal-cardinality blocks, plus fixed special
squares for (m=2, c=57) and (m=3, c=105).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .generators import realize_generator
from .qls_core import (
    QLSGrid,
    cardinality,
    count_new_elements,
    distinct_elements,
    verify_qls,
)
from .vectors import basis_vector, tensor

# per-diagonal values of the second slot's new-element count in each regime
S1_LOW = (0, 2, 3, 4, 5, 6, 7, 8, 16)
S1_HIGH = (0, 2, 4, 6, 8, 12, 14, 15, 16)

#: Largest supported m (order 4 * MAX_M). Grid size, JSON size and verify
#: time all grow polynomially in m, so one command line must not ask for more.
MAX_M = 32


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


@lru_cache(maxsize=None)
def reachable_sums(values: tuple[int, ...], count: int) -> frozenset[int]:
    """All sums of `count` nonnegative values drawn from `values` with
    repetition; bit s of the mask is set when s is reachable."""
    mask = 1
    for _ in range(count):
        prev, mask = mask, 0
        for v in values:
            mask |= prev << v
    return frozenset(s for s in range(mask.bit_length()) if mask >> s & 1)


def low_x1_sumset(m: int) -> frozenset[int]:
    return reachable_sums(S1_LOW, m)


def high_x1_sumset(m: int) -> frozenset[int]:
    return reachable_sums(S1_HIGH, m)


@lru_cache(maxsize=None)
def _diag_totals_low(m: int) -> tuple[int, ...]:
    """Per-diagonal totals available in the low regime for a given m."""
    return tuple(
        sorted(
            {
                4 * x0 + x1 + 16 * q
                for x0 in (0, 1)
                for x1 in S1_LOW
                for q in range(m - 1)
            }
        )
    )


@lru_cache(maxsize=None)
def high_slot1_binding() -> dict[int, str]:
    """Map each attainable new-element count to the block realizing it.

    Measured against the maximal-cardinality base block at first use rather
    than hardcoded, so a transcription slip in any block shows up here as a
    loud failure instead of a silently wrong plan.
    """
    base = distinct_elements(realize_generator("W0"))
    candidates = (
        "W0",
        "Hprime(2)",
        "Hprime(4)",
        "Hprime(6)",
        "Hprime(8)",
        "Wk(1)",
        "Wk(2)",
        "Wk(3)",
        "W(5,6)",
    )
    binding: dict[int, str] = {}
    for name in candidates:
        n_new = count_new_elements(realize_generator(name), base)
        if n_new in binding:
            raise RuntimeError(
                f"blocks {binding[n_new]} and {name} both add {n_new} new elements"
            )
        binding[n_new] = name
    if set(binding) != set(S1_HIGH):
        raise RuntimeError(
            f"measured new-element counts {sorted(binding)} do not realize {S1_HIGH}"
        )
    return binding


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
        return {
            "m": self.m,
            "target_c": self.target_c,
            "regime": self.regime,
            "diagonals": [list(d) for d in self.diagonals],
            "witness": self.witness,
        }


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
    binding = high_slot1_binding()
    need = c - 32
    choices = sorted(v for v in S1_HIGH if v > 0)
    for l1 in choices:
        l2 = need - l1
        if l2 in choices:
            return SynthPlan(
                m=2,
                target_c=c,
                regime="QLS8-high",
                diagonals=(("W0", binding[l1]), ("W0", binding[l2])),
                witness={
                    "base": 32,
                    "new_bottom_right": l1,
                    "new_bottom_left": l2,
                    "total": 32 + l1 + l2,
                },
            )
    raise RuntimeError(f"no two-part split reaches cardinality {c}")


_C105_DIAGONALS = (
    ("W0", "Wk(1)", "W(5,6)"),
    ("W0", "W0", "W(5,6)"),
    ("H(0)", "H(6)", "W(5,6)"),
)


def _low_slot_names(m: int, x0: int, x1: int, q: int) -> tuple[str, ...]:
    slot0 = f"H({x0})"
    if x1 == 0:
        slot1 = slot0
    elif x1 == 16:
        slot1 = "W(5,6)"
    else:
        slot1 = f"H({x1})"
    tail = tuple(
        f"W({2 * i + 3},{2 * i + 4})" if i >= m - q else slot0 for i in range(2, m)
    )
    return (slot0, slot1) + tail


def _plan_low(m: int, c: int) -> SynthPlan:
    diag_vals = _diag_totals_low(m)
    rem = c - 4 * m
    diagonals, xs = [], []
    for j in range(m):
        suffix = reachable_sums(diag_vals, m - 1 - j)
        # lexicographically smallest (x0, x1, high-slot count) that stays feasible
        chosen = next(
            ((x0, x1, q) for x0 in (0, 1) for x1 in S1_LOW for q in range(m - 1)
             if rem - (4 * x0 + x1 + 16 * q) in suffix),
            None,
        )
        if chosen is None:
            raise RuntimeError(
                f"low-regime decomposition failed for m={m}, c={c} (internal invariant)"
            )
        x0, x1, q = chosen
        diagonals.append(_low_slot_names(m, x0, x1, q))
        xs.append((x0, x1, tuple(1 if i >= m - q else 0 for i in range(2, m))))
        rem -= 4 * x0 + x1 + 16 * q
    total = (
        4 * m
        + 4 * sum(x[0] for x in xs)
        + sum(x[1] for x in xs)
        + 16 * sum(sum(x[2]) for x in xs)
    )
    if total != c or rem != 0:
        raise RuntimeError(f"witness sum {total} does not match target {c}")
    return SynthPlan(
        m=m,
        target_c=c,
        regime="low",
        diagonals=tuple(diagonals),
        witness={
            "x0": [x[0] for x in xs],
            "x1": [x[1] for x in xs],
            "x_tail": [list(x[2]) for x in xs],
            "formula": "4*m + 4*sum(x0) + sum(x1) + 16*sum(x_tail)",
            "total": total,
        },
    )


def _plan_high(m: int, c: int) -> SynthPlan:
    binding = high_slot1_binding()
    rem = c - 16 * m * (m - 1)
    x1s = []
    for j in range(m):
        suffix = reachable_sums(S1_HIGH, m - 1 - j)
        pick = next((v for v in S1_HIGH if rem - v in suffix), None)
        if pick is None:
            raise RuntimeError(
                f"high-regime decomposition failed for m={m}, c={c} (internal invariant)"
            )
        x1s.append(pick)
        rem -= pick
    tail = tuple(f"W({2 * i + 3},{2 * i + 4})" for i in range(2, m))
    diagonals = tuple(("W0", binding[x1]) + tail for x1 in x1s)
    total = 16 * m * (m - 1) + sum(x1s)
    if total != c or rem != 0:
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
    if (m, c) == (3, 105):
        return SynthPlan(
            m=3,
            target_c=105,
            regime="QLS12-c105",
            diagonals=_C105_DIAGONALS,
            witness={"diagonal_totals": [47, 32, 26], "total": 105},
        )
    if c <= 16 * m * m - 8 * m - 8 and (c - 4 * m) in reachable_sums(
        _diag_totals_low(m), m
    ):
        return _plan_low(m, c)
    return _plan_high(m, c)


def plan_for(m: int, c: int) -> SynthPlan:
    _check_m(m, 2)
    return plan_qls8(c) if m == 2 else plan_qls4m(m, c)


def execute_plan(plan: SynthPlan) -> QLSGrid:
    """Assemble the grid a plan describes, then re-verify and re-count it."""
    m = plan.m
    order = 4 * m
    cells = [[None] * order for _ in range(order)]
    for j, diag in enumerate(plan.diagonals):
        prefix = basis_vector(m, j)
        for i, gid in enumerate(diag):
            block = realize_generator(gid)
            if block.order != 4:
                raise ValueError(f"generator {gid} is not an order-4 block")
            bj = (i + j) % m
            for k in range(4):
                row = cells[i * 4 + k]
                bcells = block.cells[k]
                for l in range(4):
                    row[bj * 4 + l] = tensor(prefix, bcells[l])
    grid = QLSGrid(
        cells, provenance=f"synth(m={m},c={plan.target_c},{plan.regime})"
    )
    report = verify_qls(grid)
    if not report.ok:
        raise RuntimeError(f"synthesized grid failed verification: {report.message}")
    counted = cardinality(grid).cardinality
    if counted != plan.target_c:
        raise RuntimeError(
            f"synthesized grid has cardinality {counted}, planned {plan.target_c}"
        )
    return grid


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
    if m == 2:
        low = frozenset(
            base + off for base, _, _, _ in _QLS8_ROWS for off in _QLS8_OFFSETS
        )
        high = frozenset(
            32 + l1 + l2 for l1 in S1_HIGH if l1 for l2 in S1_HIGH if l2
        ) & frozenset(range(49, 65))
        specials = frozenset({57})
    else:
        low = frozenset(lo + s for s in reachable_sums(_diag_totals_low(m), m))
        high = frozenset(16 * m * (m - 1) + s for s in reachable_sums(S1_HIGH, m))
        specials = frozenset({105}) if m == 3 else frozenset()
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
