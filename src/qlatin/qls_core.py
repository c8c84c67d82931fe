"""Quantum Latin squares and row rectangles: the data model, exact
verification, and cardinality counting.

A grid of order n passes verification when all n*n cells are unit vectors
and every row and every column is pairwise orthogonal; n orthonormal
vectors in dimension n are automatically a basis. Within a line, only the
pairs of cells that share a nonzero coordinate are tested, in ascending
(p, q) order: a pair with disjoint supports is orthogonal by structure, and
the first violation found is the one a scan of all pairs finds. A row
rectangle passes when its cells are units and each row is orthogonal; its
columns are not checked, so repeated rows pass. Cardinality is the size of
the set of phase-equivalence classes of the cells, each class held as its
canonical form (`canonical_set`); an independent oracle recounts them by
exact inner products, bucketed on each cell's support and squared
coefficients, without the canonical form.

Grid JSON costs time and memory in proportion to a grid's nonzero
coordinates, not its n^3 coordinates, and its bytes are those of
`json.dumps(grid_to_json_dict(g), separators=(",", ":"))` plus a newline:

- the writer renders each distinct coefficient's triple list once and writes
  a run of k zero coordinates as `"[],"*k`;
- the reader walks the writer's exact layout one cell at a time: it matches
  the fixed skeleton and each cell head literally, checks each run of zeros
  with `str.count`, and decodes and validates each distinct coordinate text
  once (`JSONDecoder.raw_decode`, then `RadExt.from_triples`);
- any other layout, and any error, falls back to `json.loads` and
  `grid_from_json_dict`, the reference that decides what is accepted and
  what every error says.

Only the fallback pauses the cyclic garbage collector (restoring its
previous state): the lists and dicts `json.loads` builds hold no cycles, so
reference counting frees them, and the collector's passes over millions of
young containers would cost more than the parse. Equal coefficients read
from one grid are one object, so inner products hit their memo by identity:
a value has one encoding, which the streamed reader decodes once, and the
fallback interns values on their validated triples.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from typing import Iterable, NamedTuple, Sequence

from .algebraic import ONE, RadExt
from .vectors import (
    QVector,
    canonicalize,
    inner_product,
    phase_equal_by_inner,
    _vector_from_json_dict,
    vector_to_json_dict,
)


class VerificationReport(NamedTuple):
    """Outcome of an orthonormality check; only the first violation is kept."""

    ok: bool
    message: str | None = None
    # ("unit", row, col) or ("row"|"col", index, first_pos, second_pos)
    location: tuple | None = None


class CardinalityReport(NamedTuple):
    cardinality: int
    # the canonical representative of each phase class, as canonical_set gives
    classes: frozenset[QVector]

    # up to n^2 vectors of dimension n: the repr names only their count
    def __repr__(self) -> str:
        return f"CardinalityReport(cardinality={self.cardinality!r})"


class QLSGrid(object):
    """n x n array of dim-n unit vectors; verification and counting are cached."""

    __slots__ = ("order", "cells", "provenance", "_verify_report", "_card_report")

    def __init__(self, cells: Sequence[Sequence[QVector]], provenance: str = ""):
        rows = tuple(tuple(r) for r in cells)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("cells must form a nonempty square array")
        for r in rows:
            for v in r:
                if v.dim != n:
                    raise ValueError(
                        f"cell dimension {v.dim} does not match grid order {n}"
                    )
        self.order = n
        self.cells = rows
        self.provenance = provenance
        self._verify_report = None
        self._card_report = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QLSGrid):
            return NotImplemented
        return self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def __repr__(self) -> str:
        return f"QLSGrid(order={self.order}, provenance={self.provenance!r})"


class RowQLR(object):
    """m x n array of dim-n vectors where only rows must be orthonormal."""

    __slots__ = ("rows", "cols", "cells")

    def __init__(self, cells: Sequence[Sequence[QVector]]):
        grid = tuple(tuple(r) for r in cells)
        if not grid or not grid[0]:
            raise ValueError("cells must form a nonempty rectangle")
        m, n = len(grid), len(grid[0])
        if any(len(r) != n for r in grid):
            raise ValueError("all rows must have the same length")
        for r in grid:
            for v in r:
                if v.dim != n:
                    raise ValueError(
                        f"cell dimension {v.dim} does not match column count {n}"
                    )
        self.rows = m
        self.cols = n
        self.cells = grid

    def __repr__(self) -> str:
        return f"RowQLR({self.rows}x{self.cols})"


def _check_lines(kind: str, lines: Iterable[Sequence[QVector]]) -> VerificationReport | None:
    for index, cells in enumerate(lines):
        # positions holding each coordinate, ascending
        holders: dict[int, list[int]] = {}
        for p, v in enumerate(cells):
            for i, _ in v.entries:
                holders.setdefault(i, []).append(p)
        for p, u in enumerate(cells):
            partners = {q for i, _ in u.entries for q in holders[i] if q > p}
            for q in sorted(partners):
                if not inner_product(u, cells[q]).is_zero:
                    return VerificationReport(
                        ok=False,
                        message=f"{kind} {index}: cells {p} and {q} are not orthogonal",
                        location=(kind, index, p, q),
                    )
    return None


def _check_units(rows: Sequence[Sequence[QVector]]) -> VerificationReport | None:
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if inner_product(v, v) != ONE:
                return VerificationReport(
                    ok=False,
                    message=f"cell ({r},{c}) is not a unit vector",
                    location=("unit", r, c),
                )
    return None


def check_orthonormal(vectors: Sequence[QVector]) -> VerificationReport | None:
    """The first violation of orthonormality among the vectors, checked as
    the one row of a grid, or None: location ("unit", 0, p) for a non-unit
    vector p, ("row", 0, p, q) for the first non-orthogonal pair p < q."""
    return _check_units((vectors,)) or _check_lines("row", (vectors,))


def verify_qls(g: QLSGrid) -> VerificationReport:
    """Check every unit and orthogonality equation exactly; cached per grid."""
    if g._verify_report is not None:
        return g._verify_report
    report = (
        _check_units(g.cells)
        or _check_lines("row", g.cells)
        or _check_lines("col", zip(*g.cells))
        or VerificationReport(ok=True)
    )
    g._verify_report = report
    return report


def verify_row_qlr(r: RowQLR) -> VerificationReport:
    """Rows must be orthonormal; columns are unchecked, so repeated rows pass."""
    return _check_units(r.cells) or _check_lines("row", r.cells) or VerificationReport(ok=True)


def cardinality(g: QLSGrid) -> CardinalityReport:
    """Count phase classes by canonical form; requires a verified grid."""
    if g._card_report is not None:
        return g._card_report
    verdict = verify_qls(g)
    if not verdict.ok:
        raise ValueError(f"grid is not a QLS: {verdict.message}")
    classes = canonical_set(v for row in g.cells for v in row)
    report = CardinalityReport(cardinality=len(classes), classes=classes)
    g._card_report = report
    return report


def cardinality_oracle(g: QLSGrid) -> int:
    """Independent count of phase classes by <u,v>^2 = 1, with no use of
    canonicalize or sign: only symbolic products and the symbolic zero test.

    Precondition: the cells are unit vectors, as in a verified grid; for unit
    vectors <u,v>^2 = 1 exactly when u = +-v. Since u = +-v forces the same
    support and the same squared coefficients, cells are bucketed on those,
    and each cell is compared only with the first member of every class
    found so far in its bucket.
    """
    buckets: dict[tuple, list[QVector]] = {}
    for row in g.cells:
        for v in row:
            firsts = buckets.setdefault(tuple((i, e * e) for i, e in v.entries), [])
            if not any(phase_equal_by_inner(v, w) for w in firsts):
                firsts.append(v)
    return sum(len(firsts) for firsts in buckets.values())


def canonical_set(cells: Iterable[QVector]) -> frozenset[QVector]:
    """Canonical representatives of an arbitrary bag of vectors."""
    return frozenset(canonicalize(v) for v in cells)


def distinct_elements(g: QLSGrid) -> frozenset[QVector]:
    return cardinality(g).classes


def count_new_elements(g: QLSGrid, baseline: Iterable[QVector]) -> int:
    """How many phase classes of g are absent from the (canonical) baseline."""
    base = baseline if isinstance(baseline, frozenset) else frozenset(baseline)
    return len(distinct_elements(g) - base)


def grid_to_json_dict(g: QLSGrid) -> dict:
    return {
        "order": g.order,
        "provenance": g.provenance,
        "cells": [[vector_to_json_dict(v) for v in row] for row in g.cells],
    }


def grid_from_json_dict(obj: dict) -> QLSGrid:
    if not isinstance(obj, dict) or set(obj) != {"order", "provenance", "cells"}:
        raise ValueError(
            "grid object must have exactly the keys 'order', 'provenance', 'cells'"
        )
    order, prov, cells = obj["order"], obj["provenance"], obj["cells"]
    if type(order) is not int or order < 1:  # type(): JSON true is an int subclass
        raise ValueError(f"bad grid order: {order!r}")
    if not isinstance(prov, str):
        raise ValueError("provenance must be a string")
    if not isinstance(cells, list) or len(cells) != order:
        raise ValueError("cells must be an order x order array")
    interned: dict = {}
    rows = []
    for row in cells:
        if not isinstance(row, list) or len(row) != order:
            raise ValueError("cells must be an order x order array")
        rows.append([_vector_from_json_dict(v, interned) for v in row])
    return QLSGrid(rows, provenance=prov)


@contextmanager
def _gc_paused():
    """Pause the cyclic collector, restoring its previous state on exit."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


_ZEROS = "[],"
_raw_decode = json.JSONDecoder().raw_decode


def _cell_json(v: QVector, texts: dict[RadExt, str]) -> str:
    """One cell's compact JSON; `texts` caches each coefficient's triples."""
    parts = ['{"dim":%d,"entries":[' % v.dim]
    start = 0
    for i, e in v.entries:
        t = texts.get(e)
        if t is None:
            t = texts[e] = json.dumps(e.to_triples(), separators=(",", ":"))
        parts += (_ZEROS * (i - start), t, ",")
        start = i + 1
    parts.append(_ZEROS * (v.dim - start))
    # every coordinate above is followed by a comma; the last one is not
    return "".join(parts)[:-1] + "]}"


def grid_to_json(g: QLSGrid) -> str:
    """Deterministic serialization: fixed key order, no whitespace drift.
    Equal byte for byte to json.dumps(grid_to_json_dict(g),
    separators=(",", ":")) plus a newline, without building that n^3-list
    tree."""
    texts: dict[RadExt, str] = {}
    head = '{"order":%d,"provenance":%s,"cells":[' % (g.order, json.dumps(g.provenance))
    rows = ("[" + ",".join([_cell_json(v, texts) for v in row]) + "]" for row in g.cells)
    return head + ",".join(rows) + "]}\n"


def _is_zero_run(text: str, start: int, stop: int) -> bool:
    """text[start:stop] is "[],"*k: k disjoint copies fill 3k characters."""
    return (stop - start) % 3 == 0 and text.count(_ZEROS, start, stop) * 3 == stop - start


def _canonical_cell(
    text: str, pos: int, end: int, n: int, coeffs: dict[str, RadExt]
) -> tuple | None:
    """The (index, coefficient) pairs of the n coordinates text[pos:end], or
    None when they are not in the writer's layout. A coordinate text is
    decoded and validated on its first appearance, then looked up."""
    pairs = []
    i = 0
    while True:
        nz = text.find("[[", pos, end)
        if nz < 0:
            # the rest are k >= 1 zeros: "[],"*(k-1) + "[]"
            tail = end - 2
            if tail < pos or not _is_zero_run(text, pos, tail) or not text.startswith("[]", tail):
                return None
            i += (tail - pos) // 3 + 1
            break
        if not _is_zero_run(text, pos, nz):
            return None
        i += (nz - pos) // 3
        stop = text.find("]]", nz, end) + 2
        if stop < 2:
            return None
        key = text[nz:stop]
        e = coeffs.get(key)
        if e is None:
            triples, got = _raw_decode(text, nz)
            if got != stop:
                return None
            e = coeffs[key] = RadExt.from_triples(triples)
        pairs.append((i, e))
        i += 1
        if stop == end:
            break
        if text[stop] != ",":
            return None
        pos = stop + 1
    return tuple(pairs) if i == n else None


def _grid_from_canonical(text: str) -> QLSGrid | None:
    """The grid that grid_from_json_dict(json.loads(text)) returns, read one
    cell at a time, for text in grid_to_json's layout; None for any other
    layout. Raises ValueError or RecursionError where the coordinates would
    make the reference raise; the caller then runs the reference for its
    message."""
    if not isinstance(text, str) or not text.startswith('{"order":'):
        return None
    n, pos = _raw_decode(text, len('{"order":'))
    if type(n) is not int or n < 1 or not text.startswith(',"provenance":', pos):
        return None
    prov, pos = _raw_decode(text, pos + len(',"provenance":'))
    if type(prov) is not str or not text.startswith(',"cells":[', pos):
        return None
    pos += len(',"cells":[')
    head = '{"dim":%d,"entries":[' % n
    # what precedes each cell: the first row's "[", a new row's "],[", or ","
    first, new_row, next_cell = "[" + head, "],[" + head, "," + head
    coeffs: dict[str, RadExt] = {}
    rows = []
    for r in range(n):
        row = []
        for c in range(n):
            lead = next_cell if c else new_row if r else first
            if not text.startswith(lead, pos):
                return None
            pos += len(lead)
            end = text.find("]}", pos)
            pairs = None if end < 0 else _canonical_cell(text, pos, end, n, coeffs)
            if pairs is None:
                return None
            row.append(QVector._raw(n, pairs))
            pos = end + 2
        rows.append(row)
    if not text.startswith("]]}", pos) or text[pos + 3:].strip(" \t\n\r"):
        return None
    return QLSGrid(rows, provenance=prov)


def grid_from_json(text: str) -> QLSGrid:
    """Parse grid JSON: the writer's layout streamed cell by cell, anything
    else (and every error) through the json.loads reference path."""
    try:
        g = _grid_from_canonical(text)
    except (ValueError, RecursionError):
        g = None
    if g is not None:
        return g
    with _gc_paused():
        try:
            obj = json.loads(text)
        except RecursionError:
            raise ValueError("grid JSON is nested too deeply") from None
        g = grid_from_json_dict(obj)
        # free the parsed tree while paused: only the grid survives to meet
        # the collector's first pass after it resumes
        del obj
        return g
