"""Quantum Latin squares and row rectangles: the data model, exact
verification, and cardinality counting.

A grid of order n passes verification when all n*n cells are unit vectors
and every row and every column is pairwise orthogonal; n orthonormal
vectors in dimension n are automatically a basis. Within a line, only the
pairs of cells that share a nonzero coordinate are tested, each once, as
read from an index of the cells holding each coordinate: a pair with
disjoint supports is orthogonal by structure, and the violation reported is
the least failing (p, q), the one a scan of all pairs finds first. A row
rectangle passes when its cells are units and each row is orthogonal; its
columns are not checked, so repeated rows pass. Cardinality is the size of
the set of phase-equivalence classes of the cells, each class held as its
canonical form (`canonical_set`); an independent oracle recounts them by
exact inner products, bucketed on each cell's support and squared
coefficients, without the canonical form. Each sign, negation and square is
the one stored on its value, so a recount computes none of them again.

A batch of grids that share cell objects, as `synthesis.execute_plans`
builds them, is verified and counted through one private table set
(`_GridWork`), a local of the batch: each cell that passed its unit test,
with its canonical form, keyed on its id; each distinct line's verdict (its
least failing pair, or none) keyed on the tuple of its cells' ids; each
distinct row's classes under the same key object as its verdict. The cell
table holds every cell a key names, so no id is reused while the tables
live, whatever the caller keeps. A line met again in a later grid is then
one lookup. The reports are those `verify_qls` and `cardinality` give,
and a lone grid takes their path, with no id table.

Grid JSON costs time and memory in proportion to a grid's nonzero
coordinates, not its n^3 coordinates, and its bytes are those of
`json.dumps(grid_to_json_dict(g), separators=(",", ":"))` plus a newline:

- the writer renders each distinct coefficient's triple list once and writes
  a run of k zero coordinates as `"[],"*k`;
- the reader walks the writer's exact layout one cell at a time: it matches
  the fixed skeleton and each cell head literally, checks each run of zeros
  with `str.count`, and decodes and validates each distinct coordinate text
  once (`JSONDecoder.raw_decode`, then `RadExt.from_triples`), filling each
  cell's `support` and `coefs` as it goes; it keeps no table of cell texts,
  which would hold a copy of every distinct cell, about the file's size
  when the cells are distinct;
- any other layout, and any error, falls back to `json.loads` and
  `grid_from_json_dict`, the reference that decides what is accepted and
  what every error says; it rejects an object that repeats a key, since
  `json.loads` would keep the last value and give one grid many encodings.

Only the fallback pauses the cyclic garbage collector (restoring its
previous state): the lists and dicts `json.loads` builds hold no cycles, so
reference counting frees them, and the collector's passes over millions of
young containers would cost more than the parse. Every path reads a cell as
its `support` and `coefs` tuples: the holder index walks `support`, the
writer zips the two, both readers fill them directly, and the oracle's
bucket key is `support` with the squared `coefs`. A cell's unit test and
its squared `coefs` depend on the `coefs` tuple alone, whatever the
support, and a synthesized grid shifts each block cell's tuple onto one
support per diagonal, so each is worked out once per distinct tuple, in
a table local to the call. Equal coefficients are one object however
they were built or read (`RadExt` is hash-consed), so the inner-product
memo and the batch tables find them by address and identity, equal
tuples compare with no Python-level call, and a cell is a unit vector
when its square norm `is ONE`; the streamed reader's text-keyed cache
only saves decoding a coordinate text twice.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from itertools import chain, combinations
from typing import Iterable, NamedTuple, Sequence

from .algebraic import ONE, RadExt, _square_of
from .vectors import (
    QVector,
    canonicalize,
    inner_product,
    vector_from_json_dict,
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

    @classmethod
    def _raw(cls, rows: tuple[tuple[QVector, ...], ...], provenance: str) -> "QLSGrid":
        # internal fast path: rows is a nonempty n-tuple of n-tuples of
        # dimension-n cells, as a caller assembling checked blocks guarantees
        self = object.__new__(cls)
        self.order = len(rows)
        self.cells = rows
        self.provenance = provenance
        self._verify_report = None
        self._card_report = None
        return self

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


def _least_bad_pair(cells: Sequence[QVector]) -> tuple[int, int] | tuple[()]:
    """The least (p, q) whose cells in the line are not orthogonal, or ()."""
    # positions holding each coordinate, ascending
    holders: dict[int, list[int]] = {}
    for p, v in enumerate(cells):
        for i in v.support:
            h = holders.get(i)
            if h is None:
                holders[i] = [p]
            else:
                h.append(p)
    # each pair that shares a coordinate, once; equal holder lists (all of
    # them in a dense line) give equal pairs, so each is expanded once
    groups = {tuple(h) for h in holders.values() if len(h) > 1}
    pairs = {pq for h in groups for pq in combinations(h, 2)}
    bad = [(p, q) for p, q in pairs if not inner_product(cells[p], cells[q]).is_zero]
    return min(bad) if bad else ()


def _line_failure(kind: str, index: int, pair: tuple[int, int]) -> VerificationReport:
    p, q = pair
    return VerificationReport(
        ok=False,
        message=f"{kind} {index}: cells {p} and {q} are not orthogonal",
        location=(kind, index, p, q),
    )


def _unit_failure(r: int, c: int) -> VerificationReport:
    return VerificationReport(
        ok=False, message=f"cell ({r},{c}) is not a unit vector", location=("unit", r, c)
    )


def _check_lines(kind: str, lines: Iterable[Sequence[QVector]]) -> VerificationReport | None:
    for index, cells in enumerate(lines):
        bad = _least_bad_pair(cells)
        if bad:
            return _line_failure(kind, index, bad)
    return None


def _check_units(rows: Sequence[Sequence[QVector]]) -> VerificationReport | None:
    # <v,v> is the sum of the squares of v.coefs, whatever the support, so
    # each distinct coefficient tuple is tested once; a failing tuple never
    # enters `units`, so the cell reported is the first a per-cell scan fails
    units: set[tuple[RadExt, ...]] = set()
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if v.coefs not in units:
                if inner_product(v, v) is not ONE:
                    return _unit_failure(r, c)
                units.add(v.coefs)
    return None


def _verify(g: QLSGrid, check_units, check_lines) -> VerificationReport:
    """The first failing unit, row or column of g, by the given checks;
    cached on the grid."""
    if g._verify_report is None:
        g._verify_report = (
            check_units(g.cells)
            or check_lines("row", g.cells)
            or check_lines("col", zip(*g.cells))
            or VerificationReport(ok=True)
        )
    return g._verify_report


def _count(g: QLSGrid, verify, classes) -> CardinalityReport:
    """The phase classes of a grid that `verify` passes, as `classes` finds
    them; cached on the grid."""
    if g._card_report is None:
        verdict = verify(g)
        if not verdict.ok:
            raise ValueError(f"grid is not a QLS: {verdict.message}")
        forms = classes(g)
        g._card_report = CardinalityReport(cardinality=len(forms), classes=forms)
    return g._card_report


class _GridWork(object):
    """verify and count for a batch of grids, sharing their work. A cell is
    keyed on its id and a line on the tuple of its cells' ids, and the
    tables hold every cell they key on, so no id names another object while
    they live:

    - `cells`: each cell that passed its unit test, with its canonical form;
      every cell in a line key below is here;
    - `lines`: each distinct line's verdict, its least failing pair or ();
    - `row_classes`: each passing row's canonical forms, keyed on the same
      object as the row's verdict: `verify` makes one key per row of a grid;
    - `forms`: one object for each distinct canonical form.

    A row met again costs a lookup per cell and one per line table. The
    tables are locals of one batch."""

    __slots__ = ("cells", "lines", "row_classes", "forms")

    def __init__(self) -> None:
        self.cells: dict[int, tuple[QVector, QVector]] = {}
        self.lines: dict[tuple[int, ...], tuple[int, int] | tuple[()]] = {}
        self.row_classes: dict[tuple[int, ...], frozenset[QVector]] = {}
        self.forms: dict[tuple, QVector] = {}

    def _form(self, v: QVector) -> QVector | None:
        """v's canonical form once v passes its unit test, else None."""
        got = self.cells.get(id(v))
        if got is None:
            if inner_product(v, v) is not ONE:
                return None
            # equal forms are one object, so merging rows compares none
            f = canonicalize(v)
            got = self.cells[id(v)] = (v, self.forms.setdefault((f.dim, f.support, f.coefs), f))
        return got[1]

    def _units(self, rows: Sequence[Sequence[QVector]]) -> VerificationReport | None:
        held, form = self.cells.__contains__, self._form
        for r, row in enumerate(rows):
            if all(map(held, map(id, row))):
                continue
            for c, v in enumerate(row):
                if form(v) is None:
                    return _unit_failure(r, c)
        return None

    def _lines(self, kind: str, lines: Iterable[Sequence[QVector]]) -> VerificationReport | None:
        verdicts, classes, form = self.lines, self.row_classes, self._form
        for index, cells in enumerate(lines):
            key = tuple([id(v) for v in cells])
            bad = verdicts.get(key)
            if bad is None:
                bad = verdicts[key] = _least_bad_pair(cells)
                if kind == "row" and not bad:
                    classes[key] = frozenset(map(form, cells))
            if bad:
                return _line_failure(kind, index, bad)
        return None

    def _classes(self, g: QLSGrid) -> frozenset[QVector]:
        # a row first met as a column, or verified elsewhere, has no entry
        known, form = self.row_classes, self._form
        rows = [known.get(tuple([id(v) for v in row])) or frozenset(map(form, row)) for row in g.cells]
        return frozenset().union(*rows)

    def verify(self, g: QLSGrid) -> VerificationReport:
        """verify_qls(g), through the tables."""
        return _verify(g, self._units, self._lines)

    def count(self, g: QLSGrid) -> CardinalityReport:
        """cardinality(g), through the tables."""
        return _count(g, self.verify, self._classes)


def check_orthonormal(vectors: Sequence[QVector]) -> VerificationReport | None:
    """The first violation of orthonormality among the vectors, checked as
    the one row of a grid, or None: location ("unit", 0, p) for a non-unit
    vector p, ("row", 0, p, q) for the first non-orthogonal pair p < q."""
    return _check_units((vectors,)) or _check_lines("row", (vectors,))


def verify_qls(g: QLSGrid) -> VerificationReport:
    """Check every unit and orthogonality equation exactly; cached per grid."""
    return _verify(g, _check_units, _check_lines)


def verify_row_qlr(r: RowQLR) -> VerificationReport:
    """Rows must be orthonormal; columns are unchecked, so repeated rows pass."""
    return _check_units(r.cells) or _check_lines("row", r.cells) or VerificationReport(ok=True)


def cardinality(g: QLSGrid) -> CardinalityReport:
    """Count phase classes by canonical form; requires a verified grid."""
    return _count(g, verify_qls, _cell_classes)


def _cell_classes(g: QLSGrid) -> frozenset[QVector]:
    return canonical_set(chain.from_iterable(g.cells))


def cardinality_oracle(g: QLSGrid) -> int:
    """Independent count of phase classes by <u,v>^2 = 1, with no use of
    canonicalize or sign: only symbolic products and the symbolic zero test.

    Precondition: the cells are unit vectors, as in a verified grid; for unit
    vectors <u,v>^2 = 1 exactly when u = +-v. Since u = +-v forces the same
    support and the same squared coefficients, cells are bucketed on those,
    and each cell is compared only with the first member of every class
    found so far in its bucket. Each square, of a coefficient or an inner
    product, is the one stored on the value, and the squares of a `coefs`
    tuple are gathered once per distinct tuple.
    """
    buckets: dict[tuple, list[QVector]] = {}
    squares: dict[tuple[RadExt, ...], tuple[RadExt, ...]] = {}
    for row in g.cells:
        for v in row:
            sq = squares.get(v.coefs)
            if sq is None:
                sq = squares[v.coefs] = tuple([_square_of(e) for e in v.coefs])
            key = (v.support, sq)
            firsts = buckets.get(key)
            if firsts is None:
                buckets[key] = [v]
                continue
            for w in firsts:
                if _square_of(inner_product(v, w)) is ONE:
                    break
            else:
                firsts.append(v)
    return sum(len(firsts) for firsts in buckets.values())


def canonical_set(cells: Iterable[QVector]) -> frozenset[QVector]:
    """Canonical representatives of an arbitrary bag of vectors, as
    canonicalize gives them."""
    return frozenset(map(canonicalize, cells))


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
    rows = []
    for row in cells:
        if not isinstance(row, list) or len(row) != order:
            raise ValueError("cells must be an order x order array")
        rows.append([vector_from_json_dict(v) for v in row])
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


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict, or ValueError naming (the start of) a key it
    repeats."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"grid JSON repeats the key {key[:40]!r}")
        obj[key] = value
    return obj


_ZEROS = "[],"
_raw_decode = json.JSONDecoder().raw_decode


def _cell_json(v: QVector, texts: dict[RadExt, str]) -> str:
    """One cell's compact JSON; `texts` caches each coefficient's triples."""
    parts = ['{"dim":%d,"entries":[' % v.dim]
    start = 0
    for i, e in zip(v.support, v.coefs):
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
) -> QVector | None:
    """The cell of the n coordinates text[pos:end], or None when they are
    not in the writer's layout. A coordinate text is decoded and validated
    on its first appearance, then looked up."""
    support, coefs = [], []
    add_index, add_coef = support.append, coefs.append
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
        if nz != pos:
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
        add_index(i)
        add_coef(e)
        i += 1
        if stop == end:
            break
        if text[stop] != ",":
            return None
        pos = stop + 1
    return QVector._raw(n, tuple(support), tuple(coefs)) if i == n else None


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
            if end < 0:
                return None
            v = _canonical_cell(text, pos, end, n, coeffs)
            if v is None:
                return None
            row.append(v)
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
            obj = json.loads(text, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError("grid JSON is nested too deeply") from None
        g = grid_from_json_dict(obj)
        # free the parsed tree while paused: only the grid survives to meet
        # the collector's first pass after it resumes
        del obj
        return g
