"""State vectors with exact radical coordinates, up to a global sign.

A vector is stored sparsely: its dimension plus the ascending (index,
coefficient) pairs of its nonzero coordinates. Synthesized cells are
|j> tensor (an order-4 block's vector), so a cell of order 4m has at most 4
nonzero coordinates; inner products merge two supports, and a tensor with a
basis vector is an index shift.

A grid holds few distinct coefficients (about 200 at order 64), so
`inner_product` memoizes its exact sum in `_PRODUCT_MEMO`, keyed on the
coefficient pairs at the shared indices; the memo holds at most
`PRODUCT_MEMO_MAX` (1024) entries and is cleared when full. A miss adds the
integer numerator products over the lcm of the pairs' denominators and reduces
the sum once. Cells that share a block share its coefficient objects, and grid
JSON parsing interns equal coefficients, so most memo lookups compare by
identity; the rest compare integers, since a value has one stored form.

Vectors are real here: phase equivalence collapses to equality up to -1, and
the canonical representative of a phase class is the vector whose first
nonzero coordinate is positive.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .algebraic import ONE, ZERO, RadExt, _add_product

Coefficient = Union[RadExt, Fraction, int]


def _as_radext(x: Coefficient) -> RadExt:
    if isinstance(x, RadExt):
        return x
    return RadExt.from_rational(x)


class QVector(object):
    """Immutable sparse vector over the radical extension ring; hashable once
    built. `entries` holds the (index, coefficient) pairs of the nonzero
    coordinates, indices ascending."""

    __slots__ = ("dim", "entries", "_hash")

    def __init__(self, coords: Iterable[Coefficient]):
        """Build from the dense list of all `dim` coordinates."""
        pairs = []
        dim = 0
        for x in coords:
            e = _as_radext(x)
            if e.num:
                pairs.append((dim, e))
            dim += 1
        if not dim:
            raise ValueError("a vector needs at least one coordinate")
        self.dim = dim
        self.entries = tuple(pairs)
        self._hash = None

    @classmethod
    def _raw(cls, dim: int, pairs: tuple[tuple[int, RadExt], ...]) -> "QVector":
        # internal fast path: pairs already ascending, in range, and nonzero
        self = object.__new__(cls)
        self.dim = dim
        self.entries = pairs
        self._hash = None
        return self

    def dense(self) -> tuple[RadExt, ...]:
        """All `dim` coordinates, zeros included."""
        out = [ZERO] * self.dim
        for i, e in self.entries:
            out[i] = e
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QVector):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.dim, self.entries))
            self._hash = h
        return h

    def __repr__(self) -> str:
        return f"QVector([{', '.join(map(repr, self.dense()))}])"


def basis_vector(dim: int, k: int) -> QVector:
    """|k> in dimension dim."""
    if not 0 <= k < dim:
        raise ValueError(f"basis index {k} out of range for dimension {dim}")
    return QVector._raw(dim, ((k, ONE),))


def ket(bits: str) -> QVector:
    """|b1 b2 ... bn> as an iterated two-level tensor product, e.g. ket("01")."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"expected a nonempty string of 0/1 digits, got {bits!r}")
    return basis_vector(2 ** len(bits), int(bits, 2))


#: Entry cap of the inner-product memo; it is cleared when full, so memory
#: stays bounded whatever the input.
PRODUCT_MEMO_MAX = 1024
_PRODUCT_MEMO: dict[tuple[RadExt, ...], RadExt] = {}


def inner_product(u: QVector, v: QVector) -> RadExt:
    """Real inner product over the common support; disjoint supports cost no
    arithmetic, and a repeated set of coefficient pairs is a memo lookup."""
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} != {v.dim}")
    a, b = u.entries, v.entries
    if not a or not b or a[-1][0] < b[0][0] or b[-1][0] < a[0][0]:
        return ZERO
    # the coefficients at shared indices, flattened as ea, eb, ea, eb, ...
    key: list[RadExt] = []
    i, j, na, nb = 0, 0, len(a), len(b)
    while i < na and j < nb:
        ia, ea = a[i]
        ib, eb = b[j]
        if ia == ib:
            key += (ea, eb)
            i += 1
            j += 1
        elif ia < ib:
            i += 1
        else:
            j += 1
    if not key:
        return ZERO
    key = tuple(key)
    got = _PRODUCT_MEMO.get(key)
    if got is None:
        pairs = list(zip(key[::2], key[1::2]))
        den = math.lcm(*(x.den * y.den for x, y in pairs))
        acc: dict[int, int] = {}
        for x, y in pairs:
            _add_product(acc, x.num, y.num, den // (x.den * y.den))
        got = RadExt._reduced(den, acc)
        if len(_PRODUCT_MEMO) >= PRODUCT_MEMO_MAX:
            _PRODUCT_MEMO.clear()
        _PRODUCT_MEMO[key] = got
    return got


def tensor(u: QVector, v: QVector) -> QVector:
    """Tensor product with u-major coordinate order: entry p*dim(v)+q is u_p*v_q."""
    dv = v.dim
    # a basis prefix |j> multiplies by ONE: reuse v's coefficients, so a
    # synthesized cell shares them with its block instead of copying
    return QVector._raw(
        u.dim * dv,
        tuple(
            (p * dv + q, ve if ue is ONE else ue * ve)
            for p, ue in u.entries
            for q, ve in v.entries
        ),
    )


def vec_add(u: QVector, v: QVector) -> QVector:
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} != {v.dim}")
    acc = dict(u.entries)
    for i, e in v.entries:
        acc[i] = acc[i] + e if i in acc else e
    return QVector._raw(u.dim, tuple((i, e) for i, e in sorted(acc.items()) if e.num))


def vec_scale(v: QVector, s: Coefficient) -> QVector:
    s = _as_radext(s)
    if not s.num:
        return QVector._raw(v.dim, ())
    return QVector._raw(v.dim, tuple((i, s * e) for i, e in v.entries))


def vec_neg(v: QVector) -> QVector:
    return QVector._raw(v.dim, tuple((i, -e) for i, e in v.entries))


def canonicalize(v: QVector) -> QVector:
    """The phase-class representative: first nonzero coordinate made positive."""
    if v.entries and v.entries[0][1].sign() < 0:
        return vec_neg(v)
    return v


def phase_equal(u: QVector, v: QVector) -> bool:
    """True when u = v or u = -v."""
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} != {v.dim}")
    return canonicalize(u) == canonicalize(v)


def phase_equal_by_inner(u: QVector, v: QVector) -> bool:
    """Independent check for unit vectors: <u,v>^2 = 1 iff they share a phase class."""
    ip = inner_product(u, v)
    return ip * ip == ONE


def format_vector(v: QVector, labels: tuple[str, ...] | None = None) -> str:
    """Human-readable rendering like "3/5|0> + 4/5|1>"."""
    if labels is None:
        labels = tuple(str(i) for i in range(v.dim))
    parts = []
    for lab, e in zip(labels, v.dense()):
        if e.is_zero:
            continue
        coeff = repr(e)
        if coeff == "1":
            parts.append(f"|{lab}>")
        elif coeff == "-1":
            parts.append(f"-|{lab}>")
        elif "+" in coeff or " - " in coeff:
            parts.append(f"({coeff})|{lab}>")
        else:
            parts.append(f"{coeff}|{lab}>")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def vector_to_json_dict(v: QVector) -> dict:
    """The dense JSON form: one triple list per coordinate, [] for a zero."""
    entries: list[list] = [[] for _ in range(v.dim)]
    for i, e in v.entries:
        entries[i] = e.to_triples()
    return {"dim": v.dim, "entries": entries}


def vector_from_json_dict(obj: dict) -> QVector:
    return _vector_from_json_dict(obj, {})


def _vector_from_json_dict(obj: dict, interned: dict[tuple, RadExt]) -> QVector:
    """Parse one vector; a coefficient whose triples are already in `interned`
    is replaced by that object, so equal values read from one grid share it."""
    if not isinstance(obj, dict) or set(obj) != {"dim", "entries"}:
        raise ValueError("vector object must have exactly the keys 'dim' and 'entries'")
    dim, entries = obj["dim"], obj["entries"]
    if type(dim) is not int or dim < 1:  # type(): JSON true is an int subclass
        raise ValueError(f"bad vector dimension: {dim!r}")
    if not isinstance(entries, list) or len(entries) != dim:
        raise ValueError("vector entry count must equal its dimension")
    pairs = []
    # a zero coordinate is written one way only: the empty list, skipped here;
    # anything else, falsy or not, is checked in index order below
    for i, triples in [(i, t) for i, t in enumerate(entries) if t or type(t) is not list]:
        if type(triples) is not list:
            raise ValueError(
                f"coordinate {i} must be a list of triples, got {type(triples).__name__}"
            )
        # keyed on the triples only after from_triples has validated them as
        # exact ints, so JSON true never aliases 1
        e = RadExt.from_triples(triples)
        pairs.append((i, interned.setdefault(tuple(map(tuple, triples)), e)))
    return QVector._raw(dim, tuple(pairs))
