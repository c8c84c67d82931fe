"""State vectors with exact radical coordinates, up to a global sign.

A vector is stored sparsely as its dimension and two tuples: `support`, the
ascending indices of its nonzero coordinates, and `coefs`, their
coefficients in the same order; `entries` pairs them up for readers that
want (index, coefficient) pairs. Synthesized cells are |j> tensor (an
order-4 block's vector), so a cell of order 4m has at most 4 nonzero
coordinates, and a tensor with a basis vector is an index shift that keeps
the block cell's `coefs` tuple: every shift of a block cell shares one
coefficient tuple object.

A grid holds few distinct coefficients (about 200 at order 64), so
`inner_product` memoizes its exact sum in `_PRODUCT_MEMO`, keyed on the two
tuples of coefficients at the shared indices. When the supports are equal
(most products in a synthesized grid, and every unit check) the key is
`(u.coefs, v.coefs)` with no merge; otherwise the supports are merged into
two tuples of matched coefficients, the same key form. The memo holds at
most `PRODUCT_MEMO_MAX` (1024) entries and is cleared when full. A miss adds
the integer numerator products over the lcm of the pairs' denominators and
reduces the sum once. Equal coefficients are one object, however they were
made (`RadExt` is hash-consed), so a memo lookup hashes addresses and
compares identities, with no Python-level call, across every grid in the
process.

Vectors are real here: phase equivalence collapses to equality up to -1, and
the canonical representative of a phase class is the vector whose first
nonzero coordinate is positive.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .algebraic import ONE, ZERO, RadExt, _add_product, _neg_of, _sign_of

Coefficient = Union[RadExt, Fraction, int]


def _as_radext(x: Coefficient) -> RadExt:
    if isinstance(x, RadExt):
        return x
    return RadExt.from_rational(x)


class QVector(object):
    """Immutable sparse vector over the radical extension ring; hashable once
    built. `support` holds the ascending indices of the nonzero coordinates
    and `coefs` their coefficients, position by position."""

    __slots__ = ("dim", "support", "coefs", "_hash")

    def __init__(self, coords: Iterable[Coefficient]):
        """Build from the dense list of all `dim` coordinates."""
        support, coefs = [], []
        dim = 0
        for x in coords:
            e = _as_radext(x)
            if e.num:
                support.append(dim)
                coefs.append(e)
            dim += 1
        if not dim:
            raise ValueError("a vector needs at least one coordinate")
        self.dim = dim
        self.support = tuple(support)
        self.coefs = tuple(coefs)
        self._hash = None

    @classmethod
    def _raw(cls, dim: int, support: tuple[int, ...], coefs: tuple[RadExt, ...]) -> "QVector":
        # internal fast path: support ascending and in range, coefs nonzero
        self = object.__new__(cls)
        self.dim = dim
        self.support = support
        self.coefs = coefs
        self._hash = None
        return self

    @property
    def entries(self) -> tuple[tuple[int, RadExt], ...]:
        """The (index, coefficient) pairs of the nonzero coordinates."""
        return tuple(zip(self.support, self.coefs))

    def dense(self) -> tuple[RadExt, ...]:
        """All `dim` coordinates, zeros included."""
        out = [ZERO] * self.dim
        for i, e in zip(self.support, self.coefs):
            out[i] = e
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QVector):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.support == other.support
            and self.coefs == other.coefs
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.dim, self.support, self.coefs))
            self._hash = h
        return h

    def __repr__(self) -> str:
        return f"QVector([{', '.join(map(repr, self.dense()))}])"


def basis_vector(dim: int, k: int) -> QVector:
    """|k> in dimension dim."""
    if not 0 <= k < dim:
        raise ValueError(f"basis index {k} out of range for dimension {dim}")
    return QVector._raw(dim, (k,), (ONE,))


def ket(bits: str) -> QVector:
    """|b1 b2 ... bn> as an iterated two-level tensor product, e.g. ket("01")."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"expected a nonempty string of 0/1 digits, got {bits!r}")
    return basis_vector(2 ** len(bits), int(bits, 2))


#: Entry cap of the inner-product memo; it is cleared when full, so memory
#: stays bounded whatever the input.
PRODUCT_MEMO_MAX = 1024
_PRODUCT_MEMO: dict[tuple[tuple[RadExt, ...], tuple[RadExt, ...]], RadExt] = {}


def inner_product(u: QVector, v: QVector) -> RadExt:
    """Real inner product over the common support; disjoint supports cost no
    arithmetic, equal supports no merge, and a repeated pair of coefficient
    tuples is a memo lookup."""
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} != {v.dim}")
    a, b = u.support, v.support
    if a == b:
        key = (u.coefs, v.coefs)
    else:
        # the coefficients at shared indices, matched position by position
        ka: list[RadExt] = []
        kb: list[RadExt] = []
        ca, cb = u.coefs, v.coefs
        i, j, na, nb = 0, 0, len(a), len(b)
        while i < na and j < nb:
            ia, ib = a[i], b[j]
            if ia == ib:
                ka.append(ca[i])
                kb.append(cb[j])
                i += 1
                j += 1
            elif ia < ib:
                i += 1
            else:
                j += 1
        if not ka:
            return ZERO
        key = (tuple(ka), tuple(kb))
    got = _PRODUCT_MEMO.get(key)
    if got is None:
        pairs = list(zip(*key))
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
    if len(u.coefs) == 1 and u.coefs[0] is ONE:
        # a basis prefix |j>: shift v's support and keep its coefs tuple, so
        # every shift of a block cell shares one coefficient tuple
        off = u.support[0] * dv
        return QVector._raw(u.dim * dv, tuple([off + q for q in v.support]), v.coefs)
    return QVector._raw(
        u.dim * dv,
        tuple([p * dv + q for p in u.support for q in v.support]),
        tuple([ve if ue is ONE else ue * ve for ue in u.coefs for ve in v.coefs]),
    )


def vec_add(u: QVector, v: QVector) -> QVector:
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} != {v.dim}")
    acc = dict(zip(u.support, u.coefs))
    for i, e in zip(v.support, v.coefs):
        acc[i] = acc[i] + e if i in acc else e
    support = tuple(sorted(i for i, e in acc.items() if e.num))
    return QVector._raw(u.dim, support, tuple([acc[i] for i in support]))


def vec_scale(v: QVector, s: Coefficient) -> QVector:
    s = _as_radext(s)
    if not s.num:
        return QVector._raw(v.dim, (), ())
    return QVector._raw(v.dim, v.support, tuple([s * e for e in v.coefs]))


def canonicalize(v: QVector) -> QVector:
    """The phase-class representative: first nonzero coordinate made positive.
    The sign and negations are the ones stored on each coefficient."""
    if v.coefs and _sign_of(v.coefs[0]) < 0:
        return QVector._raw(v.dim, v.support, tuple([_neg_of(e) for e in v.coefs]))
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
    for i, e in zip(v.support, v.coefs):
        entries[i] = e.to_triples()
    return {"dim": v.dim, "entries": entries}


def vector_from_json_dict(obj: dict) -> QVector:
    """Parse one vector from its dense JSON form, validating every coordinate."""
    if not isinstance(obj, dict) or set(obj) != {"dim", "entries"}:
        raise ValueError("vector object must have exactly the keys 'dim' and 'entries'")
    dim, entries = obj["dim"], obj["entries"]
    if type(dim) is not int or dim < 1:  # type(): JSON true is an int subclass
        raise ValueError(f"bad vector dimension: {dim!r}")
    if not isinstance(entries, list) or len(entries) != dim:
        raise ValueError("vector entry count must equal its dimension")
    support, coefs = [], []
    # a zero coordinate is written one way only: the empty list, skipped here;
    # anything else, falsy or not, is checked in index order below
    for i, triples in [(i, t) for i, t in enumerate(entries) if t or type(t) is not list]:
        if type(triples) is not list:
            raise ValueError(
                f"coordinate {i} must be a list of triples, got {type(triples).__name__}"
            )
        support.append(i)
        coefs.append(RadExt.from_triples(triples))
    return QVector._raw(dim, tuple(support), tuple(coefs))
