"""State vectors with exact radical coordinates, up to a global sign.

Vectors are real here: phase equivalence collapses to equality up to -1, and
the canonical representative of a phase class is the vector whose first
nonzero coordinate is positive.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .algebraic import ONE, ZERO, RadExt, _mul_into

Coefficient = Union[RadExt, Fraction, int]


def _as_radext(x: Coefficient) -> RadExt:
    if isinstance(x, RadExt):
        return x
    return RadExt.from_rational(x)


class QVector(object):
    """Immutable vector over the radical extension ring; hashable once built."""

    __slots__ = ("entries", "_hash")

    def __init__(self, entries: Iterable[Coefficient]):
        self.entries = tuple(_as_radext(e) for e in entries)
        if not self.entries:
            raise ValueError("a vector needs at least one coordinate")
        self._hash = None

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QVector):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.entries)
            self._hash = h
        return h

    def __repr__(self) -> str:
        return f"QVector([{', '.join(map(repr, self.entries))}])"


def basis_vector(dim: int, k: int) -> QVector:
    """|k> in dimension dim."""
    if not 0 <= k < dim:
        raise ValueError(f"basis index {k} out of range for dimension {dim}")
    return QVector([ONE if i == k else ZERO for i in range(dim)])


def ket(bits: str) -> QVector:
    """|b1 b2 ... bn> as an iterated two-level tensor product, e.g. ket("01")."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"expected a nonempty string of 0/1 digits, got {bits!r}")
    return basis_vector(2 ** len(bits), int(bits, 2))


def inner_product(u: QVector, v: QVector) -> RadExt:
    """Real inner product; accumulates term maps directly to stay cheap."""
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} != {v.dim}")
    acc: dict[int, Fraction] = {}
    for ue, ve in zip(u.entries, v.entries):
        tu = ue.terms
        if not tu:
            continue
        tv = ve.terms
        if tv:
            _mul_into(acc, tu, tv)
    return RadExt._raw(acc)


def is_unit(v: QVector) -> bool:
    return inner_product(v, v) == ONE


def tensor(u: QVector, v: QVector) -> QVector:
    """Tensor product with u-major coordinate order: entry p*dim(v)+q is u_p*v_q."""
    entries = []
    for ue in u.entries:
        if not ue.terms:
            entries.extend([ZERO] * v.dim)
        else:
            entries.extend(ue * ve for ve in v.entries)
    out = QVector.__new__(QVector)
    out.entries = tuple(entries)
    out._hash = None
    return out


def vec_add(u: QVector, v: QVector) -> QVector:
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} != {v.dim}")
    return QVector([a + b for a, b in zip(u.entries, v.entries)])


def vec_scale(v: QVector, s: Coefficient) -> QVector:
    s = _as_radext(s)
    return QVector([s * e for e in v.entries])


def vec_neg(v: QVector) -> QVector:
    return QVector([-e for e in v.entries])


def canonicalize(v: QVector) -> QVector:
    """The phase-class representative: first nonzero coordinate made positive."""
    for e in v.entries:
        s = e.sign()
        if s > 0:
            return v
        if s < 0:
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
    for lab, e in zip(labels, v.entries):
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
    return {"dim": v.dim, "entries": [e.to_triples() for e in v.entries]}


def vector_from_json_dict(obj: dict) -> QVector:
    if not isinstance(obj, dict) or set(obj) != {"dim", "entries"}:
        raise ValueError("vector object must have exactly the keys 'dim' and 'entries'")
    dim, entries = obj["dim"], obj["entries"]
    if type(dim) is not int or dim < 1:  # type(): JSON true is an int subclass
        raise ValueError(f"bad vector dimension: {dim!r}")
    if not isinstance(entries, list) or len(entries) != dim:
        raise ValueError("vector entry count must equal its dimension")
    return QVector([RadExt.from_triples(t) for t in entries])
