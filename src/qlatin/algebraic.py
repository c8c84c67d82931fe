"""Exact arithmetic in the ring of rational linear combinations of square roots.

A value is stored as a finite map {squarefree radicand d: rational coefficient q}
and denotes sum(q * sqrt(d)).  The radicand 1 carries the rational part.  Because
square roots of distinct squarefree integers are linearly independent over the
rationals, a value is zero exactly when its map is empty, so equality is a purely
symbolic check.  The sign of a nonzero value is decided by evaluating each root
to an exact dyadic interval and doubling the precision until zero is excluded.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Union

Scalar = Union[int, Fraction]

#: Largest trial divisor used by squarefree_decompose; fixed, so one input has
#: one answer.  A radicand that needs more is a ValueError (the CLI exits 2).
TRIAL_DIVISION_BOUND = 1_000_000

_SIGN_START_BITS = 64


@lru_cache(maxsize=4096)
def _decompose(n: int) -> tuple[int, int]:
    s, d = 1, 1
    p = 2
    while p * p <= n:
        if p > TRIAL_DIVISION_BOUND:
            raise ValueError(
                f"cannot factor {n}: divisor exceeds trial division bound {TRIAL_DIVISION_BOUND}"
            )
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    if n > 1:
        # remaining cofactor is prime: every divisor up to sqrt was tried
        d *= n
    return s, d


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Split n > 0 as s*s*d with d squarefree; returns (s, d)."""
    if n <= 0:
        raise ValueError(f"radicand must be positive, got {n}")
    return _decompose(n)


def _mul_into(
    acc: dict[int, Fraction], tu: Mapping[int, Fraction], tv: Mapping[int, Fraction]
) -> None:
    """Add the product of two canonical term maps into acc, in place; acc
    stays canonical (squarefree keys, nonzero values)."""
    for d1, q1 in tu.items():
        for d2, q2 in tv.items():
            # sqrt(d1)*sqrt(d2) = g*sqrt((d1/g)*(d2/g)) with g = gcd(d1, d2);
            # the cofactors are coprime and squarefree, so no factoring needed
            g = math.gcd(d1, d2)
            rad = (d1 // g) * (d2 // g)
            c = q1 * q2 * g
            prev = acc.get(rad)
            if prev is None:
                acc[rad] = c
            else:
                c = prev + c
                if c:
                    acc[rad] = c
                else:
                    del acc[rad]


def _as_fraction(q: Scalar) -> Fraction:
    if isinstance(q, Fraction):
        return q
    if isinstance(q, int):
        return Fraction(q)
    raise TypeError(f"expected an int or Fraction, got {type(q).__name__}")


class RadExt(object):
    """An element of the extension of Q by square roots of squarefree integers.

    Instances are immutable by contract: `terms` must never be mutated after
    construction.  Arithmetic returns new objects; hashes are cached.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[int, Scalar] = ()):
        clean: dict[int, Fraction] = {}
        for d, q in dict(terms).items():
            if not isinstance(d, int):
                raise TypeError(f"radicand must be an int, got {type(d).__name__}")
            s, rad = squarefree_decompose(d)
            coeff = _as_fraction(q) * s
            if coeff:
                clean[rad] = clean.get(rad, Fraction(0)) + coeff
        self.terms = {d: q for d, q in clean.items() if q}
        self._hash = None

    @classmethod
    def _raw(cls, terms: dict[int, Fraction]) -> "RadExt":
        # internal fast path: terms already canonical (squarefree keys, nonzero values)
        self = object.__new__(cls)
        self.terms = terms
        self._hash = None
        return self

    @classmethod
    def from_rational(cls, q: Scalar) -> "RadExt":
        coeff = _as_fraction(q)
        return cls._raw({1: coeff} if coeff else {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "RadExt | Scalar") -> "RadExt":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for d, q in other.terms.items():
            c = out.get(d)
            if c is None:
                out[d] = q
            else:
                c = c + q
                if c:
                    out[d] = c
                else:
                    del out[d]
        return RadExt._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "RadExt":
        return RadExt._raw({d: -q for d, q in self.terms.items()})

    def __sub__(self, other: "RadExt | Scalar") -> "RadExt":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "RadExt | Scalar") -> "RadExt":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: "RadExt | Scalar") -> "RadExt":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return ZERO
        out: dict[int, Fraction] = {}
        _mul_into(out, self.terms, other.terms)
        return RadExt._raw(out)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RadExt):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == RadExt.from_rational(other).terms
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(tuple(sorted(self.terms.items())))
            self._hash = h
        return h

    def sign(self) -> int:
        """-1, 0 or +1.  Zero is symbolic; nonzero is decided by exact intervals."""
        if not self.terms:
            return 0
        signs = {1 if q > 0 else -1 for q in self.terms.values()}
        if len(signs) == 1:
            # every term q*sqrt(d) has the sign of q
            return signs.pop()
        prec = _SIGN_START_BITS
        while True:
            lo, hi = self._interval(prec)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2

    def _interval(self, prec: int) -> tuple[Fraction, Fraction]:
        lo = hi = Fraction(0)
        unit = Fraction(1, 1 << prec)
        for d, q in self.terms.items():
            if d == 1:
                lo += q
                hi += q
                continue
            a = math.isqrt(d << (2 * prec))
            r_lo, r_hi = a * unit, (a + 1) * unit
            if q > 0:
                lo += q * r_lo
                hi += q * r_hi
            else:
                lo += q * r_hi
                hi += q * r_lo
        return lo, hi

    def to_triples(self) -> list[list[int]]:
        """Serialize as [numerator, denominator, radicand] triples, radicand ascending."""
        return [
            [q.numerator, q.denominator, d] for d, q in sorted(self.terms.items())
        ]

    @classmethod
    def from_triples(cls, triples: list[list[int]]) -> "RadExt":
        """Parse the to_triples form, validating canonical shape. Only lists
        are read, so a JSON object or string never passes as a value."""
        if type(triples) is not list:
            raise ValueError(f"expected a list of triples, got {type(triples).__name__}")
        terms: dict[int, Fraction] = {}
        last_rad = 0
        for item in triples:
            # type(), not isinstance: JSON true must not pass as the integer 1
            if type(item) is not list or len(item) != 3 or not all(type(x) is int for x in item):
                raise ValueError(f"expected [num, den, radicand] integer triple, got {item!r}")
            num, den, rad = item
            if den <= 0:
                raise ValueError(f"denominator must be positive, got {den}")
            if math.gcd(num, den) != 1:
                raise ValueError(f"fraction {num}/{den} is not in lowest terms")
            if num == 0:
                raise ValueError("zero coefficients must be omitted")
            if rad <= last_rad:
                raise ValueError("radicands must be strictly increasing")
            last_rad = rad
            _, squarefree = squarefree_decompose(rad)
            if squarefree != rad:
                raise ValueError(f"radicand {rad} is not squarefree")
            terms[rad] = Fraction(num, den)
        return cls._raw(terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for d, q in sorted(self.terms.items()):
            if d == 1:
                parts.append(str(q))
            elif q == 1:
                parts.append(f"sqrt({d})")
            elif q == -1:
                parts.append(f"-sqrt({d})")
            else:
                parts.append(f"{q}*sqrt({d})")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def _coerce(x: "RadExt | Scalar") -> RadExt:
    if isinstance(x, RadExt):
        return x
    if isinstance(x, (int, Fraction)):
        return RadExt.from_rational(x)
    return NotImplemented


ZERO = RadExt.from_rational(0)
ONE = RadExt.from_rational(1)


def sqrt_rational(q: Scalar) -> RadExt:
    """Exact square root of a nonnegative rational as a single radical term."""
    q = _as_fraction(q)
    if q < 0:
        raise ValueError(f"cannot take a real square root of {q}")
    if q == 0:
        return ZERO
    # sqrt(p/r) = sqrt(p*r)/r
    s, d = squarefree_decompose(q.numerator * q.denominator)
    return RadExt._raw({d: Fraction(s, q.denominator)})
