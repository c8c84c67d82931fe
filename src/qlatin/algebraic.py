"""Exact arithmetic in the ring of rational linear combinations of square roots.

A value is stored as one integer denominator den >= 1 and a finite map
{squarefree radicand d: nonzero integer numerator n}, and denotes
sum(n * sqrt(d)) / den.  The radicand 1 carries the rational part.  The pair
is kept in lowest terms, gcd(den, every n) = 1, with zero as den 1 and the
empty map.  Because square roots of distinct squarefree integers are linearly
independent over the rationals, each value then has exactly one stored form,
and a value is zero exactly when its map is empty.  Values are hash-consed
(Filliatre and Conchon, "Type-safe modular hash-consing", ML Workshop 2006):
every constructor returns the one live object for its stored form, held in a
weak table keyed on that form, so equality is identity and hashing is by
address, both purely symbolic and neither running Python code when a dict or
set looks a value up.  Scalars compared with a value are converted to a value
first.  The sign of a nonzero value
is decided by bounding each root with an integer square root at a binary
precision, doubling the precision until the bounds exclude zero.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from typing import Union

Scalar = Union[int, Fraction]

#: Largest trial divisor used by squarefree_decompose; fixed, so one input has
#: one answer.  A radicand that needs more is a ValueError (the CLI exits 2).
#: Arithmetic never refuses a value; the writer (to_triples) refuses one that
#: holds such a radicand, so the grid reader reads back every value written.
TRIAL_DIVISION_BOUND = 1_000_000

#: Largest radicand, in bits, that squarefree_decompose accepts: it refuses a
#: larger one before any division, which bounds the cost of each division of
#: the trial loop.  A product can make a larger radicand from two smaller
#: ones; arithmetic builds it, and the writer (to_triples) refuses it, so the
#: grid reader accepts every value written.  Fixed, so one input has one answer.
RADICAND_MAX_BITS = 1024

_SIGN_START_BITS = 64


@lru_cache(maxsize=4096)
def _decompose(n: int) -> tuple[int, int]:
    s, d = 1, 1
    p = 2
    while p * p <= n:
        if p > TRIAL_DIVISION_BOUND:
            # a long radicand is named by its size: its digits would make the
            # message as long as the input, or too long for str() to print
            what = n if n.bit_length() <= 64 else f"a {n.bit_length()}-bit radicand"
            raise ValueError(
                f"cannot factor {what}: divisor exceeds trial division bound {TRIAL_DIVISION_BOUND}"
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
    """Split n > 0 as s*s*d with d squarefree; returns (s, d). A radicand
    over RADICAND_MAX_BITS bits, or one that needs a trial divisor over
    TRIAL_DIVISION_BOUND, is a ValueError."""
    if n <= 0:
        raise ValueError(f"radicand must be positive, got {n}")
    if n.bit_length() > RADICAND_MAX_BITS:
        raise ValueError(
            f"cannot factor a {n.bit_length()}-bit radicand: "
            f"exceeds the cap of {RADICAND_MAX_BITS} bits"
        )
    return _decompose(n)


def _add_product(
    acc: dict[int, int], u: Mapping[int, int], v: Mapping[int, int], scale: int
) -> None:
    """Add scale times the product of two numerator maps into acc, in place.
    Keys stay squarefree; terms that cancel are left as zeros for
    RadExt._reduced to drop."""
    for d1, n1 in u.items():
        n1 *= scale
        for d2, n2 in v.items():
            # sqrt(d1)*sqrt(d2) = g*sqrt((d1/g)*(d2/g)) with g = gcd(d1, d2);
            # the cofactors are coprime and squarefree, so no factoring needed
            g = math.gcd(d1, d2)
            rad = (d1 // g) * (d2 // g)
            acc[rad] = acc.get(rad, 0) + n1 * n2 * g


def _ratio(q: Scalar) -> tuple[int, int]:
    """The numerator and positive denominator of an int or Fraction, in lowest terms."""
    if isinstance(q, (int, Fraction)):
        return q.numerator, q.denominator
    raise TypeError(f"expected an int or Fraction, got {type(q).__name__}")


class RadExt(object):
    """An element of the extension of Q by square roots of squarefree integers.

    The value is sum(num[d] * sqrt(d)) / den, stored in lowest terms: `den`
    is a positive int, `num` maps squarefree radicands to nonzero ints, and
    no integer > 1 divides den and every numerator.  Every constructor
    reduces, then returns the live object with those fields if there is one
    (`_raw`), so equal values are one object: `==` between two values and
    `hash` compare identity, and copying or pickling returns the same object.
    Instances are immutable by contract, since they are shared: `den` and
    `num` must never be mutated after construction.
    """

    __slots__ = ("den", "num", "__weakref__")

    def __new__(cls, terms: Mapping[int, Scalar] = ()) -> "RadExt":
        parts = []
        for d, q in dict(terms).items():
            if not isinstance(d, int):
                raise TypeError(f"radicand must be an int, got {type(d).__name__}")
            s, rad = squarefree_decompose(d)
            n, r = _ratio(q)
            parts.append((rad, n * s, r))
        den = math.lcm(*(r for _, _, r in parts))
        acc: dict[int, int] = {}
        for rad, n, r in parts:
            acc[rad] = acc.get(rad, 0) + n * (den // r)
        return cls._reduced(den, acc)

    @classmethod
    def _raw(cls, den: int, num: dict[int, int]) -> "RadExt":
        """internal: the one live object for (den, num), which must already be
        in lowest terms; every constructor ends here.  It only interns, so
        arithmetic never refuses a value: the radicand limits are checked
        where a value is factored on entry, and by to_triples on exit."""
        key = (den, *sorted(num.items()))
        self = _LIVE.get(key)
        if self is None:
            self = object.__new__(cls)
            self.den = den
            self.num = num
            _LIVE[key] = self
        return self

    @classmethod
    def _reduced(cls, den: int, acc: dict[int, int]) -> "RadExt":
        """internal: sum(acc[d] * sqrt(d)) / den for den >= 1 and squarefree
        keys, brought to lowest terms; zero entries are dropped."""
        num = {d: n for d, n in acc.items() if n}
        g = math.gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {d: n // g for d, n in num.items()}
        return cls._raw(den, num)

    @classmethod
    def from_rational(cls, q: Scalar) -> "RadExt":
        n, r = _ratio(q)
        return cls._raw(r, {1: n} if n else {})

    @property
    def terms(self) -> "Mapping[int, Fraction]":
        """The value as a read-only {radicand: rational coefficient} view."""
        return _Terms(self)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other: "RadExt | Scalar") -> "RadExt":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        out = {d: n * sa for d, n in self.num.items()}
        for d, n in other.num.items():
            out[d] = out.get(d, 0) + n * sb
        return RadExt._reduced(den, out)

    __radd__ = __add__

    def __neg__(self) -> "RadExt":
        return RadExt._raw(self.den, {d: -n for d, n in self.num.items()})

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
        if not self.num or not other.num:
            return ZERO
        out: dict[int, int] = {}
        _add_product(out, self.num, other.num, 1)
        return RadExt._reduced(self.den * other.den, out)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RadExt):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # one object per value: identity is equality
        return self is other

    # by address, which is stable while the object lives, and equal values
    # are one object
    __hash__ = object.__hash__

    def __reduce__(self):
        # copy, deepcopy and pickle go through _raw, so they return the
        # interned object instead of writing fields into a fresh one
        return RadExt._raw, (self.den, self.num)

    def sign(self) -> int:
        """-1, 0 or +1.  Zero is symbolic; nonzero is decided by exact intervals."""
        if not self.num:
            return 0
        signs = {1 if n > 0 else -1 for n in self.num.values()}
        if len(signs) == 1:
            # every term n*sqrt(d) has the sign of n
            return signs.pop()
        prec = _SIGN_START_BITS
        while True:
            # integer bounds on den * 2**prec times the value; both factors
            # are positive, so the bounds decide its sign
            lo = hi = 0
            for d, n in self.num.items():
                if d == 1:
                    lo += n << prec
                    hi += n << prec
                    continue
                # a <= sqrt(d) * 2**prec < a + 1
                a = math.isqrt(d << (2 * prec))
                if n > 0:
                    lo += n * a
                    hi += n * (a + 1)
                else:
                    lo += n * (a + 1)
                    hi += n * a
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2

    def to_triples(self) -> list[list[int]]:
        """Serialize as [numerator, denominator, radicand] triples, radicand
        ascending.  A radicand the reader would refuse is a ValueError with
        the reader's message; one up to TRIAL_DIVISION_BOUND**2 factors within
        the bound and is under the bit cap, so only larger ones are factored."""
        den = self.den
        out = []
        for d, n in sorted(self.num.items()):
            if d > TRIAL_DIVISION_BOUND**2:
                squarefree_decompose(d)
            g = math.gcd(n, den)
            out.append([n // g, den // g, d])
        return out

    @classmethod
    def from_triples(cls, triples: list[list[int]]) -> "RadExt":
        """Parse the to_triples form, validating canonical shape. Only lists
        are read, so a JSON object or string never passes as a value."""
        if type(triples) is not list:
            raise ValueError(f"expected a list of triples, got {type(triples).__name__}")
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
        # each triple is reduced, so over their lcm the form is too
        den = math.lcm(*(r for _, r, _ in triples))
        return cls._raw(den, {d: n * (den // r) for n, r, d in triples})

    def __repr__(self) -> str:
        if not self.num:
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


class _Terms(Mapping):
    """{radicand: Fraction} over a RadExt's fields; a coefficient is made only
    when read, so a length or truth test costs no Fraction."""

    __slots__ = ("_x",)

    def __init__(self, x: RadExt):
        self._x = x

    def __getitem__(self, d: int) -> Fraction:
        return Fraction(self._x.num[d], self._x.den)

    def __iter__(self):
        return iter(self._x.num)

    def __len__(self) -> int:
        return len(self._x.num)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


#: Every live RadExt, keyed on its lowest-terms (den, *sorted(num.items()));
#: held weakly, so a value no longer referenced leaves the table.
_LIVE: "weakref.WeakValueDictionary[tuple, RadExt]" = weakref.WeakValueDictionary()


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
    p, r = _ratio(q)
    if p < 0:
        raise ValueError(f"cannot take a real square root of {q}")
    if p == 0:
        return ZERO
    # sqrt(p/r) = sqrt(p*r)/r = s*sqrt(d)/r
    s, d = squarefree_decompose(p * r)
    g = math.gcd(s, r)
    return RadExt._raw(r // g, {d: s // g})
