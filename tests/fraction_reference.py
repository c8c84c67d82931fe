"""A Fraction-map reference for RadExt arithmetic, kept only for tests.

A value here is a dict {squarefree radicand d: nonzero Fraction q} denoting
sum(q * sqrt(d)): the representation `qlatin.algebraic` used before it moved
to one integer denominator per value.  RadExt's `terms` view reads a value in
this form, so the integer code can be checked against it term by term.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

SIGN_START_BITS = 64


def _mul_into(
    acc: dict[int, Fraction], tu: Mapping[int, Fraction], tv: Mapping[int, Fraction]
) -> None:
    """Add the product of two canonical term maps into acc, in place; acc
    stays canonical (squarefree keys, nonzero values)."""
    for d1, q1 in tu.items():
        for d2, q2 in tv.items():
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


def add(tu: Mapping[int, Fraction], tv: Mapping[int, Fraction]) -> dict[int, Fraction]:
    out = dict(tu)
    for d, q in tv.items():
        c = out.get(d, 0) + q
        if c:
            out[d] = c
        else:
            del out[d]
    return out


def neg(tu: Mapping[int, Fraction]) -> dict[int, Fraction]:
    return {d: -q for d, q in tu.items()}


def mul(tu: Mapping[int, Fraction], tv: Mapping[int, Fraction]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    _mul_into(out, tu, tv)
    return out


def _interval(terms: Mapping[int, Fraction], prec: int) -> tuple[Fraction, Fraction]:
    lo = hi = Fraction(0)
    unit = Fraction(1, 1 << prec)
    for d, q in terms.items():
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


def sign(terms: Mapping[int, Fraction]) -> int:
    """-1, 0 or +1, by the same-sign shortcut and then rational intervals
    whose precision doubles from SIGN_START_BITS."""
    if not terms:
        return 0
    signs = {1 if q > 0 else -1 for q in terms.values()}
    if len(signs) == 1:
        return signs.pop()
    prec = SIGN_START_BITS
    while True:
        lo, hi = _interval(terms, prec)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        prec *= 2


def to_triples(terms: Mapping[int, Fraction]) -> list[list[int]]:
    return [[q.numerator, q.denominator, d] for d, q in sorted(terms.items())]
