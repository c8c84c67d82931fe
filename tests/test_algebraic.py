import copy
import gc
import math
import pickle
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlatin import algebraic
from qlatin.algebraic import (
    ONE,
    ZERO,
    RadExt,
    sqrt_rational,
    squarefree_decompose,
)

from qlatin.qls_core import QLSGrid, grid_from_json, grid_to_json
from qlatin.vectors import QVector

import fraction_reference as ref

F = Fraction


def _over_the_cap_pair() -> tuple[int, int]:
    """Two squarefree radicands under RADICAND_MAX_BITS whose product is over it."""
    cap = algebraic.RADICAND_MAX_BITS
    primes = [p for p in range(3, 2000, 2) if all(p % q for q in range(3, math.isqrt(p) + 1, 2))]
    a = b = 1
    for p in primes:
        if a.bit_length() < cap // 2 + 8:
            a *= p
        elif b.bit_length() < cap // 2 + 8:
            b *= p
    assert a.bit_length() <= cap and b.bit_length() <= cap < (a * b).bit_length()
    return a, b


# Sums and products of roots of radicands near 1, near the bound squared, and
# of primes just over the bound, drawn under a small trial-division bound so
# that each refusal's trial division is short.
_SMALL_BOUND = 1000
_near_the_limits = st.one_of(
    st.integers(1, 50),
    st.integers(_SMALL_BOUND**2 - 50, _SMALL_BOUND**2 + 50),
    st.sampled_from([1009, 1013, 1019, 1021, 1031, 1033]),
)
_values_near_the_limits = st.recursive(
    st.builds(lambda d, k: k * sqrt_rational(d), _near_the_limits, st.integers(-3, 3).filter(bool)),
    lambda kids: st.builds(lambda x, y: x + y, kids, kids) | st.builds(lambda x, y: x * y, kids, kids),
    max_leaves=4,
)


class TestSquarefreeDecompose:
    def test_basic_splits(self):
        assert squarefree_decompose(1) == (1, 1)
        assert squarefree_decompose(2) == (1, 2)
        assert squarefree_decompose(12) == (2, 3)
        assert squarefree_decompose(49) == (7, 1)
        assert squarefree_decompose(50) == (5, 2)
        assert squarefree_decompose(360) == (6, 10)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            squarefree_decompose(0)
        with pytest.raises(ValueError):
            squarefree_decompose(-4)

    def test_bound_exceeded_is_loud(self):
        # 1000003 is prime and above the fixed bound, so no divisor up to
        # the bound splits its square
        with pytest.raises(ValueError, match="trial division bound"):
            squarefree_decompose(1000003**2)

    @pytest.mark.parametrize(
        "n,named",
        [
            # small prime factors are divided out before the bound is met;
            # the message names the radicand given, not the cofactor left
            (4 * 1000003 * 1000033, "4000144000396"),
            # small primes leave a 47-bit cofactor here; the 80-bit
            # radicand given is named by its size
            ((10**12 + 1) * (10**12 + 3), "a 80-bit radicand"),
        ],
    )
    def test_bound_exceeded_names_the_radicand_given(self, n, named):
        want = f"cannot factor {named}: divisor exceeds trial division bound 1000000"
        with pytest.raises(ValueError) as exc:
            squarefree_decompose(n)
        assert str(exc.value) == want

    def test_radicand_over_the_bit_cap_is_refused_before_dividing(self):
        cap = algebraic.RADICAND_MAX_BITS
        # a power of two at the cap factors by halving alone
        assert squarefree_decompose(1 << (cap - 1)) == (1 << (cap // 2 - 1), 2)
        with pytest.raises(ValueError, match=f"cannot factor a {cap + 1}-bit radicand: exceeds the cap of {cap} bits"):
            squarefree_decompose(1 << cap)

    def test_product_over_the_bit_cap_is_refused_when_written(self):
        # two squarefree radicands under the cap whose product is over it:
        # arithmetic builds the product, and the writer refuses it with the
        # reader's message, so nothing is written that the reader refuses
        a, b = _over_the_cap_pair()
        cap = algebraic.RADICAND_MAX_BITS
        x, y = sqrt_rational(a), sqrt_rational(b)
        assert RadExt.from_triples(x.to_triples()) is x
        xy = x * y
        assert xy.num == {a * b: 1}
        with pytest.raises(ValueError, match=f"-bit radicand: exceeds the cap of {cap} bits"):
            grid_to_json(QLSGrid([[QVector([xy])]]))

    def test_product_the_reader_cannot_factor_is_refused_when_written(self):
        # two primes just over the trial-division bound: their product's
        # radicand needs a divisor over the bound, so the reader would refuse
        # it; arithmetic builds it, and the writer refuses it with that error
        xy = sqrt_rational(1000003) * sqrt_rational(1000033)
        assert xy.num == {1000036000099: 1}
        with pytest.raises(ValueError, match="cannot factor 1000036000099: divisor exceeds trial division bound 1000000"):
            grid_to_json(QLSGrid([[QVector([xy])]]))

    def test_product_over_the_bound_squared_that_factors_is_built(self):
        # radicand 6 * 999999999989 = 5999999999934 is over the bound squared,
        # but its prime cofactor is proved prime within the bound
        x = sqrt_rational(6) * sqrt_rational(999999999989)
        assert x.num == {5999999999934: 1}
        grid = QLSGrid([[QVector([x])]])
        assert grid_from_json(grid_to_json(grid)).cells[0][0].coefs == (x,)

    @given(st.data())
    @settings(deadline=None)
    def test_writer_refuses_only_what_the_reader_refuses(self, data):
        # the writer either refuses a value with the reader's own error or
        # writes what reads back as the same object
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(algebraic, "TRIAL_DIVISION_BOUND", _SMALL_BOUND)
            x = data.draw(_values_near_the_limits)
            grid = QLSGrid([[QVector([x])]])
            try:
                text = grid_to_json(grid)
            except ValueError as exc:
                with pytest.raises(ValueError) as read:
                    RadExt.from_triples(ref.to_triples(ref.terms(x)))
                assert str(read.value) == str(exc)
            else:
                assert grid_from_json(text).cells == grid.cells

    def test_large_prime_within_bound(self):
        # cofactor > bound is fine once all divisors up to sqrt are excluded
        assert squarefree_decompose(999983) == (1, 999983)

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(deadline=None)
    def test_reconstruction(self, n):
        s, d = squarefree_decompose(n)
        assert s * s * d == n
        _, d2 = squarefree_decompose(d)
        assert d2 == d  # d is squarefree


class TestRadExtBasics:
    def test_constructor_normalizes_radicands(self):
        assert RadExt({8: 1}) == RadExt({2: 2})  # sqrt(8) = 2 sqrt(2)
        assert RadExt({4: F(1, 2)}) == 1
        assert RadExt({2: 0}).is_zero

    def test_rational_predicates(self):
        assert ZERO.is_zero and ref.terms(ZERO) == {}
        assert ref.terms(ONE) == {1: 1}
        assert ref.terms(sqrt_rational(2)) == {2: 1}

    def test_gcd_trick_products(self):
        assert sqrt_rational(2) * sqrt_rational(3) == sqrt_rational(6)
        assert sqrt_rational(6) * sqrt_rational(10) == RadExt({15: 2})
        assert sqrt_rational(2) * sqrt_rational(2) == 2
        # (1 + sqrt 2)(1 - sqrt 2) = -1
        a = ONE + sqrt_rational(2)
        b = ONE - sqrt_rational(2)
        assert a * b == -1

    def test_binomial_square(self):
        x = sqrt_rational(2) + sqrt_rational(3)
        assert x * x == RadExt({1: 5, 6: 2})

    def test_sqrt_rational_values(self):
        assert sqrt_rational(0).is_zero
        assert sqrt_rational(F(9, 4)) == F(3, 2)
        assert sqrt_rational(F(1, 2)) == RadExt({2: F(1, 2)})
        assert sqrt_rational(8) == RadExt({2: 2})
        with pytest.raises(ValueError):
            sqrt_rational(-1)

    def test_mixed_type_equality(self):
        assert RadExt.from_rational(F(3, 5)) == F(3, 5) == RadExt({1: F(3, 5)})
        assert F(3, 5) == RadExt.from_rational(F(3, 5)) and (ONE == "1") is False
        assert RadExt.from_rational(2) == 2
        assert sqrt_rational(2) != 1
        assert hash(RadExt.from_rational(7)) == hash(RadExt({1: 7}))


class TestOneObjectPerValue:
    """RadExt is hash-consed: each value is one live object, however made."""

    def test_equal_values_are_one_object_by_every_route(self):
        r2, third = sqrt_rational(2), F(1, 3)
        routes = [
            (r2 * r2, RadExt.from_rational(2)),
            (r2 * third * 3, r2),
            (r2 + r2, RadExt({8: 1})),
            (ONE - ONE, ZERO),
            (r2 - 1, -(1 - r2)),
            (-(-r2), r2),
            (RadExt.from_triples([[1, 2, 2]]), sqrt_rational(F(1, 2))),
            (RadExt.from_triples(RadExt({7: third, 1: -2}).to_triples()), RadExt({1: -2, 7: third})),
            (RadExt.from_rational(F(2, 4)), RadExt({1: F(1, 2)})),
            (sqrt_rational(F(9, 4)), RadExt.from_rational(F(3, 2))),
            (RadExt({1: 1}), ONE),
            (RadExt(), ZERO),
            (RadExt({5: 0}), ZERO),
            (sqrt_rational(0), ZERO),
        ]
        for p, q in routes:
            assert p is q, (p, q)
            assert p == q and hash(p) == hash(q)

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_the_shared_object(self, clone):
        x = RadExt({2: F(1, 3), 1: -2})
        for v in (x, ZERO, ONE):
            assert clone(v) is v
        assert clone([x])[0] is x
        # copying a value must not write its fields into a shared one
        assert (ZERO.den, ZERO.num, ONE.den, ONE.num) == (1, {}, 1, {1: 1})
        assert (x.den, x.num) == (3, {1: -6, 2: 1})

    def test_table_shrinks_when_values_die(self):
        # a value and its stored negation refer to each other, so dead pairs
        # wait for the collector; collect them first, or a collection while
        # the temporaries are built shrinks the table below `before`
        gc.collect()
        before = len(algebraic._LIVE)
        temporaries = [RadExt({3: F(k, 999_999_937)}) for k in range(1, 10_001)]
        assert len(algebraic._LIVE) >= before + 10_000
        del temporaries
        assert len(algebraic._LIVE) <= before


class TestSign:
    def test_fast_paths(self):
        assert ZERO.sign() == 0
        assert ONE.sign() == 1
        assert (-ONE).sign() == -1
        assert sqrt_rational(7).sign() == 1
        assert (RadExt({2: -1})).sign() == -1

    def test_mixed_terms(self):
        # sqrt2 + sqrt3 < sqrt10: 3.146... vs 3.162...
        assert RadExt({2: 1, 3: 1, 10: -1}).sign() == -1
        assert RadExt({2: 1, 3: 1, 7: -1}).sign() == 1  # 3.146 > 2.645

    def test_tight_continued_fraction_convergents(self):
        # 99/70 and 140/99 straddle sqrt 2 narrowly
        assert RadExt({2: 99, 1: -140}).sign() == 1
        assert RadExt({2: 70, 1: -99}).sign() == -1
        # 665857/470832 exceeds sqrt 2 by about 1.6e-12 (665857^2 - 2*470832^2 = 1),
        # forcing the interval refinement loop to deepen
        assert 665857**2 - 2 * 470832**2 == 1
        assert RadExt({2: 470832, 1: -665857}).sign() == -1

    def test_sign_against_decimal_oracle(self):
        # Soundness of the thresholds: a nonzero sum of <= 4 terms q_i sqrt(d_i)
        # with |q_i| <= 50/1, denominators <= 50, d_i <= 100 has conjugate
        # product a nonzero rational with denominator at most 50^64 and
        # conjugates at most 2000, so |x| >= 50^-64 / 2000^15 > 1e-158.
        # At 200 digits the oracle's absolute error is far below 1e-180.
        squarefree = [d for d in range(1, 101) if squarefree_decompose(d)[1] == d]
        rng = random.Random(90125)
        threshold = Decimal("1e-180")
        with localcontext() as ctx:
            ctx.prec = 200
            for _ in range(10000):
                terms = {
                    d: F(rng.randint(-50, 50), rng.randint(1, 50))
                    for d in rng.sample(squarefree, rng.randint(1, 4))
                }
                x = RadExt(terms)
                approx = sum(
                    (
                        Decimal(q.numerator) / Decimal(q.denominator) * Decimal(d).sqrt()
                        for d, q in ref.terms(x).items()
                    ),
                    Decimal(0),
                )
                if x.sign() == 0:
                    assert abs(approx) < threshold
                else:
                    assert abs(approx) > threshold
                    assert x.sign() == (1 if approx > 0 else -1)


_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=9)
_radexts = st.dictionaries(
    st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11, 13, 15]), _rationals, max_size=3
).map(RadExt)


class TestRingLaws:
    @given(_radexts, _radexts)
    @settings(deadline=None)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(_radexts, _radexts, _radexts)
    @settings(deadline=None)
    def test_associativity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @given(_radexts, _radexts, _radexts)
    @settings(deadline=None)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(_radexts)
    @settings(deadline=None)
    def test_additive_inverse_and_identities(self, a):
        assert (a - a).is_zero
        assert a + ZERO == a
        assert a * ONE == a
        assert a * ZERO == ZERO
        assert -(-a) == a

    @given(_radexts)
    @settings(deadline=None)
    def test_sign_is_consistent(self, a):
        s = a.sign()
        assert s in (-1, 0, 1)
        assert (s == 0) == a.is_zero
        assert (-a).sign() == -s

    @given(
        st.integers(min_value=1, max_value=10**4),
        st.integers(min_value=1, max_value=10**4),
    )
    @settings(deadline=None)
    def test_sqrt_squares_back(self, num, den):
        q = F(num, den)
        root = sqrt_rational(q)
        assert root * root == q
        assert root.sign() == 1


_positive = st.dictionaries(
    st.sampled_from([2, 3, 5, 6, 7, 10, 11]),
    st.fractions(min_value=F(1, 9), max_value=4, max_denominator=9),
    min_size=1,
    max_size=3,
).map(RadExt)
# a positive minus a positive: terms of both signs, whose sign needs intervals
_mixed = st.builds(lambda a, b: a - b, _positive, _positive)


class TestStoredFacts:
    """A value keeps its negation, square and sign; each reader gives what
    the uncached computation gives, by identity."""

    @given(st.one_of(st.sampled_from([ZERO, ONE, -ONE]), _radexts, _mixed))
    @settings(deadline=None)
    def test_readers_equal_their_computation(self, e):
        for _ in range(2):  # the first read computes, the second looks up
            assert algebraic._neg_of(e) is -e
            assert algebraic._square_of(e) is e * e
            assert algebraic._sign_of(e) == e.sign()
        assert algebraic._neg_of(algebraic._neg_of(e)) is e
        assert (e._neg, e._square, e._sign) == (-e, e * e, e.sign())

    def test_facts_do_not_keep_values_alive(self):
        # radicands no other value uses, so every value below is made here
        made = [RadExt({1_000_003: F(k, 7), 1_000_033: -k}) for k in range(1, 51)]
        made += [algebraic._neg_of(e) for e in made]
        made += [algebraic._square_of(e) for e in made]
        for e in made:
            # both directions: e and -e then point at each other
            algebraic._neg_of(algebraic._neg_of(e))
            algebraic._square_of(e)
            algebraic._sign_of(e)
        keys = {(e.den, *sorted(e.num.items())) for e in made}
        assert len(keys) == 150 and all(key in algebraic._LIVE for key in keys)
        del made, e
        gc.collect()
        assert not any(key in algebraic._LIVE for key in keys)


class TestTriples:
    @given(_radexts)
    @settings(deadline=None)
    def test_round_trip(self, a):
        assert RadExt.from_triples(a.to_triples()) == a

    def test_sorted_by_radicand(self):
        x = RadExt({7: 1, 2: F(1, 3), 1: -2})
        assert x.to_triples() == [[-2, 1, 1], [1, 3, 2], [1, 1, 7]]

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            RadExt.from_triples([[1, 2]])  # not a triple
        with pytest.raises(ValueError):
            RadExt.from_triples([[1, 0, 2]])  # zero denominator
        with pytest.raises(ValueError):
            RadExt.from_triples([[0, 1, 2]])  # zero coefficient
        with pytest.raises(ValueError):
            RadExt.from_triples([[1, 1, 8]])  # radicand not squarefree
        with pytest.raises(ValueError):
            RadExt.from_triples([[1, 1, 3], [1, 1, 2]])  # out of order
        with pytest.raises(ValueError):
            RadExt.from_triples([[1, 1, 2], [1, 1, 2]])  # duplicate radicand
        with pytest.raises(ValueError):
            RadExt.from_triples([[True, 1, 1]])  # JSON true is not the integer 1

    @pytest.mark.parametrize(
        "triples",
        [{}, "", (), [(1, 1, 2)], [{"a": 1, "b": 1, "c": 2}], ["abc"], [[2, 4, 2]], [[-3, 3, 2]]],
        ids=["object", "string", "tuple", "tuple-triple", "object-triple", "string-triple",
             "unreduced", "unreduced-negative"],
    )
    def test_one_encoding_per_value(self, triples):
        # only the to_triples form parses: lists of reduced integer triples
        with pytest.raises(ValueError):
            RadExt.from_triples(triples)


# Differential tests against the Fraction-map reference in
# fraction_reference.py: radicands up to 100, numerators and denominators up
# to 10**6, and a different denominator on every term.
_SQUAREFREE = [d for d in range(1, 101) if squarefree_decompose(d)[1] == d]
_wide_rationals = st.builds(
    Fraction,
    st.integers(-(10**6), 10**6).filter(bool),
    st.integers(1, 10**6),
)
_ref_terms = st.dictionaries(st.sampled_from(_SQUAREFREE), _wide_rationals, max_size=5)


def _assert_reduced(x):
    assert type(x.den) is int and x.den >= 1
    assert math.gcd(x.den, *x.num.values()) == 1
    for d, n in x.num.items():
        assert type(n) is int and n != 0
        assert squarefree_decompose(d)[1] == d


class TestAgainstFractionReference:
    @given(_ref_terms, _ref_terms)
    @settings(deadline=None)
    def test_ring_operations(self, ta, tb):
        a, b = RadExt(ta), RadExt(tb)
        assert ref.terms(a) == ta and ref.terms(b) == tb
        for got, want in (
            (a + b, ref.add(ta, tb)),
            (a - b, ref.add(ta, ref.neg(tb))),
            (-a, ref.neg(ta)),
            (a * b, ref.mul(ta, tb)),
        ):
            _assert_reduced(got)
            assert ref.terms(got) == want and got is RadExt(want)
            assert got.sign() == ref.sign(want)

    @given(_ref_terms, _ref_terms)
    @settings(deadline=None)
    def test_sign_of_differences(self, ta, tb):
        # mixed-sign sums are the ones that reach the interval loop
        assert (RadExt(ta) - RadExt(tb)).sign() == ref.sign(ref.add(ta, ref.neg(tb)))

    @given(_ref_terms)
    @settings(deadline=None)
    def test_triples(self, ta):
        a = RadExt(ta)
        assert a.to_triples() == ref.to_triples(ta)
        parsed = RadExt.from_triples(ref.to_triples(ta))
        _assert_reduced(parsed)
        assert parsed is a
        assert ref.terms(parsed) == ta

    @given(_ref_terms, _ref_terms, _ref_terms)
    @settings(deadline=None)
    def test_equal_values_hash_equal_by_any_route(self, tx, ty, tz):
        x, y, z = RadExt(tx), RadExt(ty), RadExt(tz)
        routes = [
            ((x * y) * z, x * (y * z)),
            ((x + y) + z, x + (y + z)),
            (x * (y + z), x * y + x * z),
            (x * y, RadExt.from_triples(ref.to_triples(ref.mul(tx, ty)))),
            (x + y - y, RadExt.from_triples(ref.to_triples(tx))),
            (-(x - y), y - x),
            (x * y, RadExt(ref.mul(tx, ty))),
        ]
        for p, q in routes:
            _assert_reduced(p)
            _assert_reduced(q)
            # one object per value, so equal hashes follow from identity
            assert p is q and hash(p) == hash(q)
