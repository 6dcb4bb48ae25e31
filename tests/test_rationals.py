import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from graphcurv.rationals import parse_ratio, rational_from, rational_str

nonzero_ints = st.integers(min_value=-10**9, max_value=10**9).filter(lambda x: x != 0)
rationals = st.builds(rational_from, st.integers(-10**6, 10**6), nonzero_ints)


def test_canonical_reduction():
    assert rational_from(2, 4) == Fraction(1, 2)
    assert rational_from(3, -6) == Fraction(-1, 2)
    assert rational_from(0, 7) == Fraction(0, 1)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        rational_from(1, 0)


def test_floats_rejected():
    with pytest.raises(TypeError):
        rational_from(0.5, 1)
    with pytest.raises(TypeError):
        rational_from(1, 2.0)


def test_rational_str():
    assert rational_str(rational_from(3, 4)) == "3/4"
    assert rational_str(rational_from(-3, 4)) == "-3/4"
    assert rational_str(rational_from(5)) == "5/1"


def test_parse_ratio():
    assert parse_ratio("1/4") == Fraction(1, 4)
    assert parse_ratio("7") == Fraction(7)
    assert parse_ratio(" -2/6 ") == Fraction(-1, 3)
    with pytest.raises(ValueError):
        parse_ratio("0.25")


def test_field_axioms_randomized():
    # associativity, distributivity, inverses over 10^4 random triples
    rng = random.Random(20240524)
    for _ in range(10_000):
        a, b, c = (
            Fraction(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(3)
        )
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1


@given(rationals)
def test_canonical_form_invariant(x):
    from math import gcd
    assert x.denominator >= 1
    assert gcd(abs(x.numerator), x.denominator) == 1
    if x == 0:
        assert (x.numerator, x.denominator) == (0, 1)


@given(rationals, rationals)
def test_arithmetic_stays_canonical(x, y):
    from math import gcd
    for z in (x + y, x - y, x * y, abs(x)):
        assert gcd(abs(z.numerator), z.denominator) == 1
        assert z.denominator >= 1


@given(rationals, rationals)
def test_order_matches_cross_multiplication(x, y):
    lhs = x.numerator * y.denominator
    rhs = y.numerator * x.denominator
    assert (x < y) == (lhs < rhs)
    assert (x == y) == (lhs == rhs)
