import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphcurv.rationals import (FLOAT_EXACT_MAX, INT64_MAX, exact_matmul, parse_ratio,
                                 rational_from, rational_str)

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


# --- exact_matmul: the one exact integer product ----------------------------

def python_product(A, columns):
    return [[sum(a * x for a, x in zip(row, col)) for col in columns] for row in A]


# bound -> the tier that takes a product under it; each product below reaches
# its bound in row 0, so 2^53 + 1 has no float64 and 2^63 overflows int64
TIERS = [(FLOAT_EXACT_MAX, "float64"), (FLOAT_EXACT_MAX + 1, "int64"),
         (INT64_MAX, "int64"), (INT64_MAX + 1, "object")]


@pytest.mark.parametrize("bound,tier", TIERS)
@pytest.mark.parametrize("as_array", [False, True])
def test_exact_matmul_tiers(bound, tier, as_array):
    A = [[2, 1], [-2, -1], [2, -1], [-1, 2], [0, 0]]
    x0, x1 = divmod(bound, 2)
    columns = [[x0, x1], [-x0, x1], [x1, -x1], [0, 0]]
    arg = np.array(columns, dtype=np.int64) if as_array else columns
    N = exact_matmul(np.array(A, dtype=np.int64), arg, bound)
    assert N.dtype == (object if tier == "object" else np.int64)
    assert N.tolist() == python_product(A, columns)
    # only the float64 tier reads A_float, so a zero A_float gives a zero N exactly there
    zero = exact_matmul(np.array(A, dtype=np.int64), arg, bound, np.zeros((5, 2)))
    assert (not zero.any()) == (tier == "float64")


@pytest.mark.parametrize("bound", [bound for bound, _ in TIERS])
def test_exact_matmul_object_operands_take_python_ints(bound):
    A = [[3, -1, 0], [-2, 5, 7]]
    columns = [[1, 2, -3], [2 ** 40, -(2 ** 41), 5]]
    for A_arg, col_arg in [(np.array(A, dtype=object), columns),
                           (np.array(A, dtype=np.int64), np.array(columns, dtype=object))]:
        N = exact_matmul(A_arg, col_arg, bound)
        assert N.dtype == object and N.tolist() == python_product(A, columns)


def test_exact_matmul_beyond_int64():
    A = [[1, -1], [2 ** 70, 3]]
    columns = [[2 ** 80, -(2 ** 90)], [7, -1]]
    N = exact_matmul(np.array(A, dtype=object), columns, 2 ** 200)
    assert N.tolist() == python_product(A, columns)
    N = exact_matmul(np.array([[1, -1], [5, 3]]), columns, 2 ** 100)
    assert N.tolist() == python_product([[1, -1], [5, 3]], columns)


@given(st.lists(st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=3, max_size=3),
                min_size=1, max_size=4),
       st.lists(st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_exact_matmul_any_tier_under_its_bound(A, columns):
    bound = max(1, *(sum(abs(a * x) for a, x in zip(row, col)) for row in A for col in columns),
                *(abs(x) for col in columns for x in col))
    N = exact_matmul(np.array(A, dtype=np.int64), columns, bound)
    assert N.tolist() == python_product(A, columns)
