"""Exact scalars, and the one exact integer product behind every product certificate.

Exact scalars cross the API as canonical `fractions.Fraction`s, built from
integers only, so that no float leaks into them.  Exact vectors stay integer
numerators over a denominator, `Fraction`s only at accessors.  Every D P
is an `exact_matmul` product through `verifier._transport_block`, and the
bounds FLOAT_EXACT_MAX and INT64_MAX are defined here only.  Its float64
tier is FFLAS-FFPACK's exact BLAS product of bounded integers (Dumas,
Giorgi & Pernet, ACM TOMS 2008).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

FLOAT_EXACT_MAX = 1 << 53  # every integer of magnitude up to this is exact in float64
INT64_MAX = (1 << 63) - 1


def exact_matmul(A: np.ndarray, columns, bound: int, A_float: np.ndarray | None = None) -> np.ndarray:
    """A @ X, exactly, for the integer matrix X whose columns (an array or lists) are `columns`.

    `bound` is at least every |X[j, c]| and every sum_j |A[i, j] X[j, c]|,
    so it bounds every partial sum in any order.  The product runs on
    float64 BLAS, cast back to int64, when bound <= FLOAT_EXACT_MAX; on int64
    when bound <= INT64_MAX; and on Python ints otherwise or when A or
    `columns` is an object array.  `A_float` is A as float64, when a caller
    that takes many products with A has converted it once.
    """
    if bound > INT64_MAX or A.dtype == object or getattr(columns, "dtype", None) == object:
        return A.astype(object, copy=False) @ np.asarray(columns, dtype=object).T
    if bound > FLOAT_EXACT_MAX:
        return A.astype(np.int64, copy=False) @ np.asarray(columns, dtype=np.int64).T
    if A_float is None:
        A_float = A.astype(np.float64)
    return (A_float @ np.asarray(columns, dtype=np.float64).T).astype(np.int64)


def rational_from(numerator: int, denominator: int = 1) -> Fraction:
    """Build the canonical rational numerator/denominator from integers.

    Floats are rejected on purpose: exact paths must never be contaminated
    by binary rounding.
    """
    if not isinstance(numerator, int) or not isinstance(denominator, int):
        raise TypeError("rational_from takes integers only")
    if denominator == 0:
        raise ZeroDivisionError("zero denominator")
    return Fraction(numerator, denominator)


def rational_str(x: Fraction) -> str:
    """Render as "p/q", always with an explicit denominator."""
    return f"{x.numerator}/{x.denominator}"


def parse_ratio(text: str) -> Fraction:
    """Parse "p/q" or a bare integer "p" into a rational.

    Used for CLI parameters such as the gnp edge probability; float syntax is
    rejected.
    """
    text = text.strip()
    if "/" in text:
        num_s, den_s = text.split("/", 1)
        return rational_from(int(num_s), int(den_s))
    return rational_from(int(text))
