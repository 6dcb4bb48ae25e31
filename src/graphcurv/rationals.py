"""Exact rational scalars.

All exact computation in this package runs on arbitrary-precision rationals.
The carrier type is :class:`fractions.Fraction`, which already keeps the
canonical form we need (gcd-reduced, positive denominator, zero as 0/1) and
gives exact field arithmetic with a total order.  This module pins the entry
points so that no float ever leaks into an exact path: constructors accept
integers only.
"""

from __future__ import annotations

from fractions import Fraction


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
