"""Probability measures on the vertex set, exact and reproducible.

A measure is stored as integer numerators q over one common denominator den,
P = q / den, reduced so that gcd(den, *q) == 1.  Building and checking one
costs integer sums and one gcd, never a rational per entry; `Measure.p`
gives the entries as rationals when a caller wants them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

import numpy as np

from .seeding import counter_values_np

SAMPLE_WEIGHT_BITS = 16  # raw weights uniform in [1, 2^16]


class Measure:
    """Probability vector q / den: integers q >= 0 summing to den > 0.

    `Measure(entries)` takes rationals summing to exactly 1;
    `Measure.from_weights(weights)` takes non-negative integers and
    normalizes them.  Both reduce to the same (den, q), so equality and
    hashing do not depend on how a measure was built.
    """

    __slots__ = ("q", "den")

    def __init__(self, entries: Iterable[Fraction]):
        p = [Fraction(x) for x in entries]
        den = lcm(*(x.denominator for x in p))
        q = [x.numerator * (den // x.denominator) for x in p]
        _check_entries(q)
        if sum(q) != den:
            raise ValueError("measure entries must sum to exactly 1")
        self._set(q, den)

    @classmethod
    def from_weights(cls, weights: Iterable[int]) -> Measure:
        """The measure weights / sum(weights), for non-negative integer weights.

        Floats are rejected, as in `rationals.rational_from`, so exact paths
        stay exact.
        """
        q = list(weights)
        if not all(isinstance(x, int) for x in q):
            raise TypeError("Measure.from_weights takes integers only")
        _check_entries(q)
        den = sum(q)
        if den == 0:
            raise ValueError("measure weights must not all be zero")
        mu = cls.__new__(cls)
        mu._set(q, den)
        return mu

    def _set(self, q: list[int], den: int) -> None:
        g = gcd(den, *q)
        if g > 1:
            q = [x // g for x in q]
            den //= g
        self.q = tuple(q)
        self.den = den

    @property
    def p(self) -> tuple[Fraction, ...]:
        """The entries as rationals."""
        return tuple(Fraction(x, self.den) for x in self.q)

    @property
    def n(self) -> int:
        return len(self.q)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.q) if x > 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Measure) and self.den == other.den and self.q == other.q

    def __hash__(self) -> int:
        return hash((self.den, self.q))

    def __repr__(self) -> str:
        return f"Measure({[str(x) for x in self.p]})"


def _check_entries(q: list[int]) -> None:
    if not q:
        raise ValueError("measure needs at least one entry")
    if min(q) < 0:
        raise ValueError("measure entries must be non-negative")


def measure_delta(n: int, v: int) -> Measure:
    """Unit mass at vertex v."""
    if not (0 <= v < n):
        raise IndexError(f"vertex {v} out of range for n={n}")
    return Measure.from_weights([int(i == v) for i in range(n)])


def measure_uniform(n: int) -> Measure:
    return Measure.from_weights([1] * n)


def measure_uniform_on(n: int, subset: Iterable[int]) -> Measure:
    """Equal mass on each vertex of the subset, zero elsewhere."""
    support = set(subset)
    if not support:
        raise ValueError("subset must be nonempty")
    if any(not (0 <= v < n) for v in support):
        raise IndexError(f"subset {sorted(support)} out of range for n={n}")
    return Measure.from_weights([int(i in support) for i in range(n)])


def sample_measures(n: int, count: int, seed: int) -> list[Measure]:
    """Deterministic random interior measures.

    Sample i draws n integer weights uniform in [1, 2^16] from the
    counter-based generator at sub-seed (seed, i) and normalizes exactly, so
    every entry is strictly positive and the entries sum to exactly 1.
    Results depend only on (n, count, seed), never on scheduling.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    out = []
    vertices = np.arange(n)
    for i in range(count):
        weights = (1 + counter_values_np(seed, vertices, i) % (1 << SAMPLE_WEIGHT_BITS)).tolist()
        out.append(Measure.from_weights(weights))
    return out
