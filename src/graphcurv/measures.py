"""Probability measures on the vertex set, exact and reproducible."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

import numpy as np

from .seeding import counter_values_np

SAMPLE_WEIGHT_BITS = 16  # raw weights uniform in [1, 2^16]


class Measure:
    """Probability vector of rationals: entries >= 0 summing to exactly 1."""

    __slots__ = ("p",)

    def __init__(self, entries: Iterable[Fraction]):
        p = tuple(Fraction(x) for x in entries)
        if not p:
            raise ValueError("measure needs at least one entry")
        if any(x < 0 for x in p):
            raise ValueError("measure entries must be non-negative")
        if sum(p) != 1:
            raise ValueError("measure entries must sum to exactly 1")
        self.p = p

    @property
    def n(self) -> int:
        return len(self.p)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.p) if x > 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Measure) and self.p == other.p

    def __hash__(self) -> int:
        return hash(self.p)

    def __repr__(self) -> str:
        return f"Measure({[str(x) for x in self.p]})"


def measure_delta(n: int, v: int) -> Measure:
    """Unit mass at vertex v."""
    if not (0 <= v < n):
        raise IndexError(f"vertex {v} out of range for n={n}")
    return Measure(Fraction(int(i == v)) for i in range(n))


def measure_uniform(n: int) -> Measure:
    return Measure(Fraction(1, n) for _ in range(n))


def measure_uniform_on(n: int, subset: Iterable[int]) -> Measure:
    """Equal mass on each vertex of the subset, zero elsewhere."""
    support = set(subset)
    if not support:
        raise ValueError("subset must be nonempty")
    if any(not (0 <= v < n) for v in support):
        raise IndexError(f"subset {sorted(support)} out of range for n={n}")
    k = len(support)
    return Measure(Fraction(1, k) if i in support else Fraction(0) for i in range(n))


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
        total = sum(weights)
        out.append(Measure(Fraction(wj, total) for wj in weights))
    return out
