"""Probability measures on the vertex set, exact and reproducible.

A measure is stored as integer numerators q over one common denominator den,
P = q / den, reduced so that gcd(den, *q) == 1.  Building and checking one
costs integer sums and one gcd, never a rational per entry; `Measure.p`
gives the entries as rationals when a caller wants them.

A `Battery` holds many measures on the same n vertices as one k x n integer
matrix of reduced numerators and a vector of k denominators, each row
labelled, and a `Measure` is built only when a row is asked for.  One
kernel, `reduce_weights`, checks, sizes and reduces the weights of every
measure, a battery's as one matrix, and it alone decides whether the
numerators are int64 (every row sum fits) or Python ints.  Random samples
are drawn one counter grid per block of at most n samples, hashed in place.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm
from typing import Iterable

import numpy as np

from .rationals import INT64_MAX
from .seeding import counter_offsets, mix64_inplace

SAMPLE_WEIGHT_BITS = 16  # raw weights uniform in [1, 2^16]


class Measure:
    """Probability vector q / den: integers q >= 0 summing to den > 0.

    `Measure(entries)` takes ints and Fractions summing to exactly 1;
    `Measure.from_weights(weights)` takes non-negative integers and
    normalizes them.  Both reject floats, strings and every other type
    with a TypeError, and both reduce to the same (den, q), so equality
    and hashing do not depend on how a measure was built.
    """

    __slots__ = ("q", "den")

    def __init__(self, entries: Iterable[Fraction]):
        p = list(entries)
        if not all(isinstance(x, (int, Fraction)) for x in p):
            raise TypeError("Measure takes ints and Fractions only")
        den = lcm(*(x.denominator for x in p))
        num, den = reduce_weights([[x.numerator * (den // x.denominator) for x in p]], total=den)
        self.q, self.den = tuple(num[0].tolist()), int(den[0])

    @classmethod
    def from_weights(cls, weights: Iterable[int]) -> Measure:
        """The measure weights / sum(weights), for non-negative integer weights.

        Floats are rejected, as in `rationals.rational_from`, so exact paths
        stay exact.
        """
        num, den = reduce_weights([list(weights)])
        return cls._reduced(tuple(num[0].tolist()), int(den[0]))

    @classmethod
    def _reduced(cls, q: tuple[int, ...], den: int) -> Measure:
        """The measure q / den for numerators already checked and reduced."""
        mu = cls.__new__(cls)
        mu.q = q
        mu.den = den
        return mu

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


def sample_weights(n: int, count: int, seed: int) -> np.ndarray:
    """The count x n int64 matrix of raw sample weights, uniform in [1, 2^16].

    Entry (i, j) is 1 + counter_values_np(seed, [j], i) mod 2^16.  The
    states after all prefixes i come from one `counter_offsets` call, and
    the counters of each block of at most n samples are hashed together, in
    place.
    """
    weights = np.empty((count, n), dtype=np.int64)
    offsets = counter_offsets(seed, count)
    for start in range(0, count, max(n, 1)):
        z = np.arange(n, dtype=np.uint64) + offsets[start:start + n, None]
        mix64_inplace(z)
        z &= np.uint64((1 << SAMPLE_WEIGHT_BITS) - 1)
        weights[start:start + n] = z
    weights += 1
    return weights


def reduce_weights(weights, total: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Rows of non-negative integer weights as (numerators, denominators).

    Row i becomes the measure weights[i] / sum(weights[i]), reduced by the
    gcd of the row and its sum.  weights is a k x n integer array, or rows
    of Python ints, which numpy is not left to type.  The result is int64
    when every row sum fits int64, and Python ints (object) otherwise.
    When total is given, every row must sum to it.
    """
    w = weights if isinstance(weights, np.ndarray) else np.array(weights, dtype=object)
    if not (w.dtype.kind in "biu" or w.dtype == object and all(isinstance(x, int) for x in w.flat)):
        raise TypeError("Measure.from_weights takes integers only")
    if w.shape[1] == 0:
        raise ValueError("measure needs at least one entry")
    if w.size and w.min() < 0:
        raise ValueError("measure entries must be non-negative")
    # n times the largest weight bounds every row sum; past that bound the
    # sums are taken exactly, on Python ints
    fits = not w.size or int(w.max()) * w.shape[1] <= INT64_MAX or (
        w.astype(object).sum(axis=1).max() <= INT64_MAX)
    w = w.astype(np.int64 if fits else object, copy=False)
    den = w.sum(axis=1)
    if total is not None and (den != total).any():
        raise ValueError("measure entries must sum to exactly 1")
    if (den == 0).any():
        raise ValueError("measure weights must not all be zero")
    g = np.gcd(np.gcd.reduce(w, axis=1), den)
    return w // g[:, None], den // g


class Battery(Sequence):
    """Labelled measures on n vertices as one reduced integer matrix.

    Row i of `num` (k x n) over `den[i]` is the measure labelled
    `labels[i]`; every row is non-negative, sums to its denominator and is
    reduced.  As a sequence a battery holds `(label, Measure)` pairs, and
    each `Measure` is built when it is asked for.
    """

    __slots__ = ("labels", "num", "den")

    def __init__(self, labels: Sequence[str], weights: np.ndarray):
        if len(labels) != len(weights):
            raise ValueError(f"{len(labels)} labels for {len(weights)} measures")
        self.labels = tuple(labels)
        self.num, self.den = reduce_weights(weights)

    @property
    def n(self) -> int:
        return self.num.shape[1]

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Battery(self.labels[i], self.num[i])
        return self.labels[i], Measure._reduced(tuple(self.num[i].tolist()), int(self.den[i]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Battery({len(self)} measures on {self.n} vertices)"


def sample_measures(n: int, count: int, seed: int) -> list[Measure]:
    """Deterministic random interior measures.

    Sample i draws n integer weights uniform in [1, 2^16] from the
    counter-based generator at sub-seed (seed, i) and normalizes exactly, so
    every entry is strictly positive and the entries sum to exactly 1.
    Results depend only on (n, count, seed), never on scheduling.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    num, den = reduce_weights(sample_weights(n, count, seed))
    return [Measure._reduced(tuple(q), d) for q, d in zip(num.tolist(), den.tolist())]
