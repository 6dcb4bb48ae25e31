"""Exact verification of the minimax sandwich A <= K <= B.

For a measure P the transport vector is D P: component u is the expected
distance from u to a P-random vertex.  A and B are its min and max.  The
sandwich around K = n/||w||_1 is checked by exact rational comparison; there
is no tolerance anywhere in this module.

A measure is q / den for integers q, so D P = (D q) / den, and A and B are
the min and max of the integer vector D q over den.  `verify_minimax` stacks
the numerators of up to n measures into one n x k block Q and takes N = D Q
as one matrix product per block; each measure then costs two rationals,
A and B.  Blocks of at most n columns keep Q and N no larger than D.

The inner-product identity <w, D P> = n is what makes the sandwich work:
n = <n 1, P> = <D w, P> = <w, D P>, which lies between A ||w||_1 and
B ||w||_1 when w is non-negative, and below B ||w||_1 always.  For signed w
a measure with A > K may exist; graphcurv.game.search_lower_violation reads
one off the matrix game.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .curvature import CurvatureSolution, SolveStatus, curvature_bound
from .errors import HardVerificationError, InconsistentSystemError
from .measures import Measure, measure_delta, measure_uniform, measure_uniform_on, sample_measures
from .metric import DistanceMatrix

INT64_MAX = (1 << 63) - 1
BATTERY_PAIR_LIMIT = 12  # include pair-uniform measures in the battery up to this n


@dataclass(frozen=True)
class TransportBounds:
    dp: tuple[Fraction, ...]
    A: Fraction
    B: Fraction
    argmin: int
    argmax: int


@dataclass(frozen=True)
class MeasureRecord:
    descriptor: str
    A: Fraction
    B: Fraction
    K: Fraction
    lower_holds: bool
    upper_holds: bool
    lower_tight: bool
    upper_tight: bool


@dataclass(frozen=True)
class VerificationReport:
    records: tuple[MeasureRecord, ...]
    measures_checked: int
    lower_failures: int
    upper_failures: int
    nonneg: bool
    findings: tuple[str, ...] = field(default_factory=tuple)


def transport_vector(D: DistanceMatrix, P: Measure) -> TransportBounds:
    """D P computed exactly, with min/max and their lowest attaining indices.

    The one-column case of the battery's product: D P = (D q) / den for
    P = q / den, with D q from `_transport_block`.
    """
    _check_dimensions(D, [P])
    num = _transport_block(D, [P])[:, 0].tolist()
    lo, hi = min(num), max(num)
    dp = tuple(Fraction(x, P.den) for x in num)
    return TransportBounds(dp=dp, A=Fraction(lo, P.den), B=Fraction(hi, P.den),
                           argmin=num.index(lo), argmax=num.index(hi))


def _check_dimensions(D: DistanceMatrix, measures: Iterable[Measure]) -> None:
    for P in measures:
        if P.n != D.n:
            raise ValueError(
                f"dimension mismatch: measure on {P.n} vertices, matrix is {D.n}x{D.n}"
            )


def _transport_block(D: DistanceMatrix, block: Sequence[Measure]) -> np.ndarray:
    """N = D Q, exactly, for the n x k matrix Q of the block's numerators.

    Column j of N is den_j times the transport vector of measure j.  Every
    entry of N is at most max(D) * den_j, and every entry of Q at most
    den_j, so N is one int64 product when max(D) times the block's largest
    den fits int64, and a product on Python ints otherwise.
    """
    fits = max(int(D.entries.max()), 1) * max(P.den for P in block) <= INT64_MAX
    dtype = np.int64 if fits else object
    Q = np.array([P.q for P in block], dtype=dtype).T
    return D.entries.astype(dtype, copy=False) @ Q


def _battery_bounds(
    D: DistanceMatrix, battery: Sequence[Measure]
) -> Iterator[tuple[Fraction, Fraction]]:
    """(A, B) per measure, in order, from one `_transport_block` per n measures."""
    for start in range(0, len(battery), D.n):
        block = battery[start:start + D.n]
        N = _transport_block(D, block)
        for P, lo, hi in zip(block, N.min(axis=0).tolist(), N.max(axis=0).tolist()):
            yield Fraction(lo, P.den), Fraction(hi, P.den)


def identity_check(w: Sequence[Fraction], D: DistanceMatrix, P: Measure) -> Fraction:
    """The inner product <w, D P>, exactly; equals n for any solution w."""
    if len(w) != D.n:
        raise ValueError(f"dimension mismatch: w has {len(w)} entries, matrix is {D.n}x{D.n}")
    dp = transport_vector(D, P).dp
    return sum((wi * di for wi, di in zip(w, dp)), Fraction(0))


def measure_battery(n: int, samples: int = 100, seed: int = 0) -> list[tuple[str, Measure]]:
    """The fixed verification battery, in deterministic order.

    All delta measures, the uniform measure, all pair-uniform measures for
    small n, then `samples` seeded random interior measures.  "For all P" is
    unverifiable; this covers the simplex's extreme points, its barycenter,
    the structured measures that produce known lower-bound failures, and a
    seeded random interior sweep.
    """
    battery: list[tuple[str, Measure]] = []
    for v in range(n):
        battery.append((f"delta:{v}", measure_delta(n, v)))
    battery.append(("uniform", measure_uniform(n)))
    if n <= BATTERY_PAIR_LIMIT:
        for u, v in itertools.combinations(range(n), 2):
            battery.append((f"uniform_on:{u},{v}", measure_uniform_on(n, (u, v))))
    if samples > 0:
        for i, mu in enumerate(sample_measures(n, samples, seed)):
            battery.append((f"sample:{i}", mu))
    return battery


def verify_minimax(
    D: DistanceMatrix,
    sol: CurvatureSolution,
    measures: Sequence[Measure] | Sequence[tuple[str, Measure]],
) -> VerificationReport:
    """Check A <= K <= B per measure by exact comparison.

    Every measure's dimension is checked before any product; A and B then
    come from one product per block of n measures (`_battery_bounds`).
    The upper bound must hold for every measure, and the lower bound for
    every measure whenever w is non-negative; either failure raises
    HardVerificationError since it falsifies the implementation, not the
    theorem.  Lower failures for signed w are recorded as findings.
    """
    if sol.status is SolveStatus.INCONSISTENT:
        raise InconsistentSystemError("cannot verify: the curvature system is inconsistent")
    K = curvature_bound(sol, D.n)
    labelled = [m if isinstance(m, tuple) else (f"measure:{i}", m) for i, m in enumerate(measures)]
    battery = [mu for _, mu in labelled]
    _check_dimensions(D, battery)
    records = []
    findings = []
    lower_failures = 0
    for (descriptor, _), (A, B) in zip(labelled, _battery_bounds(D, battery)):
        lower = A <= K
        upper = K <= B
        if not upper:
            raise HardVerificationError(
                f"upper bound failed for {descriptor}: K = {K} > B = {B}; "
                "this contradicts the identity <w, DP> = n"
            )
        if not lower:
            if sol.nonneg:
                raise HardVerificationError(
                    f"lower bound failed for {descriptor} although min w >= 0: "
                    f"A = {A} > K = {K}"
                )
            lower_failures += 1
            findings.append(
                f"lower bound fails for {descriptor}: A = {A} > K = {K} "
                "(allowed: w has a negative entry)"
            )
        records.append(MeasureRecord(
            descriptor=descriptor, A=A, B=B, K=K,
            lower_holds=lower, upper_holds=upper,
            lower_tight=(A == K), upper_tight=(K == B),
        ))
    return VerificationReport(
        records=tuple(records),
        measures_checked=len(records),
        lower_failures=lower_failures,
        upper_failures=0,
        nonneg=sol.nonneg,
        findings=tuple(findings),
    )
