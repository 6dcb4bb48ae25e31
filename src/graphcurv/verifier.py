"""Exact verification of the minimax sandwich A <= K <= B.

For a measure P the transport vector is D P: component u is the expected
distance from u to a P-random vertex.  A and B are its min and max.  The
sandwich around K = n/||w||_1 is checked by exact rational comparison; there
is no tolerance anywhere in this module.

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
from math import lcm
from typing import Sequence

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

    With P = q / den for integers q >= 0 summing to den, D P = (D q) / den.
    Every entry of D q is at most max(D) * den, and every entry of q at most
    den, so D q is one int64 product when both fit, and a product on Python
    ints otherwise.
    """
    if P.n != D.n:
        raise ValueError(f"dimension mismatch: measure on {P.n} vertices, matrix is {D.n}x{D.n}")
    den = lcm(*(x.denominator for x in P.p))
    q = [x.numerator * (den // x.denominator) for x in P.p]
    if max(int(D.entries.max()), 1) * den <= INT64_MAX:
        num = (D.entries @ np.array(q, dtype=np.int64)).tolist()
    else:
        num = (D.entries.astype(object) @ np.array(q, dtype=object)).tolist()
    lo, hi = min(num), max(num)
    dp = tuple(Fraction(x, den) for x in num)
    return TransportBounds(dp=dp, A=Fraction(lo, den), B=Fraction(hi, den),
                           argmin=num.index(lo), argmax=num.index(hi))


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

    The upper bound must hold for every measure, and the lower bound for
    every measure whenever w is non-negative; either failure raises
    HardVerificationError since it falsifies the implementation, not the
    theorem.  Lower failures for signed w are recorded as findings.
    """
    if sol.status is SolveStatus.INCONSISTENT:
        raise InconsistentSystemError("cannot verify: the curvature system is inconsistent")
    K = curvature_bound(sol, D.n)
    labelled = [m if isinstance(m, tuple) else (f"measure:{i}", m) for i, m in enumerate(measures)]
    records = []
    findings = []
    lower_failures = 0
    for descriptor, mu in labelled:
        tb = transport_vector(D, mu)
        lower = tb.A <= K
        upper = K <= tb.B
        if not upper:
            raise HardVerificationError(
                f"upper bound failed for {descriptor}: K = {K} > B = {tb.B}; "
                "this contradicts the identity <w, DP> = n"
            )
        if not lower:
            if sol.nonneg:
                raise HardVerificationError(
                    f"lower bound failed for {descriptor} although min w >= 0: "
                    f"A = {tb.A} > K = {K}"
                )
            lower_failures += 1
            findings.append(
                f"lower bound fails for {descriptor}: A = {tb.A} > K = {K} "
                "(allowed: w has a negative entry)"
            )
        records.append(MeasureRecord(
            descriptor=descriptor, A=tb.A, B=tb.B, K=K,
            lower_holds=lower, upper_holds=upper,
            lower_tight=(tb.A == K), upper_tight=(K == tb.B),
        ))
    return VerificationReport(
        records=tuple(records),
        measures_checked=len(records),
        lower_failures=lower_failures,
        upper_failures=0,
        nonneg=sol.nonneg,
        findings=tuple(findings),
    )
