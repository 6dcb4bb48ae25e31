"""Exact verification of the minimax sandwich A <= K <= B.

For a measure P the transport vector is D P: component u is the expected
distance from u to a P-random vertex.  A and B are its min and max.  The
sandwich around K = n/||w||_1 is checked by exact integer comparison; there
is no tolerance anywhere in this module.

The battery is a `Battery`: k measures as one k x n matrix of reduced
numerators q over a vector of denominators den, so D P = (D q) / den, and A
and B are the column min and max of N = D Q over den.  `verify_minimax`
takes one product N = D Q per block of at most n measures, as many as fit
a byte budget, through `_transport_block`, the one kernel of every D P,
keeps A and B as reduced integer arrays, and decides lower, upper and
tight for all measures at once by integer cross-multiplication with K.  A
rational or a `MeasureRecord` per measure is built only when
`VerificationReport.records` is read.  A sequence of measures becomes a
battery from their numerators as Python ints; `measures.reduce_weights`
decides whether they are held in int64.

The inner-product identity <w, D P> = n is what makes the sandwich work:
n = <n 1, P> = <D w, P> = <w, D P>, which lies between A ||w||_1 and
B ||w||_1 when w is non-negative, and below B ||w||_1 always.  For signed w
a measure with A > K may exist; graphcurv.game.search_lower_violation reads
one off the matrix game.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .curvature import CurvatureSolution, SolveStatus, curvature_bound
from .errors import HardVerificationError, InconsistentSystemError
from .measures import Battery, Measure, sample_weights
from .measures import sample_measures  # noqa: F401  (perfbench/tracing.py patches it here)
from .metric import DistanceMatrix
from .rationals import INT64_MAX, exact_matmul

BATTERY_PAIR_LIMIT = 12  # include pair-uniform measures in the battery up to this n
# bytes of one float64 block of N (and of its Q) in verify_minimax: blocks
# hold n columns up to n = 181, and above that the block products stay below
# D's own 8 n^2 bytes; against blocks of n columns, the narrower blocks cost
# gnp:320,1/32 about 1 ms and gnp:640,1/64 10-12 ms per call on 100 samples
# (2 vCPUs, one BLAS thread), against exact solves of 0.07 s and 0.42-0.45 s
_BLOCK_BYTES = 1 << 18


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


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """The sandwich over a battery, one array entry per measure, in order.

    Measure i has A = A_num[i] / A_den[i] and B = B_num[i] / B_den[i],
    each reduced.  Reports compare equal when their records, `nonneg` and
    findings are equal.
    """

    labels: tuple[str, ...]
    K: Fraction
    A_num: np.ndarray
    A_den: np.ndarray
    B_num: np.ndarray
    B_den: np.ndarray
    lower_holds: np.ndarray
    upper_holds: np.ndarray
    lower_tight: np.ndarray
    upper_tight: np.ndarray
    nonneg: bool
    findings: tuple[str, ...] = field(default_factory=tuple)

    @property
    def measures_checked(self) -> int:
        return len(self.labels)

    @property
    def lower_failures(self) -> int:
        return self.measures_checked - int(self.lower_holds.sum())

    @property
    def upper_failures(self) -> int:
        return self.measures_checked - int(self.upper_holds.sum())

    @cached_property
    def records(self) -> tuple[MeasureRecord, ...]:
        columns = (self.A_num, self.A_den, self.B_num, self.B_den, self.lower_holds,
                   self.upper_holds, self.lower_tight, self.upper_tight)
        return tuple(
            MeasureRecord(descriptor=label, A=Fraction(a, ad), B=Fraction(b, bd), K=self.K,
                          lower_holds=lh, upper_holds=uh, lower_tight=lt, upper_tight=ut)
            for label, a, ad, b, bd, lh, uh, lt, ut
            in zip(self.labels, *(c.tolist() for c in columns))
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, VerificationReport):
            return NotImplemented
        return (self.records, self.nonneg, self.findings) == (
            other.records, other.nonneg, other.findings)

    __hash__ = None


def transport_vector(D: DistanceMatrix, P: Measure) -> TransportBounds:
    """D P computed exactly, with min/max and their lowest attaining indices.

    The one-column case of the battery's product: D P = (D q) / den for
    P = q / den, with D q from `_transport_block`.
    """
    if P.n != D.n:
        raise ValueError(_mismatch(P.n, D.n))
    num = _transport_block(D, [P.q], [P.den])[:, 0].tolist()
    lo, hi = min(num), max(num)
    dp = tuple(Fraction(x, P.den) for x in num)
    return TransportBounds(dp=dp, A=Fraction(lo, P.den), B=Fraction(hi, P.den),
                           argmin=num.index(lo), argmax=num.index(hi))


def _as_battery(D: DistanceMatrix, measures) -> Battery:
    """The measures as a battery on D's vertices, after a dimension check.

    A `Battery` is checked by its shape.  Any other sequence holds
    (label, Measure) pairs or bare measures, labelled measure:<index>.
    """
    if isinstance(measures, Battery):
        if measures.n != D.n:
            raise ValueError(_mismatch(measures.n, D.n))
        return measures
    labelled = [m if isinstance(m, tuple) else (f"measure:{i}", m) for i, m in enumerate(measures)]
    for _, P in labelled:
        if P.n != D.n:
            raise ValueError(_mismatch(P.n, D.n))
    weights = np.array([P.q for _, P in labelled], dtype=object).reshape(len(labelled), D.n)
    return Battery([label for label, _ in labelled], weights)


def _mismatch(measure_n: int, n: int) -> str:
    return f"dimension mismatch: measure on {measure_n} vertices, matrix is {n}x{n}"


def _transport_block(D: DistanceMatrix, num, den, D_float: np.ndarray | None = None) -> np.ndarray:
    """N = D Q, exactly, for the n x k matrix Q = num.T of measures num[j] / den[j].

    Taken by the battery's blocks, `transport_vector` and the game's
    certificates.  Column j of N is den[j] times the transport vector of
    measure j, so max(D) max(den) bounds `exact_matmul`'s partial sums.
    """
    return exact_matmul(D.entries, num, max(int(D.entries.max()), 1) * int(np.max(den)), D_float)


def _reduce(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    g = np.gcd(num, den)
    return num // g, den // g


def _ratio_str(num: int, den: int) -> str:
    """str(Fraction(num, den)) of a reduced ratio."""
    return str(num) if den == 1 else f"{num}/{den}"


def identity_check(w: Sequence[Fraction], D: DistanceMatrix, P: Measure) -> Fraction:
    """The inner product <w, D P>, exactly; equals n for any solution w."""
    if len(w) != D.n:
        raise ValueError(f"dimension mismatch: w has {len(w)} entries, matrix is {D.n}x{D.n}")
    dp = transport_vector(D, P).dp
    return sum((wi * di for wi, di in zip(w, dp)), Fraction(0))


def measure_battery(n: int, samples: int = 100, seed: int = 0) -> Battery:
    """The fixed verification battery, in deterministic order.

    All delta measures, the uniform measure, all pair-uniform measures for
    small n, then `samples` seeded random interior measures.  "For all P" is
    unverifiable; this covers the simplex's extreme points, its barycenter,
    the structured measures that produce known lower-bound failures, and a
    seeded random interior sweep.  The weights of all of them form one
    matrix, reduced once by `Battery`.
    """
    pairs = np.array([(u, v) for u in range(n) for v in range(u + 1, n)]
                     if n <= BATTERY_PAIR_LIMIT else [], dtype=np.intp).reshape(-1, 2)
    samples = max(samples, 0)
    labels = ([f"delta:{v}" for v in range(n)] + ["uniform"]
              + [f"uniform_on:{u},{v}" for u, v in pairs.tolist()]
              + [f"sample:{i}" for i in range(samples)])
    weights = np.zeros((len(labels), n), dtype=np.int64)
    np.fill_diagonal(weights[:n], 1)
    weights[n] = 1
    rows = np.arange(n + 1, n + 1 + len(pairs))
    weights[rows, pairs[:, 0]] = weights[rows, pairs[:, 1]] = 1
    if samples:
        weights[len(labels) - samples:] = sample_weights(n, samples, seed)
    return Battery(labels, weights)


def verify_minimax(
    D: DistanceMatrix,
    sol: CurvatureSolution,
    measures: Battery | Sequence[Measure] | Sequence[tuple[str, Measure]],
) -> VerificationReport:
    """Check A <= K <= B per measure by exact comparison.

    A sequence that is not a `Battery` is made into one first, and the
    battery's dimension is checked before any product.  A and B are the
    column min and max of one `_transport_block` per block of at most n
    measures whose N fits `_BLOCK_BYTES`.  The upper bound must hold for
    every measure, and the lower bound for every measure whenever w is
    non-negative; either failure raises HardVerificationError, naming the
    first failing measure in battery order, since it falsifies the
    implementation, not the theorem.  Lower failures for signed w are
    recorded as findings.
    """
    if sol.status is SolveStatus.INCONSISTENT:
        raise InconsistentSystemError("cannot verify: the curvature system is inconsistent")
    K = curvature_bound(sol, D.n)
    battery = _as_battery(D, measures)
    lo, hi = [np.zeros(0, dtype=battery.den.dtype)], [np.zeros(0, dtype=battery.den.dtype)]
    D_float = D.entries.astype(np.float64)
    width = min(D.n, max(1, _BLOCK_BYTES // (8 * D.n)))
    for rows in (slice(start, start + width) for start in range(0, len(battery), width)):
        N = _transport_block(D, battery.num[rows], battery.den[rows], D_float)
        lo.append(N.min(axis=0))
        hi.append(N.max(axis=0))
        del N  # before the next block's product, so that one N at a time is alive
    A_num, A_den = _reduce(np.concatenate(lo), battery.den)
    B_num, B_den = _reduce(np.concatenate(hi), battery.den)

    # A <= K <=> A_num * Kd <= Kn * A_den, and K <= B likewise, on int64 when
    # every product fits and on Python ints otherwise
    Kn, Kd = K.numerator, K.denominator
    biggest = max([0, *(int(x.max()) for x in (A_num, A_den, B_num, B_den) if len(x))])
    dtype = np.int64 if biggest * max(Kn, Kd) <= INT64_MAX else object
    a, ka = A_num.astype(dtype) * Kd, A_den.astype(dtype) * Kn
    b, kb = B_num.astype(dtype) * Kd, B_den.astype(dtype) * Kn
    lower, upper = a <= ka, kb <= b

    hard = ~upper | (~lower & sol.nonneg)
    if hard.any():
        i = int(hard.argmax())
        descriptor = battery.labels[i]
        if not upper[i]:
            raise HardVerificationError(
                f"upper bound failed for {descriptor}: K = {K} > "
                f"B = {_ratio_str(int(B_num[i]), int(B_den[i]))}; "
                "this contradicts the identity <w, DP> = n"
            )
        raise HardVerificationError(
            f"lower bound failed for {descriptor} although min w >= 0: "
            f"A = {_ratio_str(int(A_num[i]), int(A_den[i]))} > K = {K}"
        )
    K_str = str(K)
    findings = tuple(
        f"lower bound fails for {battery.labels[i]}: A = {_ratio_str(x, d)} > K = {K_str} "
        "(allowed: w has a negative entry)"
        for i, x, d in zip(np.flatnonzero(~lower).tolist(), A_num[~lower].tolist(),
                           A_den[~lower].tolist())
    )
    return VerificationReport(
        labels=battery.labels, K=K, A_num=A_num, A_den=A_den, B_num=B_num, B_den=B_den,
        lower_holds=lower, upper_holds=upper, lower_tight=a == ka, upper_tight=kb == b,
        nonneg=sol.nonneg, findings=findings,
    )
