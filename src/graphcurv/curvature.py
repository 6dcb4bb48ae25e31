"""Exact solution of D w = n 1 and the curvature bound K = n / ||w||_1.

The exact path runs fraction-free Bareiss elimination on Python ints
(`bareiss_solve`); rank and consistency are decided there and only there,
and w is returned only after the integer identity D num = n den 1 holds.
The same kernel solves the basis systems of the game certificate
(graphcurv.game).  The float path is plain LU for large instances and never
classifies the solution set.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.linalg

from .errors import HardVerificationError, InconsistentSystemError, NumericallySingularError
from .metric import DistanceMatrix, row_sums

FLOAT_PIVOT_FLOOR = 1e-12  # scaled by n at use


class SolveStatus(enum.Enum):
    UNIQUE = "unique"
    UNDERDETERMINED = "underdetermined"
    INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class CurvatureSolution:
    """Outcome of solving D w = n 1 exactly.

    For underdetermined systems w is the particular solution with all free
    variables set to zero; its l1 norm (and hence K) is then not canonical,
    which every consumer must surface as a warning.
    """

    status: SolveStatus
    n: int
    nullity: int = 0
    w: tuple[Fraction, ...] | None = None
    l1_norm: Fraction | None = None
    bound_K: Fraction | None = None
    min_entry: Fraction | None = None
    nonneg: bool = False
    warnings: tuple[str, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class FloatSolution:
    w: np.ndarray
    residual_inf: float
    condition_hint: float  # reciprocal pivot-growth estimate


def bareiss_solve(A: list[list[int]], b: list[int]) -> tuple[list[int], list[int] | None, int]:
    """Fraction-free Gaussian elimination of the integer system A x = b.

    Bareiss (1968): every entry after step k is a (k+1)-minor of [A | b], so
    each division by the previous pivot is exact and no gcd is taken.
    Returns (pivot_cols, num, den).  pivot_cols is the column rank profile of
    A (the columns where the rank grows), which does not depend on the row
    pivot rule.  num / den, with den > 0, is the solution whose non-pivot
    variables are zero; num is None when the system is inconsistent.  A and
    b are not modified.
    """
    m = len(A)
    ncols = len(A[0]) if m else 0
    R = [row[:] + [bi] for row, bi in zip(A, b)]
    piv_cols: list[int] = []
    prev = 1
    for col in range(ncols):
        r = len(piv_cols)
        p = next((i for i in range(r, m) if R[i][col]), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        top = R[r][col + 1:]
        pv = R[r][col]
        for i in range(r + 1, m):
            row = R[i]
            f = row[col]
            if f:
                row[col + 1:] = [(pv * x - f * y) // prev for x, y in zip(row[col + 1:], top)]
            else:
                row[col + 1:] = [pv * x // prev for x in row[col + 1:]]
        piv_cols.append(col)
        prev = pv
        if len(piv_cols) == m:
            break
    rank = len(piv_cols)
    if any(R[i][ncols] for i in range(rank, m)):
        return piv_cols, None, 1

    # back substitution over the common denominator det = prev: each
    # quotient is det * x_c, an integer by Cramer's rule
    num = [0] * ncols
    for i in range(rank - 1, -1, -1):
        row = R[i]
        s = prev * row[ncols] - sum(row[c] * num[c] for c in piv_cols[i + 1:])
        num[piv_cols[i]] = s // row[piv_cols[i]]
    if prev < 0:
        return piv_cols, [-x for x in num], -prev
    return piv_cols, num, prev


def solve_curvature(D: DistanceMatrix) -> CurvatureSolution:
    """Exact solution of D w = n 1 by fraction-free elimination.

    w is returned only after the integer identity D num = n den 1 holds.
    """
    n = D.n
    rows = D.row_lists()
    piv_cols, num, den = bareiss_solve(rows, [n] * n)
    rank = len(piv_cols)
    if num is None:
        return CurvatureSolution(status=SolveStatus.INCONSISTENT, n=n, nullity=n - rank)
    if any(sum(d * x for d, x in zip(row, num)) != n * den for row in rows):
        raise HardVerificationError("exact solve failed its check D num = n den 1")
    w = [Fraction(x, den) for x in num]

    l1 = sum((abs(x) for x in w), Fraction(0))
    min_entry = min(w)
    nonneg = min_entry >= 0
    warnings: list[str] = []
    if rank < n:
        warnings.append(
            f"system is underdetermined (nullity {n - rank}); w is the particular "
            "solution with free variables zeroed, so K is not canonical"
        )
    if l1 == 0:
        warnings.append("w = 0, so the l1 norm vanishes and K is undefined")
    return CurvatureSolution(
        status=SolveStatus.UNIQUE if rank == n else SolveStatus.UNDERDETERMINED,
        n=n,
        nullity=n - rank,
        w=tuple(w),
        l1_norm=l1,
        bound_K=Fraction(n) / l1 if l1 != 0 else None,
        min_entry=min_entry,
        nonneg=nonneg,
        warnings=tuple(warnings),
    )


def curvature_bound(sol: CurvatureSolution, n: int) -> Fraction:
    """K = n / ||w||_1, exactly."""
    if sol.status is SolveStatus.INCONSISTENT:
        raise InconsistentSystemError("no curvature vector exists for this graph")
    if sol.l1_norm == 0:
        raise InconsistentSystemError("w has zero l1 norm; the bound is undefined")
    return Fraction(n) / sol.l1_norm


def solve_curvature_float(D: DistanceMatrix) -> FloatSolution:
    """Partial-pivoting LU in doubles; residual recomputed, never assumed."""
    n = D.n
    A = D.entries.astype(np.float64)
    rhs = np.full(n, float(n))
    with warnings.catch_warnings():
        # singularity is decided by the explicit pivot check below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A)
    u_diag = np.abs(np.diagonal(lu))
    if u_diag.min() < FLOAT_PIVOT_FLOOR * n:
        raise NumericallySingularError(
            f"pivot {u_diag.min():.3e} below {FLOAT_PIVOT_FLOOR * n:.3e}; "
            "matrix is numerically singular"
        )
    w = scipy.linalg.lu_solve((lu, piv), rhs)
    residual = float(np.abs(A @ w - rhs).max())
    cond_hint = float(u_diag.min() / np.abs(A).max()) if n > 1 else 1.0
    return FloatSolution(w=w, residual_inf=residual, condition_hint=cond_hint)


def transitive_oracle(D: DistanceMatrix) -> Fraction | None:
    """K for distance-regular row sums: if all row sums equal S, K = S/n.

    Independent of the elimination path: when every row of D sums to S the
    constant vector (n/S) 1 solves D w = n 1 with l1 norm n^2/S.
    """
    sums = row_sums(D)
    if len(set(sums.tolist())) != 1:
        return None
    S = int(sums[0])
    if S == 0:
        return None
    return Fraction(S, D.n)
