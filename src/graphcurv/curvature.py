"""Exact solution of D w = n 1 and the curvature bound K = n / ||w||_1.

The exact path first tries Dixon p-adic lifting (`dixon_solve`, Dixon 1982)
in int64 numpy: D is inverted modulo the fixed prime LIFT_PRIME, the p-adic
digits of w are lifted one matrix-vector product at a time, and w is read
off by rational reconstruction (Wang, Guy & Davenport 1982).  A candidate is
returned only after the integer identity D num = n den 1 holds; an inverse
mod p proves det D != 0, so the status is then unique.  When D is singular
mod p (which includes every underdetermined or inconsistent system), the
step cap is reached, or n is too large for the int64 guard, fraction-free
Bareiss elimination on Python ints (`bareiss_solve`) decides rank,
consistency and the particular solution, and its w passes the same
identity.  The game (graphcurv.game) solves its basis systems the same
way: lifting first (`dixon_inverse` once, then `dixon_lift` for the basis
and its transpose), Bareiss when lifting gives up.  The float path is plain
LU for large instances and never classifies the solution set; it imports
scipy.linalg only when it runs.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

import numpy as np

from .errors import HardVerificationError, InconsistentSystemError, NumericallySingularError
from .metric import DistanceMatrix, row_sums

FLOAT_PIVOT_FLOOR = 1e-12  # scaled by n at use
LIFT_PRIME = 33554393  # the largest prime below 2**25
LIFT_MAX_N = (2**63 - 1) // LIFT_PRIME**2  # 8192: n p^2 < 2^63 keeps int64 sums of products exact
_RESIDUAL_ROWS = 256  # rows of D per float block of the residual


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


def _inverse_mod(A: np.ndarray, p: int) -> np.ndarray | None:
    """Inverse of the square int64 matrix A modulo the prime p, or None if singular mod p.

    Gauss-Jordan on [A | I], vectorised over rows.  Only the pivot column
    and the pivot row are reduced before they are read; every other entry
    takes one product below p^2 per step, so it stays below n p^2 < 2^63.
    """
    n = len(A)
    M = np.zeros((n, 2 * n), dtype=np.int64)
    M[:, :n] = A % p
    M[:, n:] = np.eye(n, dtype=np.int64)
    for k in range(n):
        col = M[k:, k]
        col %= p
        nz = np.flatnonzero(col)
        if nz.size == 0:
            return None
        r = k + int(nz[0])
        if r != k:
            M[[k, r]] = M[[r, k]]
        row = M[k, k:]
        row %= p
        row *= pow(int(row[0]), p - 2, p)
        row %= p
        f = M[:, k] % p
        f[k] = 0
        M[:, k:] -= np.outer(f, row)
    return M[:, n:] % p


def _lift_steps(n: int, a: int, beta: int, p: int) -> int:
    """Lifting steps after which reconstruction must find the solution.

    By Hadamard's bound every n x n minor of [A | b], so det A and each
    Cramer numerator, is at most H with H^2 = (n a^2 + beta^2)^n, where a
    and beta are the largest magnitudes in A and b; reconstruction is
    unique once p^k > 2 H^2.
    """
    h2 = (n * a * a + beta * beta) ** n
    steps, pk = 0, 1
    while pk <= 2 * h2:
        pk *= p
        steps += 1
    return steps


def _reconstruct(u: list[int], m: int) -> tuple[list[int], int] | None:
    """num, den > 0 with den u = num (mod m) and |num_i|, den <= sqrt(m/2), or None.

    Wang's rational reconstruction entry by entry, carrying the common
    denominator so far: an entry whose reduced fraction needs no new factor
    costs one product.  Such a pair is unique when it exists; a pair found
    before enough digits are lifted may still be wrong, so callers certify.
    """
    bound = isqrt(m // 2)
    num: list[int] = []
    den = 1
    for ui in u:
        a = den * ui % m
        if a > bound:
            a -= m
        if a < -bound:
            r0, r1, t0, t1 = m, a + m, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1 = r1, r0 - q * r1
                t0, t1 = t1, t0 - q * t1
            if t1 < 0:
                r1, t1 = -r1, -t1
            if den * t1 > bound:
                return None
            num = [x * t1 for x in num]
            den *= t1
            a = r1
        num.append(a)
    return num, den


def _satisfies(A: np.ndarray, b: list[int], num: list[int], den: int) -> bool:
    """The exact integer identity A num == den b, on Python ints."""
    lhs = A.astype(object) @ np.array(num, dtype=object)
    return all(x == den * bi for x, bi in zip(lhs, b))


def dixon_solve(A: np.ndarray, b: list[int]) -> tuple[list[int], int] | None:
    """num, den > 0 with A num = den b exactly, by Dixon p-adic lifting, or None.

    A is a square int64 matrix.  With C = A^-1 mod p, each step takes
    x = C (r mod p) mod p and r <- (r - A x) / p, an exact int64 division, so
    sum_i x_i p^i solves A w = b modulo p^k after k steps.  w is
    reconstructed after 2, 4, 8, ... steps and at the cap `_lift_steps`, and
    returned only once A num == den b holds.  None when A is singular mod p
    (every singular A is), when the cap is reached, or when an int64 sum
    could overflow; the caller then eliminates exactly.
    """
    C = dixon_inverse(A, max(map(abs, b), default=0))
    return None if C is None else dixon_lift(A, C, b)


def dixon_inverse(A: np.ndarray, beta: int) -> np.ndarray | None:
    """A^-1 mod LIFT_PRIME for lifting right-hand sides up to beta in magnitude.

    None when A is singular mod p, or when an int64 sum could overflow.
    """
    n = len(A)
    a = int(np.abs(A).max(initial=0))
    # |r| stays below beta + 2 n a, so r - A x stays below n p (2 a + beta)
    if n > LIFT_MAX_N or n * LIFT_PRIME * (2 * a + beta) >= 2**63:
        return None
    return _inverse_mod(A, LIFT_PRIME)


def dixon_lift(A: np.ndarray, C: np.ndarray, b: list[int]) -> tuple[list[int], int] | None:
    """`dixon_solve`'s lifting, with C = A^-1 mod p from `dixon_inverse`."""
    p = LIFT_PRIME
    n = len(A)
    steps = _lift_steps(n, int(np.abs(A).max(initial=0)), max(map(abs, b), default=0), p)
    r = np.array(b, dtype=np.int64)
    u = [0] * n
    pk = 1
    attempt = 2
    for step in range(1, steps + 1):
        x = C @ (r % p) % p
        r = (r - A @ x) // p
        u = [ui + xi * pk for ui, xi in zip(u, x.tolist())]
        pk *= p
        if step == attempt or step == steps:
            attempt *= 2
            cand = _reconstruct(u, pk)
            if cand is not None and _satisfies(A, b, *cand):
                return cand
    return None


def solve_curvature(D: DistanceMatrix) -> CurvatureSolution:
    """Exact solution of D w = n 1: p-adic lifting, else fraction-free elimination.

    w is returned only after the integer identity D num = n den 1 holds.
    """
    n = D.n
    b = [n] * n
    lifted = dixon_solve(D.entries, b)
    if lifted is not None:
        num, den = lifted
        rank = n  # an inverse mod p proves det D != 0
    else:
        piv_cols, num, den = bareiss_solve(D.entries.tolist(), b)
        rank = len(piv_cols)
        if num is None:
            return CurvatureSolution(status=SolveStatus.INCONSISTENT, n=n, nullity=n - rank)
        if not _satisfies(D.entries, b, num, den):
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
    """Partial-pivoting LU in doubles; residual recomputed, never assumed.

    LU factors a float copy of D in place, so only one n x n float array
    exists; the residual is taken from D in row blocks.  The copy is made in
    D's own C order, a straight copy, and handed to LU transposed: that view
    is Fortran-contiguous and equals D, which is symmetric.
    """
    import scipy.linalg  # here, so that the exact paths never load scipy

    n = D.n
    lu = D.entries.astype(np.float64).T
    rhs = np.full(n, float(n))
    with warnings.catch_warnings():
        # singularity is decided by the explicit pivot check below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(lu, overwrite_a=True)
    u_diag = np.abs(np.diagonal(lu))
    if u_diag.min() < FLOAT_PIVOT_FLOOR * n:
        raise NumericallySingularError(
            f"pivot {u_diag.min():.3e} below {FLOAT_PIVOT_FLOOR * n:.3e}; "
            "matrix is numerically singular"
        )
    w = scipy.linalg.lu_solve((lu, piv), rhs)
    residual = max(float(np.abs(D.entries[r:r + _RESIDUAL_ROWS].astype(np.float64) @ w
                                - float(n)).max())
                   for r in range(0, n, _RESIDUAL_ROWS))
    cond_hint = float(u_diag.min() / D.entries.max()) if n > 1 else 1.0  # D >= 0, so max = max |.|
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
