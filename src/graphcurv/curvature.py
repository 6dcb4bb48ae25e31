"""Exact solution of D w = n 1 and the curvature bound K = n / ||w||_1.

Every exact solve, this one and the game's basis systems, runs through
`solve_exact`: for each prime p from LIFT_PRIME down, Gauss-Jordan mod p
(`_eliminate_mod`) gives the pivot rows I and columns J, and Dixon p-adic
lifting (`dixon_lift`, Dixon 1982) with rational reconstruction (Wang, Guy
& Davenport 1982) solves A[:, J] x = b and A[:, J] x = A[:, j] for every
free column j at once, on every row.  The elimination runs in column
panels, each taking the rest of the matrix in one float64 GEMM, and the
lift's products run on `exact_matmul`: with p < 2^20 both are exact float64
BLAS, in the manner of FFLAS-FFPACK (Dumas, Giorgi & Pernet, ACM TOMS 2008).
The lift certifies its own answers by exact divisions and a size bound.
Null columns that combine only pivot columns left of j certify J as the
column rank profile over Q (Dumas, Pernet & Sultan, ISSAC 2013), or the next
prime is tried; then w, free variables zero, has D num = n den 1 on every
row, or the system is inconsistent.  The solve keeps its elimination in an
`ExactSystem`, whose `transpose` lifts A^T y = c on the same inverse mod p.
The float path is plain LU for large instances and never classifies the
solution set; it imports scipy.linalg only when it runs.
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
from .rationals import FLOAT_EXACT_MAX, INT64_MAX, exact_matmul

FLOAT_PIVOT_FLOOR = 1e-12  # scaled by n at use
LIFT_PRIME = 1048573  # the largest prime below 2**20
_PANEL = 40  # columns per panel of `_eliminate_mod`; its GEMMs need _PANEL (p-1)^2 + p < 2^53
# rows of D per float block of the residual; part of the output, since the
# last bits of residual_inf depend on the block shape (and the BLAS threads)
_RESIDUAL_ROWS = 256


class SolveStatus(enum.Enum):
    UNIQUE = "unique"
    UNDERDETERMINED = "underdetermined"
    INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class CurvatureSolution:
    """Outcome of solving D w = n 1 exactly: w = num / den.

    num (None when inconsistent) and its least common denominator den are as
    `solve_exact` certified them.  For underdetermined systems w is the
    particular solution with free variables zero; its l1 norm (and hence K)
    is then not canonical, which every consumer must surface as a warning.
    """

    status: SolveStatus
    n: int
    nullity: int = 0
    num: tuple[int, ...] | None = None
    den: int = 1
    l1_norm: Fraction | None = None
    bound_K: Fraction | None = None
    min_entry: Fraction | None = None
    nonneg: bool = False
    warnings: tuple[str, ...] = field(default_factory=tuple)

    @property
    def w(self) -> tuple[Fraction, ...] | None:
        """num / den as rationals, or None for an inconsistent system."""
        return None if self.num is None else tuple(Fraction(x, self.den) for x in self.num)


@dataclass(frozen=True)
class FloatSolution:
    w: np.ndarray
    residual_inf: float
    condition_hint: float  # reciprocal pivot-growth estimate


def _eliminate_mod(A: np.ndarray, p: int) -> tuple[list[int], list[int], np.ndarray]:
    """Gauss-Jordan modulo the prime p <= LIFT_PRIME, in column panels: (rows, cols, C).

    A column with no pivot left is skipped, so `cols` is the column rank
    profile of A mod p; the pivot is the first nonzero at or below the
    current row, in the current row order, and `rows` (ascending) are the
    rows the pivots came from.  C = A[rows, cols]^-1 mod p, with one row per
    pivot column and one column per pivot row; a full-rank square A gives
    C = A^-1.  An object A is reduced mod p first; C, its entries below p,
    comes back in int64 for every A.

    Each panel of _PANEL columns is eliminated a column at a time on int64,
    beside a slab Z that records the row operations in terms of the panel's
    pivot rows: after the panel every row x is its old self, when it is not
    a pivot, plus Z[x] times the old pivot rows.  The columns right of the
    panel and the transform's columns for the earlier pivots, U, then take
    the panel in one float64 GEMM of inner dimension at most _PANEL, and one
    `_reduce` into [0, p); with residues in [0, p) every entry stays below
    _PANEL (p-1)^2 + p < 2^53, at any size.  The transform's columns for the
    rows without a pivot are still the identity, so only U is stored, never
    [A | I]; the float array keeps every row at its original index, and a
    row swap moves only `perm`.
    """
    m, k = A.shape
    perm = list(range(m))  # the original row at each position of the current order
    # [A | U] mod p transposed, in float64: one row per column of A and of U,
    # and one column per row of A in its original order
    F = np.zeros((k + min(m, k), m))
    F[:k] = (A % p).T
    cols: list[int] = []
    r = 0  # the pivots so far
    for c0 in range(0, k, _PANEL):
        w = min(_PANEL, k - c0)
        r0 = r
        # the panel transposed, in the current row order, and below it Z transposed,
        # one row per pivot the panel may find
        M = np.zeros((w + min(w, m - r0), m), dtype=np.int64)
        M[:w] = F[c0:c0 + w].take(perm, axis=1)
        for j in range(w):
            f = M[j] % p
            nz = f[r:].nonzero()[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            pivot = int(f[i])
            if i != r:
                M[:, r], M[:, i] = M[:, i], M[:, r].copy()
                perm[r], perm[i] = perm[i], perm[r]
                f[i] = f[r]
            f[r] = 0
            e = w + r - r0 + 1  # the panel's columns right of j, and Z's columns so far
            M[e - 1, r] = 1  # the pivot row, itself in terms of the old pivot rows
            row = M[j + 1:e, r]
            row %= p
            row *= pow(pivot, p - 2, p)
            row %= p
            M[j + 1:e] -= row[:, None] * f
            cols.append(c0 + j)
            r += 1
        Z = M[w:w + r - r0] % p
        # the columns right of the panel and U's first r0 columns, one block of F's
        # rows: empty after the only panel
        X = F[c0 + w:k + r0]
        if r > r0 and X.size:
            # new = old + G old[pivot rows], with G = Z off the pivot rows and Z - I on them
            G = np.empty(Z.shape)
            G[:, perm] = Z
            piv = perm[r0:r]
            G[np.arange(r - r0), piv] = (Z[:, r0:r].diagonal() + (p - 1)) % p
            X += X[:, piv] @ G
            _reduce(X, p)
        F[k + r0:k + r, perm] = Z
    piv = np.array(perm[:r], dtype=np.intp)
    order = np.argsort(piv)  # the pivots by ascending row
    return piv[order].tolist(), cols, F[k:k + r, piv][order].T.astype(np.int64)


def _reduce(X: np.ndarray, p: int) -> None:
    """X mod p in place, for float64 integers 0 <= X < 2^53.

    X - floor(X (1/p)) p, then one correction: the rounded quotient can be
    one off either way (for p = 1048571 it often is), never more.
    """
    q = X * (1 / p)
    np.floor(q, out=q)
    q *= p
    X -= q
    X[X < 0] += p
    X[X >= p] -= p


def _primes():
    """LIFT_PRIME, then the primes below it in descending order, by trial division."""
    yield LIFT_PRIME
    for q in range(LIFT_PRIME - 1, 1, -1):
        if all(q % d for d in range(2, isqrt(q) + 1)):
            yield q


def _lift_steps(n: int, a: int, beta: int, p: int) -> int:
    """Lifting steps after which reconstruction must find the solution.

    By Hadamard's bound every n x n minor of [A | B], so det A and each
    Cramer numerator, is at most H with H^2 = (n a^2 + beta^2)^n, where a
    and beta are the largest magnitudes in A and B; reconstruction is
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


def dixon_lift(A: np.ndarray, C: np.ndarray, B: np.ndarray,
               p: int) -> list[tuple[list[int], int] | None]:
    """num_j, den_j > 0 with A num_j = den_j B[:, j] exactly, or None when no x has A x = B[:, j].

    A is m x r of full column rank with its r pivot rows first, C their
    inverse mod the prime p, and B has k columns.  Each step takes
    X = C (R[:r] mod p) mod p and R <- (R - A X) / p, one `exact_matmul`
    each for every column (Dixon 1982), on float64 copies of C and A made
    once.  The two products' bounds alone choose the integer width: the
    residues and C stay int64, and R turns into Python ints only when int64
    could overflow.  Each division must be exact: on a pivot row it is
    unless C is wrong (HardVerificationError), on a row below unless the
    column has no solution (None).  So A u = B - p^i R for the expansion u,
    and a reconstruction (Wang, Guy & Davenport 1982) with den u = num
    (mod p^i) and r max|A| max|num| + max|B| den < p^i has A num = den B[:, j]
    on every row, with no product.  Every column is reconstructed after 2, 4,
    8, ... steps and at the cap `_lift_steps` (at least 1, for rank 0), which
    covers the (r+1)-minors of [A | B] too when m > r; it returns once all
    but the None ones are accepted, or else the kernel is wrong.
    """
    m, r = A.shape
    a, beta = int(np.abs(A).max(initial=0)), int(np.abs(B).max(initial=0))
    steps = max(1, _lift_steps(r + (m > r), a, beta, p))
    # every entry of C (R mod p) is below r (p-1)^2; |R| <= beta + r a at every
    # step, since (beta + r a + r a (p-1)) / p <= beta + r a, so r a p + beta
    # bounds both A X and R - A X
    c_bound, a_bound = r * (p - 1) ** 2, r * max(a, 1) * p + beta
    # float copies for exact_matmul's float64 tier, made once
    C_float = C.astype(np.float64) if c_bound <= FLOAT_EXACT_MAX else None
    A_float = A.astype(np.float64) if a_bound <= FLOAT_EXACT_MAX else None
    R, U = B, [[0] * r for _ in range(B.shape[1])]  # the residual and the expansions so far
    dead = np.zeros(B.shape[1], dtype=bool)  # the columns without a solution
    pk = 1
    attempt = 2
    for step in range(1, steps + 1):
        X = exact_matmul(C, (R[:r] % p).astype(np.int64, copy=False).T, c_bound, C_float) % p
        R = R - exact_matmul(A, X.T, a_bound, A_float)
        rem = R % p
        if np.count_nonzero(rem):
            if rem[:r].any():
                raise HardVerificationError(
                    f"p-adic lifting mod {p}: a pivot row is not divisible by p, so C is wrong")
            dead |= (rem[r:] != 0).any(axis=0)
        R //= p
        U = [[ui + xi * pk for ui, xi in zip(u, x)] for u, x in zip(U, X.T.tolist())]
        pk *= p
        if step == attempt or step == steps:
            attempt *= 2
            sols = [None if d else _reconstruct(u, pk) for d, u in zip(dead, U)]
            if all(d or s and _fits(*s, u, pk, r * a, beta) for d, s, u in zip(dead, sols, U)):
                return sols
    raise HardVerificationError(
        f"p-adic lifting reached its cap of {steps} steps mod {p} without a certified solution")


def _fits(num: list[int], den: int, u: list[int], pk: int, ra: int, beta: int) -> bool:
    """Whether den u = num (mod pk) and ra max|num| + beta den < pk."""
    return ra * max(map(abs, num), default=0) + beta * den < pk and all(
        (den * x - y) % pk == 0 for x, y in zip(u, num))


@dataclass(frozen=True, eq=False)
class ExactSystem:
    """`solve_exact`'s answer, the int64 A it solved, and C = A[I, J]^-1 mod p."""

    cols: list[int]
    num: list[int] | None
    den: int
    A: np.ndarray
    C: np.ndarray
    p: int

    def transpose(self, c: list[int]) -> tuple[list[int], int]:
        """(y, den > 0): A^T y = den c for int64 c, lifted on C^T; ValueError unless C = A^-1."""
        if self.A.shape != (len(self.cols),) * 2:  # only a square A of full rank has C = A^-1
            raise ValueError(f"rank {len(self.cols)} of shape {self.A.shape}: no inverse mod p")
        c = np.array(c, dtype=np.int64)[:, None]
        (y, den), = dixon_lift(self.A.T, np.ascontiguousarray(self.C.T), c, self.p)
        return y, den


def _certified_solve(A: np.ndarray, b: list[int]) -> ExactSystem:
    """`solve_exact` as an `ExactSystem`.

    For each prime, [b | A[:, F]] is lifted on A[:, J], pivot rows first, for
    the pivot columns J and free columns F; a full-rank A is lifted whole.
    """
    A = A.astype(np.int64, copy=False)  # distances come as uint8 or uint16; p needs more
    m, k = A.shape
    bvec = np.array(b, dtype=object if max(map(abs, b), default=0) > INT64_MAX else np.int64)
    for p in _primes():
        rows, cols, C = _eliminate_mod(A, p)
        if len(cols) == m == k:  # full rank: no rows below the pivot block
            (num, den), = dixon_lift(A, C, bvec[:, None], p)
            return ExactSystem(cols, num, den, A, C, p)
        free = sorted(set(range(k)) - set(cols))
        order = rows + sorted(set(range(m)) - set(rows))
        rhs = np.column_stack([bvec[order], A[np.ix_(order, free)]])
        sol, *nulls = dixon_lift(A[np.ix_(order, cols)], C, rhs, p)
        # each free column j must lie in the span of the pivot columns left of
        # it, on every row: then cols is the rank profile over Q, and a b
        # without a solution is inconsistent
        if any(not z or any(x for c, x in zip(cols, z[0]) if c > j) for j, z in zip(free, nulls)):
            continue
        if sol is None:
            return ExactSystem(cols, None, 1, A, C, p)
        num, den = sol
        full = [0] * k
        for c, x in zip(cols, num):
            full[c] = x
        return ExactSystem(cols, full, den, A, C, p)
    raise HardVerificationError("no prime certified the rank profile")


def solve_exact(A: np.ndarray, b: list[int]) -> tuple[list[int], list[int] | None, int]:
    """Exact solution of the integer system A x = b: (pivot_cols, num, den).

    pivot_cols is the column rank profile of A over Q, and num / den, with
    den > 0, the solution whose non-pivot variables are zero; num is None
    when the system is inconsistent.  The module docstring gives the method.
    """
    system = _certified_solve(A, b)
    return system.cols, system.num, system.den


def solve_curvature(D: DistanceMatrix) -> CurvatureSolution:
    """Exact solution of D w = n 1 by `solve_exact`, certified on every row."""
    n = D.n
    piv_cols, num, den = solve_exact(D.entries, [n] * n)
    rank = len(piv_cols)
    if num is None:
        return CurvatureSolution(status=SolveStatus.INCONSISTENT, n=n, nullity=n - rank)
    # l1 > 0: solve_exact certified D num = n den 1 with n >= 1, so num != 0
    l1 = Fraction(sum(map(abs, num)), den)
    warnings: list[str] = []
    if rank < n:
        warnings.append(
            f"system is underdetermined (nullity {n - rank}); w is the particular "
            "solution with free variables zeroed, so K is not canonical"
        )
    return CurvatureSolution(
        status=SolveStatus.UNIQUE if rank == n else SolveStatus.UNDERDETERMINED,
        n=n,
        nullity=n - rank,
        num=tuple(num), den=den,
        l1_norm=l1,
        bound_K=n / l1,
        min_entry=Fraction(min(num), den),
        nonneg=min(num) >= 0,
        warnings=tuple(warnings),
    )


def curvature_bound(sol: CurvatureSolution, n: int) -> Fraction:
    """K = n / ||w||_1, exactly, for n = sol.n."""
    if n != sol.n:
        raise ValueError(f"n = {n} does not match the solution's n = {sol.n}")
    if sol.status is SolveStatus.INCONSISTENT:
        raise InconsistentSystemError("no curvature vector exists for this graph")
    if sol.l1_norm == 0:
        raise InconsistentSystemError("w has zero l1 norm; the bound is undefined")
    return Fraction(n) / sol.l1_norm


def solve_curvature_float(D: DistanceMatrix) -> FloatSolution:
    """Partial-pivoting LU in doubles; residual recomputed, never assumed.

    LU factors a float copy of D in place, so beside D itself, 1 or 2 bytes
    per entry, only one n x n array exists, of float64; the residual is taken
    from D in row blocks.  The copy is made in D's own C order, a straight
    copy, and handed to LU transposed: that view is Fortran-contiguous and
    equals D, which is symmetric.  Both are finite by construction, so scipy's
    finiteness scans are skipped.
    """
    import scipy.linalg  # here, so that the exact paths never load scipy

    n = D.n
    lu = D.entries.astype(np.float64).T
    rhs = np.full(n, float(n))
    with warnings.catch_warnings():
        # singularity is decided by the explicit pivot check below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(lu, overwrite_a=True, check_finite=False)
    u_diag = np.abs(np.diagonal(lu))
    if u_diag.min() < FLOAT_PIVOT_FLOOR * n:
        raise NumericallySingularError(
            f"pivot {u_diag.min():.3e} below {FLOAT_PIVOT_FLOOR * n:.3e}; "
            "matrix is numerically singular"
        )
    w = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    residual = max(float(np.abs(D.entries[r:r + _RESIDUAL_ROWS].astype(np.float64) @ w
                                - float(n)).max())
                   for r in range(0, n, _RESIDUAL_ROWS))
    cond_hint = float(u_diag.min() / D.entries.max())  # D >= 0, so max = max |.|
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
