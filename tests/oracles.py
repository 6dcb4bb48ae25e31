"""Independent reference implementations used only by tests.

These deliberately take different algorithmic routes than the library
(Floyd-Warshall instead of BFS, dense float LP instead of exact simplex,
Gaussian elimination over Fractions or fraction-free Bareiss instead of
modular elimination and p-adic lifting, row sums in Python instead of one matrix product, scalar instead of vectorized
SplitMix, one Fraction per measure entry instead of integer numerators over
one denominator, one transport vector per measure instead of one product per
block of measures, one str per distance instead of gathered byte words) so
agreement is meaningful.  Where a fast path kept the
library's arithmetic and changed only its memory use or its sharing of work
(the upper-triangle gnp draw, the float LU on a copy, the game basis solved
with one elimination mod p per system, the inverse mod p that gave up on a
column without a pivot, the elimination mod p on the whole of [A | I] one
column at a time, the p-adic lift that stopped lifting each column once it
was certified, the lift certified by one product after each reconstruction
and on the rows outside the pivot block, the exact Bland simplex on its own
list-of-Fractions tableau, the full-width simplex tableau, the battery as a list of `Measure`s with int64
block products, JSON through the stdlib's indent=2 encoder, the game's basis
pair as Fractions with one transport vector per certificate), the replaced
code is kept here verbatim and must give identical results.
"""

from __future__ import annotations

import itertools
import json
import warnings
from fractions import Fraction
from math import lcm

import numpy as np
import scipy.linalg
from scipy.optimize import linprog

from graphcurv import (
    CurvatureSolution,
    DistanceMatrix,
    FloatSolution,
    Graph,
    GraphInputError,
    HardVerificationError,
    Measure,
    MeasureRecord,
    SolveStatus,
    VerificationReport,
    complete,
    curvature_bound,
    measure_delta,
    measure_uniform,
    measure_uniform_on,
    transport_vector,
    validate,
)
from graphcurv.curvature import (FLOAT_PIVOT_FLOOR, LIFT_MAX_N, LIFT_PRIME, _certified_solve,
                                 _eliminate_mod, _lift_steps, _primes, _reconstruct, dixon_lift,
                                 solve_exact)
from graphcurv.game import FLOAT_PIVOT_CAP, FLOAT_TOL, GameSolution
from graphcurv.graphs import GNP_MAX_RETRIES
from graphcurv.measures import SAMPLE_WEIGHT_BITS
from graphcurv.seeding import counter_values_np, mix64
from graphcurv.rationals import FLOAT_EXACT_MAX, INT64_MAX, exact_matmul
from graphcurv.verifier import BATTERY_PAIR_LIMIT

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def floyd_warshall(g: Graph) -> np.ndarray:
    """All-pairs shortest paths by the triple loop; inf stays for unreachable."""
    n = g.n
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u in range(n):
        for v in g.adjacency[u]:
            dist[u, v] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
    return dist


def dist_text_per_int(D: DistanceMatrix, fmt: str, head: dict | None = None) -> str:
    """`graphcurv dist` output formatted one Python int at a time.

    head holds the JSON fields before "distances" (command, input, n, m).
    This was the library's formatter before `graphcurv.cli._write_grid`.
    """
    rows = D.entries.tolist()
    if fmt == "csv":
        return "".join(",".join(str(x) for x in row) + "\n" for row in rows)
    if fmt == "table":
        width = max(len(str(x)) for row in rows for x in row)
        return "".join(" ".join(str(x).rjust(width) for x in row) + "\n" for row in rows)
    return json.dumps(head | {"distances": rows}, indent=2) + "\n"


def json_indent2(doc) -> str:
    """A JSON document as `graphcurv` prints it: json.dumps with indent=2, then a newline.

    This was the library's JSON writer before `graphcurv.cli._write_json`.
    """
    return json.dumps(doc, indent=2) + "\n"


def transport_vector_rowsum(D: DistanceMatrix, P: Measure) -> tuple[Fraction, ...]:
    """D P by one Python row sum per vertex over a common denominator.

    This was the library's transport vector before the matrix product
    replaced it.
    """
    den = lcm(*(x.denominator for x in P.p))
    q = [int(x * den) for x in P.p]
    return tuple(
        Fraction(sum(d * qv for d, qv in zip(row, q) if qv), den) for row in D.entries.tolist()
    )


def measure_fraction(entries) -> tuple[Fraction, ...]:
    """A probability vector as one Fraction per entry, checked entry by entry.

    This was the library's `Measure` before integer numerators over one
    denominator replaced it.
    """
    p = tuple(Fraction(x) for x in entries)
    if not p:
        raise ValueError("measure needs at least one entry")
    if any(x < 0 for x in p):
        raise ValueError("measure entries must be non-negative")
    if sum(p) != 1:
        raise ValueError("measure entries must sum to exactly 1")
    return p


def sample_measures_fraction(n: int, count: int, seed: int) -> list[tuple[Fraction, ...]]:
    """`graphcurv.sample_measures` as it was built on `measure_fraction`."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    out = []
    vertices = np.arange(n)
    for i in range(count):
        weights = (1 + counter_values_np(seed, vertices, i) % (1 << SAMPLE_WEIGHT_BITS)).tolist()
        total = sum(weights)
        out.append(measure_fraction(Fraction(wj, total) for wj in weights))
    return out


def measure_battery_fraction(
    n: int, samples: int, seed: int
) -> list[tuple[str, tuple[Fraction, ...]]]:
    """`graphcurv.measure_battery` as it was built on `measure_fraction`."""
    battery = [(f"delta:{v}", measure_fraction(Fraction(int(i == v)) for i in range(n)))
               for v in range(n)]
    battery.append(("uniform", measure_fraction(Fraction(1, n) for _ in range(n))))
    if n <= BATTERY_PAIR_LIMIT:
        for u in range(n):
            for v in range(u + 1, n):
                battery.append((f"uniform_on:{u},{v}", measure_fraction(
                    Fraction(1, 2) if i in (u, v) else Fraction(0) for i in range(n))))
    if samples > 0:
        for i, p in enumerate(sample_measures_fraction(n, samples, seed)):
            battery.append((f"sample:{i}", p))
    return battery


def verify_minimax_per_measure(
    D: DistanceMatrix,
    sol: CurvatureSolution,
    measures: list[tuple[str, Measure]],
) -> VerificationReport:
    """The sandwich check with one `transport_vector` call per measure.

    This was `graphcurv.verify_minimax` before one product per block of
    measures replaced it.
    """
    K = curvature_bound(sol, D.n)
    records = []
    findings = []
    lower_failures = 0
    for descriptor, mu in measures:
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
    return report_from_records(records, K, sol.nonneg, findings)


def report_from_records(records: list[MeasureRecord], K: Fraction, nonneg: bool,
                        findings: list[str]) -> VerificationReport:
    """A `VerificationReport` holding these records, for comparing reports."""
    def column(values, dtype=object):
        return np.array(values, dtype=dtype)

    return VerificationReport(
        labels=tuple(r.descriptor for r in records), K=K,
        A_num=column([r.A.numerator for r in records]),
        A_den=column([r.A.denominator for r in records]),
        B_num=column([r.B.numerator for r in records]),
        B_den=column([r.B.denominator for r in records]),
        lower_holds=column([r.lower_holds for r in records], bool),
        upper_holds=column([r.upper_holds for r in records], bool),
        lower_tight=column([r.lower_tight for r in records], bool),
        upper_tight=column([r.upper_tight for r in records], bool),
        nonneg=nonneg, findings=tuple(findings),
    )


def sample_measures_per_sample(n: int, count: int, seed: int) -> list[Measure]:
    """`graphcurv.sample_measures` with one counter call and one
    `Measure.from_weights` per sample.

    This was the library's sampler before the samples were drawn as one
    counter grid and reduced as one matrix.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    out = []
    vertices = np.arange(n)
    for i in range(count):
        weights = (1 + counter_values_np(seed, vertices, i) % (1 << SAMPLE_WEIGHT_BITS)).tolist()
        out.append(Measure.from_weights(weights))
    return out


def measure_battery_measures(n: int, samples: int = 100, seed: int = 0) -> list[tuple[str, Measure]]:
    """`graphcurv.measure_battery` as a list of (label, Measure) pairs.

    This was the library's battery before `graphcurv.Battery` held it as one
    integer matrix.
    """
    battery: list[tuple[str, Measure]] = []
    for v in range(n):
        battery.append((f"delta:{v}", measure_delta(n, v)))
    battery.append(("uniform", measure_uniform(n)))
    if n <= BATTERY_PAIR_LIMIT:
        for u, v in itertools.combinations(range(n), 2):
            battery.append((f"uniform_on:{u},{v}", measure_uniform_on(n, (u, v))))
    if samples > 0:
        for i, mu in enumerate(sample_measures_per_sample(n, samples, seed)):
            battery.append((f"sample:{i}", mu))
    return battery


def transport_block_int64(D: DistanceMatrix, block: list[Measure]) -> np.ndarray:
    """N = D Q, exactly, for the n x k matrix Q of the block's numerators.

    Column j of N is den_j times the transport vector of measure j.  Every
    entry of N is at most max(D) * den_j, and every entry of Q at most
    den_j, so N is one int64 product when max(D) times the block's largest
    den fits int64, and a product on Python ints otherwise.

    This was the library's block product before the float64 product
    replaced its int64 branch.
    """
    fits = max(int(D.entries.max()), 1) * max(P.den for P in block) <= INT64_MAX
    dtype = np.int64 if fits else object
    Q = np.array([P.q for P in block], dtype=dtype).T
    return D.entries.astype(dtype, copy=False) @ Q


def battery_bounds_int64(D: DistanceMatrix, battery: list[Measure]):
    """(A, B) per measure, in order, from one `transport_block_int64` per n measures."""
    for start in range(0, len(battery), D.n):
        block = battery[start:start + D.n]
        N = transport_block_int64(D, block)
        for P, lo, hi in zip(block, N.min(axis=0).tolist(), N.max(axis=0).tolist()):
            yield Fraction(lo, P.den), Fraction(hi, P.den)


def counter_value(seed: int, *counters: int) -> int:
    """Scalar SplitMix64 value for a (seed, counter...) tuple.

    This was the library's per-entry generator before the vectorized
    `graphcurv.seeding.counter_values_np` replaced it.
    """
    x = mix64(seed)
    for c in counters:
        x = mix64((x + _GOLDEN + c) & _MASK)
    return x


def game_value_float(D: np.ndarray) -> float:
    """Matrix-game value via scipy's LP solver (float), for cross-checking.

    Solves min sum(x) s.t. (D + 1)^T x >= 1, x >= 0 and returns 1/sum(x) - 1.
    """
    M = D.astype(float) + 1.0
    n = M.shape[0]
    res = linprog(c=np.ones(n), A_ub=-M.T, b_ub=-np.ones(n), bounds=[(0, None)] * n,
                  method="highs")
    assert res.success, res.message
    return 1.0 / res.fun - 1.0


def bareiss_solve(A: list[list[int]], b: list[int]) -> tuple[list[int], list[int] | None, int]:
    """Fraction-free Gaussian elimination of the integer system A x = b.

    Bareiss (1968): every entry after step k is a (k+1)-minor of [A | b], so
    each division by the previous pivot is exact and no gcd is taken.
    Returns (pivot_cols, num, den).  pivot_cols is the column rank profile of
    A (the columns where the rank grows), which does not depend on the row
    pivot rule.  num / den, with den > 0, is the solution whose non-pivot
    variables are zero; num is None when the system is inconsistent.  A and
    b are not modified.

    This was the library's solver for every system that lifting gave up on,
    before `graphcurv.curvature.solve_exact` certified the rank profile mod p.
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


def inverse_mod(A: np.ndarray, p: int) -> np.ndarray | None:
    """Inverse of the square int64 matrix A modulo the prime p, or None if singular mod p.

    This was the library's elimination kernel before `_eliminate_mod` skipped
    the columns without a pivot instead of giving up.

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


def eliminate_mod_outer(A: np.ndarray, p: int) -> tuple[list[int], list[int], np.ndarray]:
    """`curvature._eliminate_mod` as it was before its numpy calls were trimmed.

    The rank-1 update is `np.outer`, the pivot search `np.flatnonzero`, and
    the pivot count is read off `len(cols)`; the arithmetic is the same.
    """
    m, k = A.shape
    M = np.zeros((m, k + m), dtype=A.dtype)
    M[:, :k] = A % p
    M[:, k:] = np.eye(m, dtype=A.dtype)
    cols: list[int] = []
    for c in range(k):
        r = len(cols)
        col = M[r:, c]
        col %= p
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
        row = M[r, c:]
        row %= p
        row *= pow(int(row[0]), p - 2, p)
        row %= p
        f = M[:, c] % p
        f[r] = 0
        M[:, c:] -= np.outer(f, row)
        cols.append(c)
    C = M[:len(cols), k:] % p
    rows = np.flatnonzero(C.any(axis=0))
    return rows.tolist(), cols, C if len(rows) == m else C[:, rows]


def eliminate_mod_int64(A: np.ndarray, p: int) -> tuple[list[int], list[int], np.ndarray]:
    """`curvature._eliminate_mod` as it was before it eliminated in column panels.

    Gauss-Jordan on the whole of [A | I], one column at a time, in A's own
    dtype; the panel kernel must give the same (rows, cols, C).
    """
    m, k = A.shape
    M = np.zeros((m, k + m), dtype=A.dtype)
    M[:, :k] = A % p
    M[:, k:] = np.eye(m, dtype=A.dtype)
    cols: list[int] = []
    r = 0  # the pivots so far
    for c in range(k):
        col = M[r:, c]
        col %= p
        nz = col.nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
        row = M[r, c:]
        row %= p
        row *= pow(int(row[0]), p - 2, p)
        row %= p
        f = M[:, c] % p
        f[r] = 0
        M[:, c:] -= f[:, None] * row
        cols.append(c)
        r += 1
    C = M[:len(cols), k:] % p
    rows = np.flatnonzero(C.any(axis=0))
    return rows.tolist(), cols, C if len(rows) == m else C[:, rows]


def holds_per_column(A: np.ndarray, B: np.ndarray, sols: list[tuple[list[int], int]],
                     bound: int) -> list[bool]:
    """`curvature._holds` as it was when it answered column by column."""
    if not sols:
        return []
    nums, dens = zip(*sols)
    big = max(max(dens), *(max(map(abs, num), default=0) for num in nums))
    N = exact_matmul(A, nums, big * max(1, bound) * max(1, A.shape[1]))
    return (N == B * np.array(dens, dtype=N.dtype)).all(0).tolist()


def dixon_lift_retiring(A: np.ndarray, C: np.ndarray, B: np.ndarray, p: int) -> list[tuple[list[int], int]]:
    """`curvature.dixon_lift` as it was when a certified column stopped being lifted.

    Each attempt certified the columns that reconstructed, and the rest went
    on alone with their slices of R and of the expansions; the one-pass lift
    must return the same solutions after the same steps.
    """
    n, k = B.shape
    a, beta = int(np.abs(A).max(initial=0)), int(np.abs(B).max(initial=0))
    steps = _lift_steps(n, a, beta, p)
    c_bound, a_bound = n * (p - 1) ** 2, n * max(a, 1) * (p - 1)
    C_float = A_float = None
    if A.dtype != object:
        C_float = C.astype(np.float64) if c_bound <= FLOAT_EXACT_MAX else None
        A_float = A.astype(np.float64) if a_bound <= FLOAT_EXACT_MAX else None
    sols: list = [None] * k
    left = list(range(k))  # the columns still lifted, their right-hand sides and expansions so far
    Bl, R, U = B, B, [[0] * n for _ in left]
    pk = 1
    attempt = 2
    for step in range(1, steps + 1):
        X = exact_matmul(C, (R % p).T, c_bound, C_float) % p
        R = (R - exact_matmul(A, X.T, a_bound, A_float)) // p
        U = [[ui + xi * pk for ui, xi in zip(u, x)] for u, x in zip(U, X.T.tolist())]
        pk *= p
        if step == attempt or step == steps:
            attempt *= 2
            cands = [_reconstruct(u, pk) for u in U]
            found = [t for t, cand in enumerate(cands) if cand is not None]
            sub = Bl if len(found) == len(left) else Bl[:, found]
            for t, ok in zip(found, holds_per_column(A, sub, [cands[t] for t in found], max(a, beta))):
                if ok:
                    sols[left[t]] = cands[t]
            keep = [t for t, j in enumerate(left) if sols[j] is None]
            if not keep:
                return sols
            left, Bl, R, U = [left[t] for t in keep], Bl[:, keep], R[:, keep], [U[t] for t in keep]
    raise HardVerificationError(
        f"p-adic lifting reached its cap of {steps} steps mod {p} without a certified solution")


def holds(A: np.ndarray, B: np.ndarray, sols: list[tuple[list[int], int]], bound: int) -> bool:
    """`curvature._holds` before each lift certified itself by exact divisions.

    Whether A num_j == den_j B[:, j] exactly for every column j of B (True for none).

    sols[j] = (num_j, den_j), and `bound` is at least every |entry| of A and
    B, so cols(A) bound max(|num_j|, den_j) bounds every partial sum.
    """
    if not sols:
        return True
    nums, dens = zip(*sols)
    big = max(max(dens), *(max(map(abs, num), default=0) for num in nums))
    N = exact_matmul(A, nums, big * max(1, bound) * max(1, A.shape[1]))
    return bool((N == B * np.array(dens, dtype=N.dtype)).all())


def dixon_lift_holds(A: np.ndarray, C: np.ndarray, B: np.ndarray, p: int) -> list[tuple[list[int], int]]:
    """`curvature.dixon_lift` when `holds` certified each reconstruction by one product.

    num_j, den_j > 0 with A num_j = den_j B[:, j] exactly, by Dixon p-adic lifting.

    A is square, C = A^-1 mod the prime p, and B has k columns; all three
    share A's dtype.  Each step takes X = C (R mod p) mod p and
    R <- (R - A X) / p, an exact division and one product for every column,
    so sum_i X_i p^i solves A W = B modulo p^i (Dixon 1982).  Both products
    go through `exact_matmul` under the bounds n (p-1)^2 and n max|A| (p-1),
    on float64 copies of C and A made once per lift: up to LIFT_MAX_N the
    first is always on the float64 tier.  Every column is lifted at every
    step, since by Cramer's rule all share the denominator det A and one
    Hadamard cap.  All are reconstructed (Wang, Guy & Davenport 1982) after
    2, 4, 8, ... steps and at the cap `_lift_steps`, and returned once every
    column's identity holds.  Failing that at the cap means the kernel is
    wrong: HardVerificationError.
    """
    n, k = B.shape
    a, beta = int(np.abs(A).max(initial=0)), int(np.abs(B).max(initial=0))
    steps = _lift_steps(n, a, beta, p)
    # every entry of C (R mod p) is below n (p-1)^2, and of A X below n a (p-1)
    c_bound, a_bound = n * (p - 1) ** 2, n * max(a, 1) * (p - 1)
    # float copies for exact_matmul's float64 tier, made once
    C_float = C.astype(np.float64) if c_bound <= FLOAT_EXACT_MAX else None
    A_float = A.astype(np.float64) if a_bound <= FLOAT_EXACT_MAX else None
    R, U = B, [[0] * n for _ in range(k)]  # the residual and each column's expansion so far
    pk = 1
    attempt = 2
    for step in range(1, steps + 1):
        X = exact_matmul(C, (R % p).T, c_bound, C_float) % p
        R = (R - exact_matmul(A, X.T, a_bound, A_float)) // p
        U = [[ui + xi * pk for ui, xi in zip(u, x)] for u, x in zip(U, X.T.tolist())]
        pk *= p
        if step == attempt or step == steps:
            attempt *= 2
            sols = [_reconstruct(u, pk) for u in U]
            if None not in sols and holds(A, B, sols, max(a, beta)):
                return sols
    raise HardVerificationError(
        f"p-adic lifting reached its cap of {steps} steps mod {p} without a certified solution")


def certified_solve_holds(
    A: np.ndarray, b: list[int]
) -> tuple[list[int], list[int] | None, int, tuple[np.ndarray, np.ndarray, int]]:
    """`curvature._certified_solve` when `holds` checked the rows outside the pivot block.

    `solve_exact`, plus (A, C, p) of the elimination it certified.

    A is in the dtype the lift ran in.  When A has full rank C = A^-1 mod p,
    so a caller can lift A^T on C^T without eliminating again.  For each
    prime, [b_I | A[I, F]] is lifted on A[I, J] for the pivot rows I, pivot
    columns J and free columns F.
    """
    A = A.astype(np.int64, copy=False)  # distances come as uint8 or uint16; p needs more
    m, k = A.shape
    size = max(m, k)
    a = int(np.abs(A).max(initial=0))
    # free columns of A join b on the right-hand side, so the lift's |R| stays
    # below beta + 2 size a for beta = max(a, |b|), and R - A X below size p (2 a + beta)
    beta = max([a, *map(abs, b)])
    if size > LIFT_MAX_N or size * LIFT_PRIME * (2 * a + beta) > INT64_MAX:
        A = A.astype(object)
    bvec = np.array(b, dtype=A.dtype)
    for p in _primes():
        rows, cols, C = _eliminate_mod(A, p)
        if len(cols) == m == k:  # full rank: the lift's certificate covers every row
            (num, den), = dixon_lift_holds(A, C, bvec[:, None], p)
            return cols, num, den, (A, C, p)
        free = sorted(set(range(k)) - set(cols))
        sub = A[np.ix_(rows, cols)]
        rhs = np.column_stack([bvec[rows], A[np.ix_(rows, free)]])
        (num, den), *nulls = dixon_lift_holds(sub, C, rhs, p)
        # each free column j must lie in the span of the pivot columns left of
        # it, on every row: then cols is the rank profile over Q
        if any(x for j, (x_j, _) in zip(free, nulls) for c, x in zip(cols, x_j) if c > j):
            continue
        other = sorted(set(range(m)) - set(rows))
        rest = A[np.ix_(other, cols)]
        if not holds(rest, A[np.ix_(other, free)], nulls, beta):
            continue
        # the only candidate on the pivot rows must hold on the others too
        if not holds(rest, bvec[other, None], [(num, den)], beta):
            return cols, None, 1, (A, C, p)
        full = [0] * k
        for c, x in zip(cols, num):
            full[c] = x
        return cols, full, den, (A, C, p)
    raise HardVerificationError("no prime certified the rank profile")



def solve_system_fraction_lstsq(D: np.ndarray, n: int) -> list[Fraction] | None:
    """Tiny-system solver by Cramer's rule; None when det = 0.

    Only used to double-check hand fixtures on very small unique systems.
    """
    size = D.shape[0]
    A = [[Fraction(int(D[i, j])) for j in range(size)] for i in range(size)]
    det = _det(A)
    if det == 0:
        return None
    out = []
    for col in range(size):
        Ac = [row[:] for row in A]
        for i in range(size):
            Ac[i][col] = Fraction(n)
        out.append(_det(Ac) / det)
    return out


def _det(A: list[list[Fraction]]) -> Fraction:
    n = len(A)
    if n == 1:
        return A[0][0]
    total = Fraction(0)
    for j in range(n):
        if A[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in A[1:]]
        total += (-1) ** j * A[0][j] * _det(minor)
    return total


def solve_curvature_fraction(
    D: DistanceMatrix,
) -> tuple[SolveStatus, int, tuple[Fraction, ...] | None]:
    """(status, nullity, w) of D w = n 1 by Gaussian elimination over Fractions.

    This was the library's exact solver before the fraction-free one replaced it.
    """
    return solve_system_fraction(D.entries.tolist(), [D.n] * D.n)


def solve_system_fraction(
    A: list[list[int]], b: list[int],
) -> tuple[SolveStatus, int, tuple[Fraction, ...] | None]:
    """(status, nullity, x) of the square system A x = b over Fractions.

    Partial pivoting by largest magnitude, ties to the lowest row index; x is
    the particular solution with every free variable zero.
    """
    n = len(A)
    A = [[Fraction(x) for x in row] for row in A]
    b = [Fraction(x) for x in b]
    piv_cols: list[int] = []
    rank = 0
    for col in range(n):
        best_row, best_val = -1, Fraction(0)
        for i in range(rank, n):
            a = abs(A[i][col])
            if a > best_val:
                best_row, best_val = i, a
        if best_row < 0:
            continue
        if best_row != rank:
            A[rank], A[best_row] = A[best_row], A[rank]
            b[rank], b[best_row] = b[best_row], b[rank]
        piv = A[rank][col]
        for i in range(rank + 1, n):
            if A[i][col] != 0:
                f = A[i][col] / piv
                row_i, row_p = A[i], A[rank]
                for j in range(col, n):
                    row_i[j] -= f * row_p[j]
                b[i] -= f * b[rank]
        piv_cols.append(col)
        rank += 1
        if rank == n:
            break
    if any(b[i] != 0 for i in range(rank, n)):
        return SolveStatus.INCONSISTENT, n - rank, None

    w = [Fraction(0)] * n
    for i in range(rank - 1, -1, -1):
        col = piv_cols[i]
        s = b[i]
        row = A[i]
        for j in range(col + 1, n):
            if w[j] != 0:
                s -= row[j] * w[j]
        w[col] = s / row[col]
    status = SolveStatus.UNIQUE if rank == n else SolveStatus.UNDERDETERMINED
    return status, n - rank, tuple(w)


def gnp_triu(n: int, p: Fraction, seed: int) -> tuple[Graph, int]:
    """Connected G(n, p) and its retry count, drawing every coin at once.

    This was the library's generator before the blocked draw replaced it:
    np.triu_indices numbers the pairs, and all counters and their hashes
    are held together.
    """
    p = Fraction(p)
    if p == 1:
        return complete(n), 0
    threshold = -(-(p.numerator << 64) // p.denominator)
    iu, ju = np.triu_indices(n, k=1)
    counters = np.arange(len(iu), dtype=np.uint64)
    for retry in range(GNP_MAX_RETRIES):
        r = counter_values_np(seed, counters, retry)
        mask = r < np.uint64(threshold) if threshold > 0 else np.zeros(len(iu), bool)
        g = Graph(n, list(zip(iu[mask].tolist(), ju[mask].tolist())))
        if validate(g).connected:
            return g, retry
    raise GraphInputError(f"gnp({n}, {p}, seed={seed}) failed to produce a connected graph")


def solve_curvature_float_copied(D: DistanceMatrix) -> FloatSolution | None:
    """The float LU solve on a C-order copy that LU copies again; None if singular.

    This was the library's float solver before it factored in place: the
    residual is taken from the whole float matrix at once.
    """
    n = D.n
    A = D.entries.astype(np.float64)
    rhs = np.full(n, float(n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A)
    u_diag = np.abs(np.diagonal(lu))
    if u_diag.min() < FLOAT_PIVOT_FLOOR * n:
        return None
    w = scipy.linalg.lu_solve((lu, piv), rhs)
    residual = float(np.abs(A @ w - rhs).max())
    cond_hint = float(u_diag.min() / A.max()) if n > 1 else 1.0
    return FloatSolution(w=w, residual_inf=residual, condition_hint=cond_hint)


def basis_pair_two_inverses(
    M: np.ndarray, basis: list[int]
) -> tuple[list[Fraction], list[Fraction]] | None:
    """`graphcurv.game._basis_pair` with B and B^T each solved on its own elimination mod p.

    This was the library's basis solve before one inverse served both.
    """
    n = len(M)
    cols = [j for j in basis if j < n]
    slack_rows = {j - n for j in basis if j >= n}
    rows = [i for i in range(n) if i not in slack_rows]
    B = M[np.ix_(rows, cols)]
    pair = []
    for A in (B, B.T):
        piv, num, den = solve_exact(A, [1] * len(A))
        if len(piv) < len(A):
            return None
        pair.append((num, den))
    (z, den), (pi, pi_den) = pair
    y = [Fraction(0)] * n
    for j, zj in zip(cols, z):
        y[j] = Fraction(zj, den)
    duals = [Fraction(0)] * n
    for i, pj in zip(rows, pi):
        duals[i] = Fraction(pj, pi_den)
    return y, duals


def basis_pair_fraction(
    M: np.ndarray, basis: list[int]
) -> tuple[list[Fraction], list[Fraction]] | None:
    """`graphcurv.game._basis_pair` with y and the duals as length-n lists of Fractions.

    This was the library's basis solve before the pair stayed integer
    numerators over one denominator each.
    """
    n = len(M)
    cols = [j for j in basis if j < n]
    slack_rows = {j - n for j in basis if j >= n}
    rows = [i for i in range(n) if i not in slack_rows]
    B = M[np.ix_(rows, cols)]
    pivots, z, den, (A, C, p) = _certified_solve(B, [1] * len(B))
    if len(pivots) < len(B):
        return None
    (pi, pi_den), = dixon_lift(A.T, np.ascontiguousarray(C.T), np.ones((len(B), 1), A.dtype), p)
    y = [Fraction(0)] * n
    for j, zj in zip(cols, z):
        y[j] = Fraction(zj, den)
    duals = [Fraction(0)] * n
    for i, pj in zip(rows, pi):
        duals[i] = Fraction(pj, pi_den)
    return y, duals


def certified_fraction(
    D: DistanceMatrix,
    y: list[Fraction],
    duals: list[Fraction],
    basis: list[int] | None = None,
) -> GameSolution:
    """`graphcurv.game._certified` on Fraction lists, one `transport_vector` per certificate.

    This was the library's certificate, uniqueness check included, before
    the pair stayed integer numerators and both certificates came from one
    two-column product.
    """
    total = sum(y)
    if total <= 0 or sum(duals) != total:
        raise HardVerificationError("simplex returned a non-closing primal/dual pair")
    if min(y) < 0 or min(duals) < 0:
        raise HardVerificationError("simplex returned a primal/dual pair with a negative entry")
    shifted_value = Fraction(1) / total
    # duals solve min sum x, M^T x >= 1: the column player's (maximin) side
    maximin = Measure(x * shifted_value for x in duals)
    minimax = Measure(x * shifted_value for x in y)
    value = shifted_value - 1

    low = transport_vector(D, maximin)
    high = transport_vector(D, minimax)  # D is symmetric, so D^T Q = D Q
    if low.A != value or high.B != value:
        raise HardVerificationError(
            f"game certificates do not close: min(D P) = {low.A}, value = {value}, "
            f"max(D^T Q) = {high.B}"
        )
    sol = GameSolution(value=value, maximin_strategy=maximin, minimax_strategy=minimax)
    if basis is not None and not _unique_optimum_fraction(basis, sol, low.dp, high.dp):
        raise HardVerificationError("the basis is optimal but its optimum is not unique")
    return sol


def _unique_optimum_fraction(
    basis: list[int],
    sol: GameSolution,
    low: tuple[Fraction, ...],
    high: tuple[Fraction, ...],
) -> bool:
    """`graphcurv.game._unique_optimum` with the tight sets read off D P and D Q as Fractions."""
    n = len(low)
    cols = {j for j in basis if j < n}
    rows = set(range(n)) - {j - n for j in basis if j >= n}
    value = sol.value
    return (set(sol.minimax_strategy.support()) == cols == {j for j, x in enumerate(low) if x == value}
            and set(sol.maximin_strategy.support()) == rows
            == {i for i, x in enumerate(high) if x == value})


def simplex_bland_fraction(M: list[list[Fraction]]) -> tuple[list[Fraction], list[Fraction]]:
    """Primal simplex on: max sum(y) s.t. M y <= 1, y >= 0, entries of M > 0.

    The slack basis is feasible (b = 1 > 0) and the feasible set is bounded,
    so Bland's rule terminates at an optimum.  Returns the primal solution y
    and the dual solution read off the slack columns' reduced costs.

    This was the library's exact game fallback, with its own tableau, before
    `graphcurv.game._simplex_basis` ran the float simplex's loop on Fractions.
    """
    n = len(M)
    # tableau: n constraint rows over columns [y_0..y_{n-1}, s_0..s_{n-1} | b]
    T = [[M[i][j] for j in range(n)]
         + [Fraction(int(i == k)) for k in range(n)]
         + [Fraction(1)]
         for i in range(n)]
    cost = [Fraction(1)] * n + [Fraction(0)] * (n + 1)  # reduced costs; last entry = -objective
    basis = list(range(n, 2 * n))

    while True:
        enter = next((j for j in range(2 * n) if cost[j] > 0), None)  # Bland: lowest index
        if enter is None:
            break
        leave, best_ratio = -1, None
        for i in range(n):
            a = T[i][enter]
            if a > 0:
                ratio = T[i][2 * n] / a
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[i] < basis[leave]
                ):
                    leave, best_ratio = i, ratio
        if leave < 0:
            raise HardVerificationError("unbounded LP in game reduction; payoff shift is broken")
        piv = T[leave][enter]
        T[leave] = [x / piv for x in T[leave]]
        for i in range(n):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [x - f * y for x, y in zip(T[i], T[leave])]
        f = cost[enter]
        cost = [x - f * y for x, y in zip(cost, T[leave])]
        basis[leave] = enter

    y = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            y[bi] = T[i][2 * n]
    duals = [-cost[n + i] for i in range(n)]
    return y, duals


def simplex_basis_full(M: np.ndarray, dantzig: bool) -> list[int] | None:
    """Final basis of the primal simplex on: max sum(y) s.t. M y <= 1, y >= 0.

    This was `graphcurv.game._simplex_basis` before the condensed tableau:
    the full n x (2n + 1) tableau [M | I | 1], with Dantzig's
    largest-reduced-cost rule as the candidate run and ties in the ratio
    test going to the lowest basis index in both runs.  Bland's run here and
    the library's take the same pivots with the same float operations.
    """
    n = len(M)
    exact = M.dtype == object
    tol = 0 if exact else FLOAT_TOL
    # int 0 and 1 beside M's Fractions: the first pivot divides by a Fraction,
    # after which every exact entry is one, so no int / int makes a float
    T = np.zeros((n, 2 * n + 1), dtype=object if exact else np.float64)
    T[:, :n] = M
    T[:, n:2 * n] = np.eye(n, dtype=np.int64)
    T[:, 2 * n] = 1
    cost = np.zeros(2 * n + 1, dtype=T.dtype)
    cost[:n] = 1
    basis = np.arange(n, 2 * n)
    for _ in itertools.count() if exact else range(FLOAT_PIVOT_CAP):
        if dantzig:
            enter = int(np.argmax(cost[:2 * n]))
            if cost[enter] <= tol:
                return basis.tolist() if _nondegenerate_full(T[:, 2 * n], cost, basis) else None
        else:
            entering = np.flatnonzero(cost[:2 * n] > tol)
            if entering.size == 0:
                return basis.tolist()
            enter = entering[0]
        rows = np.flatnonzero(T[:, enter] > tol)
        if rows.size == 0:
            return None
        ratios = T[rows, 2 * n] / T[rows, enter]
        best = ratios.min()
        tied = rows[ratios <= best + tol * max(1, best)]
        leave = tied[np.argmin(basis[tied])]
        T[leave] /= T[leave, enter]
        f = T[:, enter].copy()
        f[leave] = 0
        T -= np.outer(f, T[leave])
        cost -= cost[enter] * T[leave]
        basis[leave] = enter
    return None


def _nondegenerate_full(b: np.ndarray, cost: np.ndarray, basis: np.ndarray) -> bool:
    """Float screen of an optimal full tableau: basic values b and reduced costs clear of zero."""
    nonbasic = np.ones(len(cost) - 1, dtype=bool)
    nonbasic[basis] = False
    return bool((b > FLOAT_TOL).all() and (cost[:-1][nonbasic] < -FLOAT_TOL).all())
