"""Reference implementations used only by tests.

Each kernel of the library is checked against at least one independent
reference here: a different algorithm, usually in exact Python arithmetic,
so that agreement is meaningful.  A fast path that kept the library's
arithmetic and changed only its memory use or its sharing of work is
checked against the code it replaced, kept here verbatim while no
independent reference pins it.  `tests/mutants.py` shows that the tests
built on these still fail when the kernels are broken.

  kernel -> independent reference(s); replaced code kept, and why
  - `graphs.Graph` and the generators -> `adjacency_sets`, the per-vertex
    set constructor, and `family_edges`, the generators' Python loops
  - `metric.apsp` -> `floyd_warshall`
  - `graphs.gnp` -> `gnp_triu`, the all-at-once draw: no independent
    per-pair reference pins gnp's graphs
  - `seeding.mix64` and `counter_values_np` -> `counter_value`, scalar
    SplitMix64 on its own finalizer
  - `measures.Measure`, `sample_measures`, `verifier.measure_battery` ->
    `measure_fraction`, `sample_measures_fraction`, `measure_battery_fraction`
    (one Fraction per entry) and `measure_battery_measures`
  - `verifier.transport_vector` and `verify_minimax`'s block products ->
    `transport_vector_rowsum` (Python row sums) and
    `verify_minimax_per_measure` (one transport vector per measure)
  - `curvature.solve_exact`, its elimination mod p and its p-adic lift ->
    `solve_system_fraction` and `solve_curvature_fraction` (Gaussian
    elimination over Fractions), `bareiss_solve` (fraction-free) and
    `solve_system_fraction_lstsq` (Cramer's rule); `eliminate_mod_int64`,
    the elimination mod p one column at a time, is kept for ROADMAP item 4
  - `curvature.solve_curvature_float` -> `solve_curvature_float_copied`, the
    LU on a copy: it pins the bits of the float w
  - `game.game_value` -> `game_value_float` (scipy's HiGHS) and
    `simplex_bland_fraction` (Bland's rule on a list-of-Fractions tableau);
    `simplex_basis_full` with `_nondegenerate_full` (the full-width
    tableau) and `certified_fraction` (the certificate on Fractions) are
    kept for ROADMAP item 3
  - `game._basis_pair` and `curvature.ExactSystem.transpose` ->
    `basis_pair_fraction`, both sides of the basis block solved by
    `solve_system_fraction`
  - `cli` output -> `dist_text_per_int` (one str per distance) and
    `json_indent2` (the stdlib's indent=2 encoder)
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
    transport_vector,
    validate,
)
from graphcurv.curvature import _RESIDUAL_ROWS, FLOAT_PIVOT_FLOOR
from graphcurv.game import FLOAT_PIVOT_CAP, FLOAT_TOL, GameSolution
from graphcurv.graphs import GNP_MAX_RETRIES
from graphcurv.measures import SAMPLE_WEIGHT_BITS
from graphcurv.seeding import counter_values_np
from graphcurv.verifier import BATTERY_PAIR_LIMIT

_WORD = 1 << 64
_GOLDEN = 0x9E3779B97F4A7C15


def adjacency_sets(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """The sorted neighbour tuples of a graph, by one Python set per vertex.

    This was the library's Graph constructor before the CSR arrays replaced
    it; it raises the same GraphInputErrors, for the first offending edge.
    """
    if n < 1:
        raise GraphInputError(f"vertex count must be positive, got {n}")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in (edges.tolist() if isinstance(edges, np.ndarray) else edges):
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphInputError(f"vertex index out of range in edge ({u}, {v}), n={n}")
        if u == v:
            raise GraphInputError(f"self-loop at vertex {u}")
        adj[u].add(v)
        adj[v].add(u)
    return tuple(tuple(sorted(s)) for s in adj)


def family_edges(family: str, *params: int) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) of a deterministic generator family, by the library's old Python loops."""
    if family == "grid":
        rows, cols = params
        edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
        edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
        return rows * cols, edges
    (k,) = params
    if family == "hypercube":
        n = 1 << k
        return n, [(x, x ^ (1 << b)) for x in range(n) for b in range(k) if x < x ^ (1 << b)]
    return k, {"path": [(i, i + 1) for i in range(k - 1)],
               "cycle": [(i, (i + 1) % k) for i in range(k)],
               "complete": [(i, j) for i in range(k) for j in range(i + 1, k)],
               "star": [(0, i) for i in range(1, k)]}[family]


def floyd_warshall(g: Graph) -> np.ndarray:
    """All-pairs shortest paths by the triple loop; inf stays for unreachable."""
    n = g.n
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, nbrs in enumerate(g.adjacency):
        for v in nbrs:
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


def measure_battery_measures(n: int, samples: int = 100, seed: int = 0) -> list[tuple[str, Measure]]:
    """`measure_battery_fraction` as a list of (label, Measure) pairs."""
    return [(label, Measure(p)) for label, p in measure_battery_fraction(n, samples, seed)]


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


def counter_value(seed: int, *counters: int) -> int:
    """Scalar SplitMix64 value for a (seed, counter...) tuple.

    This was the library's per-entry generator before the vectorized
    `graphcurv.seeding.counter_values_np` replaced it.  It hashes with its
    own finalizer, `splitmix64_finalizer`, not the library's `mix64`.
    """
    x = splitmix64_finalizer(seed)
    for c in counters:
        x = splitmix64_finalizer(x + _GOLDEN + c)
    return x


def splitmix64_finalizer(z: int) -> int:
    """SplitMix64's output function (Steele, Lea & Flood 2014) on an int, mod 2^64."""
    z %= _WORD
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 % _WORD
    z = (z ^ z >> 27) * 0x94D049BB133111EB % _WORD
    return z ^ z >> 31


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

    This was the library's float solver before it factored in place.  The
    residual is taken from the same blocks of _RESIDUAL_ROWS rows as the
    library's, since its last bits depend on the block shape.
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
    residual = max(float(np.abs(A[r:r + _RESIDUAL_ROWS] @ w - float(n)).max())
                   for r in range(0, n, _RESIDUAL_ROWS))
    cond_hint = float(u_diag.min() / A.max()) if n > 1 else 1.0
    return FloatSolution(w=w, residual_inf=residual, condition_hint=cond_hint)


def basis_pair_fraction(
    M: np.ndarray, basis: list[int]
) -> tuple[list[Fraction], list[Fraction]] | None:
    """`graphcurv.game._basis_pair` with y and the duals as length-n lists of Fractions.

    M[R, Y] y_Y = 1 and M[R, Y]^T pi_R = 1, for the basic y columns Y and the
    rows R without a basic slack, both in ascending order, are each solved by
    `solve_system_fraction` (once, when the block is symmetric); None when
    the block is singular.
    """
    n = len(M)
    cols = sorted(j for j in basis if j < n)
    slack_rows = {j - n for j in basis if j >= n}
    rows = [i for i in range(n) if i not in slack_rows]
    B = M[np.ix_(rows, cols)].tolist()
    status, _, z = solve_system_fraction(B, [1] * len(B))
    if status is not SolveStatus.UNIQUE:
        return None
    BT = [list(col) for col in zip(*B)]
    pi = z if BT == B else solve_system_fraction(BT, [1] * len(B))[2]
    y = [Fraction(0)] * n
    for j, zj in zip(cols, z):
        y[j] = zj
    duals = [Fraction(0)] * n
    for i, pj in zip(rows, pi):
        duals[i] = pj
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
