"""Independent reference implementations used only by tests.

These deliberately take different algorithmic routes than the library
(Floyd-Warshall instead of BFS, dense float LP instead of exact simplex,
Gaussian elimination over Fractions instead of fraction-free Bareiss, row
sums in Python instead of one matrix product, scalar instead of vectorized
SplitMix) so agreement is meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np
from scipy.optimize import linprog

from graphcurv import DistanceMatrix, Graph, Measure, SolveStatus
from graphcurv.seeding import mix64

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


def transport_vector_rowsum(D: DistanceMatrix, P: Measure) -> tuple[Fraction, ...]:
    """D P by one Python row sum per vertex over a common denominator.

    This was the library's transport vector before the matrix product
    replaced it.
    """
    den = lcm(*(x.denominator for x in P.p))
    q = [int(x * den) for x in P.p]
    return tuple(
        Fraction(sum(d * qv for d, qv in zip(row, q) if qv), den) for row in D.row_lists()
    )


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

    Partial pivoting by largest magnitude, ties to the lowest row index; w is
    the particular solution with every free variable zero.  This was the
    library's exact solver before the fraction-free one replaced it.
    """
    n = D.n
    A = [[Fraction(x) for x in row] for row in D.row_lists()]
    b = [Fraction(n)] * n
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
