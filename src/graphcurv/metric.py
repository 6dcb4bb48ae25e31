"""All-pairs shortest-path distances and the dense distance matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .errors import DisconnectedGraphError
from .graphs import Graph


@dataclass(frozen=True)
class DistanceMatrix:
    """Dense n x n matrix of graph distances, immutable after construction.

    Entries are non-negative integers with zero diagonal and symmetry; the
    triangle inequality holds by construction from shortest paths.
    """

    n: int
    entries: np.ndarray  # int64, shape (n, n), read-only

    def __post_init__(self):
        e = self.entries
        if e.shape != (self.n, self.n):
            raise ValueError(f"entries shape {e.shape} does not match n={self.n}")
        if e.dtype != np.int64:
            raise ValueError(f"entries must be int64, got {e.dtype}")
        if np.diagonal(e).any():
            raise ValueError("distance matrix must have zero diagonal")
        if not np.array_equal(e, e.T):
            raise ValueError("distance matrix must be symmetric")
        if (e < 0).any():
            raise ValueError("distances must be non-negative")
        e.flags.writeable = False

    def row_lists(self) -> list[list[int]]:
        """Rows as plain Python ints, for exact arithmetic consumers."""
        return self.entries.tolist()


def apsp(g: Graph) -> DistanceMatrix:
    """BFS distances between all vertex pairs; refuses disconnected graphs."""
    n = g.n
    indptr = np.zeros(n + 1, dtype=np.int64)
    for i, nbrs in enumerate(g.adjacency):
        indptr[i + 1] = indptr[i] + len(nbrs)
    indices = np.fromiter((v for nbrs in g.adjacency for v in nbrs), dtype=np.int64,
                          count=int(indptr[-1]))
    data = np.ones(len(indices), dtype=np.int8)
    adj = csr_matrix((data, indices, indptr), shape=(n, n))
    # adjacency is symmetric, so the directed search gives the same distances;
    # the undirected one also walks the transpose, about 15% slower
    dist = shortest_path(adj, method="D", unweighted=True, directed=True)
    if np.isinf(dist).any():
        i, j = np.argwhere(np.isinf(dist))[0]
        raise DisconnectedGraphError(int(i), int(j))
    return DistanceMatrix(n=n, entries=dist.astype(np.int64))


def row_sums(D: DistanceMatrix) -> np.ndarray:
    """Vector of row sums of D."""
    return D.entries.sum(axis=1)


def eccentricities(D: DistanceMatrix) -> tuple[np.ndarray, int, int]:
    """Per-vertex eccentricities plus (radius, diameter)."""
    ecc = D.entries.max(axis=1)
    return ecc, int(ecc.min()), int(ecc.max())
