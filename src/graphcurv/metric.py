"""All-pairs shortest-path distances and the dense distance matrix.

`apsp` first runs one BFS from vertex 0.  An unreached vertex makes the graph
disconnected; otherwise that BFS depth bounds the diameter (depth <= diam <=
2 depth) and picks the algorithm.  Shallow graphs take a multi-source
bit-parallel BFS (`_bitbfs`): 64 sources share a machine word, so one numpy
pass per level advances every source at once (Akiba, Iwata & Yoshida, SIGMOD
2013; Then et al., MS-BFS, VLDB 2014).  On deep graphs (paths, long cycles)
each level carries about one new bit per word and numpy call overhead
dominates, so they take scipy's per-source Dijkstra (`_dijkstra`), imported
only there.  It searches only from the anchors, the vertices of degree other
than 2, and fills the row of every vertex inside a chain of degree-2 vertices
from the rows of the chain's two ends; scipy's float64 rows come in blocks of
sources, each written straight into the narrow D.  Either way D comes back in
np.min_scalar_type(diameter), uint8 up to 255 and uint16 up to 65,535, with
no n x n float64 made; the exact solve and the game widen it to int64 where
their arithmetic needs it.  Every search reads the graph's own CSR arrays.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraphError
from .graphs import Graph, _bfs_reachable

BITBFS_MAX_DEPTH = 64  # deepest BFS from vertex 0 that the bit-parallel kernel takes
_BLOCK_CELLS = 1 << 20  # distance cells assembled per row block
_GATHER_WORDS = 1 << 16  # bitset words gathered at once for a run of equal-count slots


@dataclass(frozen=True)
class DistanceMatrix:
    """Dense n x n matrix of graph distances, immutable after construction.

    Entries are non-negative integers with zero diagonal and symmetry; the
    triangle inequality holds by construction from shortest paths.  `apsp`
    stores them unsigned, in the narrowest dtype that holds the diameter;
    int64 is accepted for hand-built matrices.
    """

    n: int
    entries: np.ndarray  # unsigned or int64, shape (n, n), read-only

    def __post_init__(self):
        e = self.entries
        if e.shape != (self.n, self.n):
            raise ValueError(f"entries shape {e.shape} does not match n={self.n}")
        if e.dtype != np.int64 and e.dtype.kind != "u":
            raise ValueError(f"entries must be int64 or unsigned, got {e.dtype}")
        if np.diagonal(e).any():
            raise ValueError("distance matrix must have zero diagonal")
        # the upper triangle against the lower, 256 rows at a time: no n^2 temporary
        if not all(np.array_equal(e[r:r + 256, r:], e[r:, r:r + 256].T)
                   for r in range(0, self.n, 256)):
            raise ValueError("distance matrix must be symmetric")
        if e.dtype.kind == "i" and e.min(initial=0) < 0:
            raise ValueError("distances must be non-negative")
        e.flags.writeable = False


def apsp(g: Graph) -> DistanceMatrix:
    """BFS distances between all vertex pairs; refuses disconnected graphs."""
    seen, depth = _bfs_reachable(g, 0)
    if len(seen) < g.n:
        raise DisconnectedGraphError(0, next(v for v in range(g.n) if v not in seen))
    entries = _bitbfs(g) if depth <= BITBFS_MAX_DEPTH else _dijkstra(g)
    return DistanceMatrix(n=g.n, entries=entries)


def _bitbfs(g: Graph) -> np.ndarray:
    """Distances of a connected graph by multi-source bit-parallel BFS, in the narrowest dtype.

    Bit s of row v of an (n, ceil(n/64)) uint64 bitset stands for source s
    at vertex v.  Rows are relabelled by decreasing degree, so the rows that
    have a j-th neighbour are a prefix and each neighbour slot j is one
    gather over that prefix.  Each level ORs its new bits into the bit-planes
    of the level number, which are ORed into the rows of D block by block;
    no n^2 temporary is made.
    """
    n = g.n
    deg = np.diff(g.indptr)
    order = np.argsort(-deg, kind="stable")  # new row -> vertex
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)  # vertex -> new row
    words = -(-n // 64)
    # neighbour rows sorted by (slot, row): slot j lists rows 0..counts[j]-1 in order
    slot = np.arange(len(g.indices)) - np.repeat(g.indptr[:-1], deg)
    rows = rank[np.repeat(np.arange(n), deg)]
    nbr = rank[g.indices][np.lexsort((rows, slot))]
    # gathers: one slot, or a run of slots with equal counts as a (count, slots) array
    gathers = []
    start = 0
    for count, run in itertools.groupby(np.bincount(slot).tolist()):
        run = len(list(run))
        per = min(run, max(1, _GATHER_WORDS // (count * words)))
        for first in range(0, run, per):
            k = min(per, run - first)
            idx = nbr[start:start + k * count]
            gathers.append(idx if k == 1 else np.ascontiguousarray(idx.reshape(k, count).T))
            start += k * count

    frontier = np.zeros((n, words), dtype=np.uint64)
    src = np.arange(n)
    frontier[rank, src >> 6] = np.left_shift(np.uint64(1), (src & 63).astype(np.uint64))
    unseen = ~frontier
    planes: list[np.ndarray] = []  # bit k of the level at which each bit was first set
    level = 0
    while gathers:
        nxt = _gather(frontier, gathers[0])  # connected, so every row has a slot 0
        for idx in gathers[1:]:
            nxt[:len(idx)] |= _gather(frontier, idx)
        nxt &= unseen
        if not np.count_nonzero(nxt):
            break
        unseen ^= nxt
        level += 1
        if level & (level - 1) == 0:
            planes.append(nxt.copy())
        else:
            for k in range(len(planes)):
                if level >> k & 1:
                    planes[k] |= nxt
        frontier = nxt

    D = np.zeros((n, n), dtype=np.min_scalar_type(level))
    step = max(1, _BLOCK_CELLS // n)
    for r0 in range(0, n, step):
        block = rank[r0:r0 + step]
        for k, plane in enumerate(planes):
            bits = np.unpackbits(plane[block].astype("<u8", copy=False).view(np.uint8),
                                 axis=1, count=n, bitorder="little").astype(D.dtype, copy=False)
            bits <<= k
            D[r0:r0 + step] |= bits
    return D


def _gather(frontier: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """For each row r of idx, the OR of the frontier rows it names (one, or a row of them)."""
    part = frontier.take(idx, axis=0)
    return np.bitwise_or.reduce(part, axis=1) if idx.ndim == 2 else part


def _dijkstra(g: Graph) -> np.ndarray:
    """Distances of a connected graph from scipy's Dijkstra at its anchors, in the narrowest dtype.

    An anchor is a vertex of degree other than 2; a cycle has none, and
    vertex 0 stands in.  Every other vertex lies inside a chain of degree-2
    vertices between two anchors a and b (a == b when the chain closes on
    its anchor).  A path from x, at offset i on a chain of L edges, can leave
    the chain only through a or b, so D[x] = min(D[a] + i, D[b] + L - i),
    and on the chain's own columns, at offsets j, also |i - j|.  This is the
    contraction of degree-2 vertices that starts contraction hierarchies
    (Geisberger, Sanders, Schultes & Delling, WEA 2008), applied exactly.

    Scipy searches from one block of _BLOCK_CELLS // n anchors at a time and
    returns that block in float64, written straight into D, which is held in
    np.min_scalar_type(n - 1) and narrowed to the diameter's dtype at the
    end.  Chain rows come in blocks of as many rows, in
    np.min_scalar_type(2 n), which holds D[b] + L; a chain's own columns are
    slices over its runs of consecutive labels.  No n^2 float64 matrix is
    made.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    n = g.n
    D = np.empty((n, n), dtype=np.min_scalar_type(n - 1))  # every distance is below n
    is_anchor = np.diff(g.indptr) != 2
    if not is_anchor.any():
        is_anchor[0] = True
    anchors = np.flatnonzero(is_anchor)
    # float64 weights, scipy's own dtype: int8 ones would be converted on every search
    adj = csr_matrix((np.ones(len(g.indices)), g.indices, g.indptr), shape=(n, n))
    step = max(1, _BLOCK_CELLS // n)
    for k in range(0, len(anchors), step):
        # adjacency is symmetric, so the directed search gives the same distances;
        # the undirected one also walks the transpose, about 15% slower
        rows = anchors[k:k + step]
        D[rows] = shortest_path(adj, method="D", unweighted=True, directed=True, indices=rows)
    if len(anchors) < n:
        _chain_rows(g, is_anchor, D, step)
    return D.astype(np.min_scalar_type(int(D.max())), copy=False)


def _chain_rows(g: Graph, is_anchor: np.ndarray, D: np.ndarray, step: int) -> None:
    """Fill the rows of D at every vertex that is not an anchor from its chain's two anchor rows."""
    n = g.n
    # one walk: each chain once, from an anchor a into its first vertex and on to b.
    # A chain starts at both of its ends; the second start finds its vertex walked.
    inner = np.flatnonzero(~is_anchor)
    nbr = g.indices[g.indptr[inner, None] + np.arange(2)]
    at_anchor = is_anchor[nbr]
    unwalked = dict(zip(inner.tolist(), nbr.tolist()))  # vertex -> its two neighbours
    ends, chains = [], []
    for a, v in zip(nbr[at_anchor].tolist(), np.repeat(inner, at_anchor.sum(axis=1)).tolist()):
        if v not in unwalked:
            continue
        prev, cur, chain = a, v, []
        while cur in unwalked:
            chain.append(cur)
            p, q = unwalked.pop(cur)
            prev, cur = cur, (q if p == prev else p)
        ends.append((a, cur))
        chains.append(chain)
    lens = np.array([len(c) for c in chains])  # L - 1 for a chain of L edges
    first = np.cumsum(lens) - lens
    rows = np.fromiter(itertools.chain.from_iterable(chains), dtype=np.intp, count=lens.sum())
    total = len(rows)
    a_row, b_row = np.repeat(np.array(ends), lens, axis=0).T
    offset = np.arange(total) - np.repeat(first - 1, lens)  # i, from 1 to L - 1
    w = np.min_scalar_type(2 * n)  # holds D[b] + L
    i_s = offset.astype(f"i{w.itemsize}")  # |i - j| is taken signed, then viewed as w
    i_w = i_s.view(w)
    rest_w = (np.repeat(lens + 1, lens) - offset).astype(w)  # L - i

    # a chain's own columns, in runs of consecutive labels: one slice each.  A chain of
    # one vertex has only its diagonal, set below for every chain at once.
    split = np.ones(total + 1, dtype=bool)
    split[1:-1] = np.abs(rows[1:] - rows[:-1]) != 1
    split[first] = True
    bounds = np.flatnonzero(split).tolist()
    labels = rows.tolist()
    runs = []  # (first row of its chain, end row of its chain, columns, offsets j)
    k = 0
    for cs, ce in zip(first.tolist(), (first + lens).tolist()):
        while bounds[k] < ce:
            p, q = bounds[k], bounds[k + 1]
            k += 1
            if ce - cs > 1:
                lo = min(labels[p], labels[q - 1])
                j = i_s[p:q] if labels[p] == lo else i_s[p:q][::-1]  # in label order
                runs.append((cs, ce, slice(lo, lo + q - p), j))
    run_ends = [run[1] for run in runs]

    block = np.empty((min(step, total), n), dtype=w)
    other = np.empty_like(block)
    scratch = other.reshape(-1).view(i_s.dtype)  # |i - j|, once x holds the minimum
    for r0 in range(0, total, step):
        r1 = min(r0 + step, total)
        x, y = block[:r1 - r0], other[:r1 - r0]
        np.add(i_w[r0:r1, None], D[a_row[r0:r1]], out=x)
        np.add(rest_w[r0:r1, None], D[b_row[r0:r1]], out=y)
        np.minimum(x, y, out=x)
        k = bisect.bisect_right(run_ends, r0)  # the first run whose chain ends past r0
        while k < len(runs) and runs[k][0] < r1:
            cs, ce, cols, j = runs[k]
            k += 1
            s, e = max(cs, r0), min(ce, r1)
            d = scratch[:(e - s) * len(j)].reshape(e - s, len(j))
            np.subtract.outer(i_s[s:e], j, out=d)
            np.abs(d, out=d)
            own = x[s - r0:e - r0, cols]  # one view as input and output: no copy is made
            np.minimum(own, d.view(w), out=own)
        D[rows[r0:r1]] = x
    D[rows, rows] = 0


def row_sums(D: DistanceMatrix) -> np.ndarray:
    """Vector of row sums of D."""
    return D.entries.sum(axis=1, dtype=np.int64)


def eccentricities(D: DistanceMatrix) -> tuple[np.ndarray, int, int]:
    """Per-vertex eccentricities plus (radius, diameter)."""
    ecc = D.entries.max(axis=1).astype(np.int64)
    return ecc, int(ecc.min()), int(ecc.max())
