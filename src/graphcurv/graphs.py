"""Finite simple undirected graphs: representation, parsing, generators.

Vertices are always 0-based integers.  A `Graph` is its sorted CSR arrays,
which `metric.apsp` reads as they are.  Graph values are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import GraphInputError
from .rationals import INT64_MAX, parse_ratio
from .seeding import counter_values_np

GNP_MAX_RETRIES = 1000
# coins drawn per numpy pass: 256 KB of uint64, so a pass's few arrays stay in
# L2; the draws of gnp:1000,1/100 to gnp:2000,1/200 took 3.2-11.5 ms against
# 8.8-29 ms in blocks of 2^18 (best of 7 on 2 vCPUs)
GNP_BLOCK = 1 << 15


class Graph:
    """Simple undirected graph on vertices 0..n-1, as read-only int64 CSR arrays.

    v's neighbours are indices[indptr[v]:indptr[v + 1]], ascending.  `edges`
    is an (m, 2) integer array or any iterable of pairs, repeats allowed.
    """

    __slots__ = ("n", "indptr", "indices")

    def __init__(self, n: int, edges: np.ndarray | Iterable[tuple[int, int]]):
        if n < 1:
            raise GraphInputError(f"vertex count must be positive, got {n}")
        if n * n > INT64_MAX:  # the keys u n + v below are int64
            raise GraphInputError(f"vertex count {n} is too large: n * n must fit int64")
        pairs = edges if isinstance(edges, np.ndarray) else list(edges)
        try:
            e = np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2)
        except OverflowError:  # an index beyond int64: checked as Python ints
            e = np.asarray(pairs, dtype=object).reshape(len(pairs), 2)
        bad = np.flatnonzero(((e < 0) | (e >= n)).any(axis=1) | (e[:, 0] == e[:, 1]))
        if bad.size:  # the first offending edge, its range before a self-loop
            u, v = e[bad[0]].tolist()
            if not (0 <= u < n and 0 <= v < n):
                raise GraphInputError(f"vertex index out of range in edge ({u}, {v}), n={n}")
            raise GraphInputError(f"self-loop at vertex {u}")
        # one key v n + w per orientation, sorted, repeats dropped; np.unique would
        # map about 1 MB more resident memory on its first call
        try:
            keys = np.sort(np.concatenate((e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0])))
            keys = keys[np.diff(keys, prepend=-1) != 0]
            self.indptr = np.searchsorted(keys, np.arange(n + 1) * n)
            self.indices = keys % n
        except MemoryError:
            raise GraphInputError(f"vertex count {n} is too large to hold in memory") from None
        self.n = n
        self.indptr.flags.writeable = self.indices.flags.writeable = False

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """The sorted neighbour tuples, built on each access."""
        ptr, nbrs = self.indptr.tolist(), self.indices.tolist()
        return tuple(tuple(nbrs[a:b]) for a, b in zip(ptr, ptr[1:]))

    @property
    def m(self) -> int:
        return len(self.indices) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographically sorted."""
        u = np.repeat(np.arange(self.n), np.diff(self.indptr))
        return zip(u[u < self.indices].tolist(), self.indices[u < self.indices].tolist())

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def __eq__(self, other) -> bool:
        # indices holds each vertex deg(v) times, so with n it fixes indptr
        return (isinstance(other, Graph) and self.n == other.n
                and np.array_equal(self.indices, other.indices))

    def __hash__(self) -> int:
        return hash((self.n, self.indices.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class ValidationReport:
    connected: bool
    n: int
    m: int
    issues: list[str] = field(default_factory=list)


def validate(g: Graph) -> ValidationReport:
    """Structural report; connectivity via one BFS from vertex 0."""
    seen, _ = _bfs_reachable(g, 0)
    connected = len(seen) == g.n
    issues = []
    if not connected:
        missing = next(v for v in range(g.n) if v not in seen)
        issues.append(f"not connected: vertex {missing} unreachable from vertex 0")
    return ValidationReport(connected=connected, n=g.n, m=g.m, issues=issues)


def _bfs_reachable(g: Graph, source: int) -> tuple[set[int], int]:
    """The vertices reachable from source, and the largest BFS level among them."""
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    seen = {source}
    frontier = [source]
    depth = -1
    while frontier:
        depth += 1
        nxt = []
        for u in frontier:
            for v in indices[indptr[u]:indptr[u + 1]]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen, depth


# ---------------------------------------------------------------------------
# Edge-list file format: '#' comment lines, then "n m", then m lines "u v".


def parse_edge_list(text: str | Iterable[str]) -> Graph:
    """Parse the edge-list format; duplicate edges are deduplicated."""
    lines = text.splitlines() if isinstance(text, str) else list(text)
    rows = [ln.strip() for ln in lines if ln.strip() and not ln.strip().startswith("#")]
    if not rows:
        raise GraphInputError("empty input, expected header line 'n m'")
    header = rows[0].split()
    if len(header) != 2:
        raise GraphInputError(f"malformed header {rows[0]!r}, expected 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphInputError(f"malformed header {rows[0]!r}, expected integers 'n m'") from None
    if len(rows) - 1 != m:
        raise GraphInputError(f"header promises {m} edges, found {len(rows) - 1} edge lines")
    edges = []
    for ln in rows[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError:  # not two integers
            raise GraphInputError(f"malformed edge line {ln!r}") from None
        edges.append((u, v))
    return Graph(n, edges)


def serialize(g: Graph) -> str:
    """Emit the edge-list format with sorted edges (u < v, lexicographic)."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Generators


def path(n: int) -> Graph:
    _require(n >= 1, f"path needs n >= 1, got {n}")
    return Graph(n, np.column_stack((np.arange(n - 1), np.arange(1, n))))


def cycle(n: int) -> Graph:
    _require(n >= 3, f"cycle needs n >= 3, got {n}")
    return Graph(n, np.column_stack((np.arange(n), np.arange(1, n + 1) % n)))


def complete(n: int) -> Graph:
    _require(n >= 1, f"complete needs n >= 1, got {n}")
    return Graph(n, np.column_stack(np.triu_indices(n, k=1)))


def star(n: int) -> Graph:
    """Star on n vertices: center 0, leaves 1..n-1."""
    _require(n >= 2, f"star needs n >= 2, got {n}")
    return Graph(n, np.column_stack((np.zeros(n - 1, dtype=np.int64), np.arange(1, n))))


def hypercube(d: int) -> Graph:
    _require(1 <= d <= 20, f"hypercube needs 1 <= d <= 20, got {d}")
    x, bit = np.arange(1 << d).repeat(d), np.tile(1 << np.arange(d), 1 << d)
    return Graph(1 << d, np.column_stack((x, x | bit))[x & bit == 0])


def grid(rows: int, cols: int) -> Graph:
    _require(rows >= 1 and cols >= 1, f"grid needs positive dimensions, got {rows}x{cols}")
    idx = np.arange(rows * cols).reshape(rows, cols)
    horizontal = np.column_stack((idx[:, :-1].ravel(), idx[:, 1:].ravel()))
    vertical = np.column_stack((idx[:-1].ravel(), idx[1:].ravel()))
    return Graph(rows * cols, np.concatenate((horizontal, vertical)))


def gnp(n: int, p: Fraction, seed: int) -> tuple[Graph, int]:
    """Connected Erdos-Renyi G(n, p); returns (graph, retry count).

    Each potential edge gets a deterministic counter-based 64-bit coin, so the
    graph is a pure function of (n, p, seed).  If the draw is disconnected the
    sub-seed advances and the whole graph is redrawn, up to GNP_MAX_RETRIES.
    The coin keeps p as an exact fraction: edge present iff r * den < num * 2^64.
    Pair (i, j), i < j, has counter i n - i (i + 1) / 2 + j - i - 1, its place
    in row-major order of the upper triangle; the coins are drawn in blocks
    of GNP_BLOCK counters.
    """
    _require(n >= 1, f"gnp needs n >= 1, got {n}")
    p = Fraction(p)
    _require(0 <= p <= 1, f"gnp probability must be in [0, 1], got {p}")
    if p == 1:
        return complete(n), 0
    # r < threshold  <=>  r * den < num * 2^64, for integer r
    threshold = -(-(p.numerator << 64) // p.denominator)
    rows = np.arange(n, dtype=np.int64)
    offsets = rows * n - rows * (rows + 1) // 2  # counter of pair (i, i + 1)
    pairs = n * (n - 1) // 2
    for retry in range(GNP_MAX_RETRIES):
        blocks = [np.empty(0, dtype=np.int64)]  # the kept counters of each block
        for start in range(0, pairs if threshold > 0 else 0, GNP_BLOCK):
            counters = np.arange(start, min(start + GNP_BLOCK, pairs), dtype=np.uint64)
            kept = np.flatnonzero(counter_values_np(seed, counters, retry) < np.uint64(threshold))
            blocks.append(kept + start)
        kept = np.concatenate(blocks)
        i = np.searchsorted(offsets, kept, side="right") - 1
        j = kept - offsets[i] + i + 1
        g = Graph(n, np.column_stack((i, j)))
        if validate(g).connected:
            return g, retry
    raise GraphInputError(
        f"gnp({n}, {p}, seed={seed}) failed to produce a connected graph in {GNP_MAX_RETRIES} retries"
    )


def generate(family: str, params: Sequence[int | Fraction], seed: int = 0) -> Graph:
    """Factory over the named families; see the per-family helpers."""
    families = {"path": path, "cycle": cycle, "complete": complete, "star": star,
                "hypercube": hypercube, "grid": grid, "gnp": gnp}
    if family not in families:
        raise GraphInputError(f"unknown family {family!r}, expected one of {tuple(families)}")
    if len(params) != (2 if family in ("grid", "gnp") else 1):
        raise GraphInputError(f"wrong parameter count for {family}: {params!r}")
    for x in params[:1] if family == "gnp" else params:
        _require(Fraction(x).denominator == 1, f"{family} sizes must be integers, got {x}")
    if family == "gnp":
        return gnp(int(params[0]), Fraction(params[1]), seed)[0]
    return families[family](*map(int, params))


def parse_generator_spec(spec: str, seed: int = 0) -> Graph:
    """Parse "family:param[,param...]", e.g. "path:5" or "gnp:20,1/4"."""
    if ":" not in spec:
        raise GraphInputError(f"generator spec {spec!r} must look like 'family:params'")
    family, _, rest = spec.partition(":")
    family = family.strip()
    raw = [s for s in rest.split(",") if s.strip()]
    if not raw:
        raise GraphInputError(f"generator spec {spec!r} has no parameters")
    params: list[int | Fraction] = []
    for tok in raw:
        try:
            params.append(parse_ratio(tok))
        except (ValueError, ZeroDivisionError):
            raise GraphInputError(f"bad parameter {tok!r} in generator spec {spec!r}") from None
    return generate(family, params, seed=seed)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise GraphInputError(msg)
