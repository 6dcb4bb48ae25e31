import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.csgraph
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from graphcurv import (
    DisconnectedGraphError,
    Graph,
    apsp,
    complete,
    cycle,
    eccentricities,
    gnp,
    grid,
    hypercube,
    parse_generator_spec,
    path,
    row_sums,
    star,
)
from graphcurv import metric
from oracles import floyd_warshall


def family_graphs_up_to(n_max):
    graphs = []
    for n in range(1, n_max + 1):
        graphs.append(path(n))
        if n >= 3:
            graphs.append(cycle(n))
        graphs.append(complete(n))
        if n >= 2:
            graphs.append(star(n))
    d = 1
    while 2 ** d <= n_max:
        graphs.append(hypercube(d))
        d += 1
    graphs.append(grid(4, 5))
    return graphs


class TestApspAgainstFloydWarshall:
    def test_families_exhaustive(self):
        for g in family_graphs_up_to(32):
            D = apsp(g)
            assert np.array_equal(D.entries, floyd_warshall(g).astype(np.int64)), g

    def test_seeded_gnp_instances(self):
        for seed in range(100):
            n = 4 + seed % 29  # 4..32
            g, _ = gnp(n, Fraction(1, 2), seed)
            D = apsp(g)
            assert np.array_equal(D.entries, floyd_warshall(g).astype(np.int64)), (n, seed)


class TestInvariants:
    @pytest.mark.parametrize("g", [path(7), cycle(8), complete(5), star(6), hypercube(4)])
    def test_matrix_invariants(self, g):
        D = apsp(g)
        e = D.entries
        assert not np.diagonal(e).any()
        assert np.array_equal(e, e.T)
        n = g.n
        for k in range(n):  # triangle inequality through every intermediate
            assert (e <= e[:, k:k + 1] + e[k:k + 1, :]).all()
        adjacency = g.adjacency
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert e[i, j] >= 1
                    assert (e[i, j] == 1) == (j in adjacency[i])

    def test_deterministic(self):
        g, _ = gnp(20, Fraction(1, 3), 5)
        assert np.array_equal(apsp(g).entries, apsp(g).entries)

    def test_immutable(self):
        D = apsp(path(4))
        with pytest.raises(ValueError):
            D.entries[0, 1] = 9

    def test_transitive_families_have_equal_row_sums(self):
        for g in [cycle(7), complete(6), hypercube(3)]:
            assert len(set(row_sums(apsp(g)).tolist())) == 1


class TestFixtures:
    def test_path3_matrix(self):
        assert apsp(path(3)).entries.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    def test_complete4_offdiagonal_ones(self):
        e = apsp(complete(4)).entries
        assert (e + np.eye(4, dtype=np.int64) == 1).all()

    def test_cycle4_row_sums(self):
        assert row_sums(apsp(cycle(4))).tolist() == [4, 4, 4, 4]

    def test_row_sums(self):
        assert row_sums(apsp(path(3))).tolist() == [3, 2, 3]
        assert row_sums(apsp(hypercube(3))).tolist() == [12] * 8
        assert row_sums(apsp(star(4))).tolist() == [3, 5, 5, 5]

    def test_eccentricities(self):
        ecc, radius, diameter = eccentricities(apsp(path(3)))
        assert ecc.tolist() == [2, 1, 2] and (radius, diameter) == (1, 2)
        for n in (2, 5, 9):
            _, radius, diameter = eccentricities(apsp(complete(n)))
            assert radius == diameter == 1
        ecc, _, _ = eccentricities(apsp(cycle(5)))
        assert ecc.tolist() == [2] * 5


class TestValidation:
    """DistanceMatrix refuses bad entries, each check with its own message."""

    @staticmethod
    def path_metric(n):
        idx = np.arange(n, dtype=np.int64)
        return np.abs(idx[:, None] - idx[None, :])

    # the symmetry check runs over blocks of 256 rows; n = 257 and 513 end on a
    # partial block, and the pairs sit in the first block, on a block boundary
    # and in the last rows and columns
    @pytest.mark.parametrize("n", [257, 513])
    @pytest.mark.parametrize("pair", ["first", "boundary", "corner", "last"])
    @pytest.mark.parametrize("upper", [True, False])
    def test_asymmetric_pair(self, n, pair, upper):
        i, j = {"first": (0, 1), "boundary": (255, 256), "corner": (0, n - 1),
                "last": (n - 2, n - 1)}[pair]
        e = self.path_metric(n)
        assert metric.DistanceMatrix(n=n, entries=e.copy()).n == n
        e[(i, j) if upper else (j, i)] += 1
        with pytest.raises(ValueError, match="must be symmetric"):
            metric.DistanceMatrix(n=n, entries=e)

    @pytest.mark.parametrize("n", [2, 257, 513])
    def test_negative_entry(self, n):
        e = self.path_metric(n)
        e[n - 2, n - 1] = e[n - 1, n - 2] = -1
        with pytest.raises(ValueError, match="distances must be non-negative"):
            metric.DistanceMatrix(n=n, entries=e)

    def test_checks_keep_their_order(self):
        e = self.path_metric(300)
        e[0, 299] = -5  # asymmetric and negative: symmetry is checked first
        with pytest.raises(ValueError, match="must be symmetric"):
            metric.DistanceMatrix(n=300, entries=e.copy())
        e[5, 5] = 1
        with pytest.raises(ValueError, match="zero diagonal"):
            metric.DistanceMatrix(n=300, entries=e.copy())
        with pytest.raises(ValueError, match="must be int64"):
            metric.DistanceMatrix(n=300, entries=e.astype(np.int32))
        with pytest.raises(ValueError, match="does not match"):
            metric.DistanceMatrix(n=299, entries=e)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    def test_unsigned_entries_take_the_same_checks(self, dtype):
        # apsp stores distances unsigned; only the negativity check cannot fail there
        e = self.path_metric(255).astype(dtype)
        assert metric.DistanceMatrix(n=255, entries=e.copy()).n == 255
        e[0, 254] -= 1
        with pytest.raises(ValueError, match="must be symmetric"):
            metric.DistanceMatrix(n=255, entries=e.copy())
        e[3, 3] = 1
        with pytest.raises(ValueError, match="zero diagonal"):
            metric.DistanceMatrix(n=255, entries=e)

    def test_empty(self):
        assert metric.DistanceMatrix(n=0, entries=np.zeros((0, 0), dtype=np.int64)).n == 0


def test_disconnected_refused_with_named_pair():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError) as exc:
        apsp(g)
    u, v = exc.value.unreachable_pair
    assert apsp_reaches(g, u) != apsp_reaches(g, v)


def apsp_reaches(g, source):
    from graphcurv.graphs import _bfs_reachable
    return frozenset(_bfs_reachable(g, source)[0])


def test_directed_search_matches_undirected(monkeypatch):
    # apsp searches the symmetric adjacency as directed; the undirected
    # search must give the same matrix and name the same unreachable pair.
    # Only graphs deeper than BITBFS_MAX_DEPTH reach scipy's search.
    deep = [path(66), path(90), cycle(131), cycle(150), grid(2, 70), grid(3, 70)]
    graphs = (family_graphs_up_to(16) + [gnp(6 + s % 27, Fraction(1, 3), s)[0] for s in range(20)]
              + deep)
    disconnected = [Graph(4, [(0, 1), (2, 3)]), Graph(6, [(0, 5), (1, 2), (2, 3)]), Graph(3, [])]
    directed = [apsp(g).entries for g in graphs]
    directed_errors = []
    for g in disconnected:
        with pytest.raises(DisconnectedGraphError) as exc:
            apsp(g)
        directed_errors.append(exc.value.unreachable_pair)
    searched = []

    def undirected(*args, **kw):
        searched.append(args[0].shape[0])
        return shortest_path(*args, **{**kw, "directed": False})

    monkeypatch.setattr(scipy.sparse.csgraph, "shortest_path", undirected)
    for g, entries in zip(graphs, directed):
        assert np.array_equal(apsp(g).entries, entries), g
    assert searched == [g.n for g in deep]
    for g, pair in zip(disconnected, directed_errors):
        with pytest.raises(DisconnectedGraphError) as exc:
            apsp(g)
        assert exc.value.unreachable_pair == pair


def scipy_adjacency(g):
    """The adjacency matrix of g, with float ones, in scipy's CSR format."""
    adjacency = g.adjacency
    indptr = np.cumsum([0] + [len(nbrs) for nbrs in adjacency])
    indices = [v for nbrs in adjacency for v in nbrs]
    return csr_matrix((np.ones(len(indices)), indices, indptr), shape=(g.n, g.n))


def first_infinite_pair(g):
    """The row-major first unreachable pair of scipy's distance matrix."""
    dist = shortest_path(scipy_adjacency(g), unweighted=True)
    i, j = np.argwhere(np.isinf(dist))[0]
    return int(i), int(j)


class TestBranches:
    """The bit-parallel BFS and scipy's Dijkstra, each called directly."""

    @staticmethod
    def assert_both(g, reference=None):
        bit, dijkstra = metric._bitbfs(g), metric._dijkstra(g)
        assert bit.dtype == dijkstra.dtype == np.uint8  # every diameter here is below 256
        assert np.array_equal(bit, dijkstra), g
        if reference is not None:
            assert np.array_equal(bit, reference.astype(np.int64)), g

    def test_families_against_floyd_warshall(self):
        for g in family_graphs_up_to(32):
            self.assert_both(g, floyd_warshall(g))

    def test_gnp_against_floyd_warshall(self):
        for seed in range(100):
            g, _ = gnp(4 + seed % 61, Fraction(1, 2 + seed % 7), seed)  # n = 4..64
            self.assert_both(g, floyd_warshall(g))

    @pytest.mark.parametrize("spec", ["cycle:300", "path:200", "star:300", "complete:200"])
    def test_large_against_floyd_warshall(self, spec):
        g = parse_generator_spec(spec)
        self.assert_both(g, floyd_warshall(g))

    def test_grid(self):
        self.assert_both(grid(40, 40))

    def test_word_boundaries(self):
        # bitset rows of one, two and three words, full and partial
        for n in (63, 64, 65, 127, 128, 129):
            self.assert_both(gnp(n, Fraction(1, 8), n)[0])

    @pytest.mark.parametrize("spec,branch", [
        ("gnp:1000,1/100", "_bitbfs"),
        ("gnp:1500,1/150", "_bitbfs"),
        ("gnp:2000,1/200", "_bitbfs"),
        ("hypercube:10", "_bitbfs"),
        ("path:65", "_bitbfs"),  # BFS depth 64 from vertex 0
        ("path:66", "_dijkstra"),
        ("path:1500", "_dijkstra"),
        ("cycle:1000", "_dijkstra"),
    ])
    def test_branch_choice(self, spec, branch, monkeypatch):
        calls = []
        for name in ("_bitbfs", "_dijkstra"):
            monkeypatch.setattr(metric, name,
                                lambda g, name=name: calls.append(name) or np.zeros((g.n, g.n), np.int64))
        for seed in (1, 2):
            apsp(parse_generator_spec(spec, seed=seed))
        assert calls == [branch, branch]

    def test_kernel_peak_memory(self):
        apsp(path(70))  # scipy's lazy import is not measured
        for g in (gnp(1000, Fraction(1, 100), 1)[0], path(1500)):
            tracemalloc.start()
            try:
                D = apsp(g)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * g.n ** 2, g  # less than one int64 copy of D
        # path:1500 takes scipy's Dijkstra: D and one float64 block of its rows,
        # plus 256 bytes a vertex for the BFS set and its lists of the CSR arrays; a
        # whole float64 D would add 8 n^2 = 18 MB
        assert peak <= D.entries.nbytes + 8 * metric._BLOCK_CELLS + 256 * g.n

    @pytest.mark.parametrize("spec,rows", [("path:70", 3), ("path:70", 1), ("cycle:131", 5),
                                           ("grid:3,70", 19)])
    def test_dijkstra_in_row_blocks(self, spec, rows, monkeypatch):
        # scipy searches only from the anchors, `rows` of them at a time: path:70's two
        # ends, cycle:131's stand-in vertex 0 and grid:3,70's 206 vertices off its four
        # corners; the chain rows come in blocks of as many rows
        g = parse_generator_spec(spec)
        anchors = [v for v in range(g.n) if g.degree(v) != 2] or [0]
        whole = shortest_path(scipy_adjacency(g), method="D", unweighted=True)
        searched = []

        def search(*args, indices, **kw):
            searched.append(indices.tolist())
            return shortest_path(*args, indices=indices, **kw)

        monkeypatch.setattr(metric, "_BLOCK_CELLS", rows * g.n + g.n - 1)
        monkeypatch.setattr(scipy.sparse.csgraph, "shortest_path", search)
        D = metric._dijkstra(g)
        assert searched == [anchors[k:k + rows] for k in range(0, len(anchors), rows)]
        assert D.dtype == np.min_scalar_type(int(whole.max()))
        assert np.array_equal(D, whole)
        assert np.array_equal(D, floyd_warshall(g))


def relabelled(g, seed):
    """g with its vertex labels permuted at random."""
    perm = np.random.default_rng(seed).permutation(g.n)
    return Graph(g.n, perm[np.array(list(g.edges()), dtype=np.int64).reshape(-1, 2)])


def chain_graph(n, *chains):
    """n vertices joined by paths: each chain lists the vertices it runs through."""
    return Graph(n, [e for chain in chains for e in zip(chain, chain[1:])])


# graphs whose chains of degree-2 vertices take every shape the chain kernel meets
CHAIN_GRAPHS = {
    "cycle": cycle(40),  # no vertex of degree other than 2: vertex 0 stands in
    # a stick 0..5 and a cycle 5..17 that closes on its own anchor 5
    "lollipop": chain_graph(18, range(6), [*range(5, 18), 5]),
    # three chains of 3, 4 and 6 edges between anchors 0 and 1
    "theta": chain_graph(12, [0, 2, 3, 1], [0, 4, 5, 6, 1], [0, 7, 8, 9, 10, 11, 1]),
    # anchors 0 and 1, each with a leaf, joined by an edge and by a chain of 5 edges
    "edge-and-chain": chain_graph(8, [6, 0, 1, 7], [0, 2, 3, 4, 5, 1]),
    # legs of 1, 7, 12 and 30 edges from the centre 0
    "spider": chain_graph(51, [0, 1], [0, *range(2, 9)], [0, *range(9, 21)], [0, *range(21, 51)]),
    # a spine 0..19 with a leaf on every other spine vertex: chains of one vertex
    "caterpillar": chain_graph(30, range(20), *([v, 20 + v // 2] for v in range(0, 20, 2))),
    "path-shuffled": relabelled(path(90), 1),
    "cycle-shuffled": relabelled(cycle(90), 2),
}


class TestChainKernel:
    """`_dijkstra` on graphs of many chain shapes, called directly, against Floyd-Warshall."""

    @staticmethod
    def assert_exact(g):
        reference = floyd_warshall(g)
        D = metric._dijkstra(g)
        assert D.dtype == np.min_scalar_type(int(reference.max()))
        assert np.array_equal(D, reference)

    @pytest.mark.parametrize("name", CHAIN_GRAPHS)
    def test_named_graphs(self, name, monkeypatch):
        g = CHAIN_GRAPHS[name]
        self.assert_exact(g)
        monkeypatch.setattr(metric, "_BLOCK_CELLS", 2 * g.n)  # two rows a block: chains split
        self.assert_exact(g)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.tuples(*(st.integers(0, v - 1) for v in range(1, n))),  # each vertex's tree parent
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3),
        st.lists(st.integers(0, 20), min_size=n + 2, max_size=n + 2),  # subdivisions per edge
        st.integers(0, 2 ** 32 - 1), st.integers(1, 6))))
    def test_drawn_graphs(self, drawn):
        parents, extra, splits, seed, rows = drawn
        pairs = {tuple(sorted(e)) for e in [*enumerate(parents, 1), *extra] if e[0] != e[1]}
        n, edges = len(parents) + 1, []
        for (u, v), k in zip(sorted(pairs), splits):
            edges.append([u, *range(n, n + k), v])
            n += k
        g = relabelled(chain_graph(n, *edges), seed)
        self.assert_exact(g)
        with mock.patch.object(metric, "_BLOCK_CELLS", rows * g.n):
            self.assert_exact(g)

    def test_one_search_per_deep_family(self, monkeypatch):
        searched = []

        def search(*args, indices, **kw):
            searched.append(indices.tolist())
            return shortest_path(*args, indices=indices, **kw)

        monkeypatch.setattr(scipy.sparse.csgraph, "shortest_path", search)
        metric._dijkstra(path(1500))
        metric._dijkstra(cycle(1000))
        assert searched == [[0, 1499], [0]]


class TestDisconnectedPair:
    """apsp names the pair of scipy's first infinite distance."""

    GRAPHS = [Graph(4, [(0, 1), (2, 3)]), Graph(6, [(0, 5), (1, 2), (2, 3)]), Graph(3, []),
              Graph(5, [(1, 2), (2, 3), (3, 4)]), Graph(70, [(i, i + 1) for i in range(68)])]

    @pytest.mark.parametrize("g", GRAPHS)
    def test_fixed_graphs(self, g):
        with pytest.raises(DisconnectedGraphError) as exc:
            apsp(g)
        assert exc.value.unreachable_pair == first_infinite_pair(g)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 14).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))))
    def test_drawn_graphs(self, drawn):
        n, pairs = drawn
        g = Graph(n, [(u, v) for u, v in pairs if u != v])
        if len(apsp_reaches(g, 0)) == n:
            return  # connected draws are covered by the equality tests
        with pytest.raises(DisconnectedGraphError) as exc:
            apsp(g)
        assert exc.value.unreachable_pair == first_infinite_pair(g)
