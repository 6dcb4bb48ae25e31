from fractions import Fraction

import numpy as np
import pytest
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
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert e[i, j] >= 1
                    assert (e[i, j] == 1) == (j in g.adjacency[i])

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


def test_disconnected_refused_with_named_pair():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError) as exc:
        apsp(g)
    u, v = exc.value.unreachable_pair
    assert apsp_reaches(g, u) != apsp_reaches(g, v)


def apsp_reaches(g, source):
    from graphcurv.graphs import _bfs_reachable
    return frozenset(_bfs_reachable(g, source))


def test_directed_search_matches_undirected(monkeypatch):
    # apsp searches the symmetric adjacency as directed; the undirected
    # search must give the same matrix and name the same unreachable pair
    graphs = family_graphs_up_to(16) + [gnp(6 + s % 27, Fraction(1, 3), s)[0] for s in range(20)]
    disconnected = [Graph(4, [(0, 1), (2, 3)]), Graph(6, [(0, 5), (1, 2), (2, 3)]), Graph(3, [])]
    directed = [apsp(g).entries for g in graphs]
    directed_errors = []
    for g in disconnected:
        with pytest.raises(DisconnectedGraphError) as exc:
            apsp(g)
        directed_errors.append(exc.value.unreachable_pair)
    monkeypatch.setattr(metric, "shortest_path",
                        lambda *args, **kw: shortest_path(*args, **{**kw, "directed": False}))
    for g, entries in zip(graphs, directed):
        assert np.array_equal(apsp(g).entries, entries), g
    for g, pair in zip(disconnected, directed_errors):
        with pytest.raises(DisconnectedGraphError) as exc:
            apsp(g)
        assert exc.value.unreachable_pair == pair
