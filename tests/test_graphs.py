import tracemalloc
from fractions import Fraction

import pytest

from graphcurv import (
    Graph,
    GraphInputError,
    complete,
    cycle,
    generate,
    gnp,
    grid,
    hypercube,
    parse_edge_list,
    parse_generator_spec,
    path,
    serialize,
    star,
    validate,
)
from oracles import gnp_triu


class TestParsing:
    def test_path_example(self):
        g = parse_edge_list("3 2\n0 1\n1 2")
        assert g.n == 3
        assert g.adjacency[1] == (0, 2)
        assert g == path(3)

    def test_edgeless(self):
        g = parse_edge_list("2 0")
        assert g.n == 2 and g.m == 0
        assert not validate(g).connected

    def test_duplicate_edges_deduplicated(self):
        assert parse_edge_list("3 3\n0 1\n0 1\n1 2") == path(3)

    def test_comments_and_whitespace(self):
        g = parse_edge_list("# a path\n3 2\n\n0 1\n  1   2 \n")
        assert g == path(3)

    @pytest.mark.parametrize("text", [
        "",
        "3",
        "a b",
        "3 2\n0 1",          # fewer edge lines than promised
        "3 1\n0 1\n1 2",     # more edge lines than promised
        "3 1\n0 3",          # index out of range
        "3 1\n0 0",          # self-loop
        "3 1\n0 1 2",        # malformed edge line
        "3 1\n0 x",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(GraphInputError):
            parse_edge_list(text)

    def test_roundtrip_on_generators(self):
        for g in [path(1), path(5), cycle(6), complete(4), star(7), hypercube(3), grid(3, 4)]:
            assert parse_edge_list(serialize(g)) == g

    def test_serialize_sorted_edges(self):
        text = serialize(star(4))
        assert text == "4 3\n0 1\n0 2\n0 3\n"


class TestGenerators:
    def test_path(self):
        g = path(3)
        assert g.n == 3 and list(g.edges()) == [(0, 1), (1, 2)]

    def test_complete(self):
        g = complete(4)
        assert g.m == 6
        assert all(v in g.adjacency[u] for u in range(4) for v in range(4) if u != v)

    def test_hypercube_counts(self):
        for d in range(1, 7):
            g = hypercube(d)
            assert g.n == 2 ** d
            assert g.m == d * 2 ** (d - 1)
            assert all(g.degree(v) == d for v in range(g.n))

    def test_cycle(self):
        g = cycle(5)
        assert g.m == 5 and all(g.degree(v) == 2 for v in range(5))

    def test_star(self):
        g = star(6)
        assert g.degree(0) == 5 and all(g.degree(v) == 1 for v in range(1, 6))

    def test_grid(self):
        g = grid(3, 4)
        assert g.n == 12 and g.m == 3 * 3 + 2 * 4

    def test_all_generator_outputs_valid_and_connected(self):
        graphs = [path(1), path(9), cycle(3), cycle(10), complete(1), complete(8),
                  star(2), star(9), hypercube(4), grid(2, 5),
                  gnp(10, Fraction(1, 2), 3)[0]]
        for g in graphs:
            report = validate(g)
            assert report.connected, g
            assert report.m == g.m
            for u in range(g.n):
                assert g.adjacency[u] == tuple(sorted(set(g.adjacency[u])))
                assert u not in g.adjacency[u]
                for v in g.adjacency[u]:
                    assert u in g.adjacency[v]

    @pytest.mark.parametrize("family,params", [
        ("path", [0]), ("cycle", [2]), ("complete", [0]), ("star", [1]),
        ("hypercube", [0]), ("grid", [0, 3]), ("gnp", [5, Fraction(3, 2)]),
        ("nosuch", [3]),
    ])
    def test_invalid_parameters(self, family, params):
        with pytest.raises(GraphInputError):
            generate(family, params)


class TestGnp:
    def test_deterministic(self):
        a, _ = gnp(12, Fraction(1, 3), 42)
        b, _ = gnp(12, Fraction(1, 3), 42)
        assert a == b

    def test_seed_changes_graph(self):
        a, _ = gnp(12, Fraction(1, 3), 1)
        b, _ = gnp(12, Fraction(1, 3), 2)
        assert a != b

    def test_p_one_is_complete(self):
        g, retries = gnp(5, Fraction(1), 0)
        assert g == complete(5) and retries == 0

    def test_p_zero_single_vertex(self):
        g, _ = gnp(1, Fraction(0), 0)
        assert g.n == 1

    def test_p_zero_fails_for_two_vertices(self):
        with pytest.raises(GraphInputError, match="failed to produce a connected graph"):
            gnp(2, Fraction(0), 0)

    @pytest.mark.parametrize("n,p,seed", [
        (1, Fraction(0), 0), (2, Fraction(1, 2), 0), (2, Fraction(1), 3), (5, Fraction(1), 0),
        (8, Fraction(1, 4), 3), (12, Fraction(1, 3), 5), (40, Fraction(1, 5), 7),
        (120, Fraction(1, 12), 11), (400, Fraction(1, 40), 2), (730, Fraction(2, 3), 1),
        (1000, Fraction(1, 100), 1),
    ])
    def test_matches_triu_reference(self, n, p, seed):
        # same graph and retry count as the all-at-once draw; n = 1000 spans two blocks
        assert gnp(n, p, seed) == gnp_triu(n, p, seed)

    def test_retries_match_triu_reference(self):
        for seed in range(30):
            try:
                expected = gnp_triu(8, Fraction(1, 4), seed)
            except GraphInputError:
                continue
            assert gnp(8, Fraction(1, 4), seed) == expected

    def test_peak_memory(self):
        # the all-at-once draw peaked at 76 MB here
        tracemalloc.start()
        try:
            gnp(2000, Fraction(1, 200), 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_retry_until_connected(self):
        # sparse enough that some draws are disconnected but retries succeed
        found_retry = False
        for seed in range(30):
            try:
                _, retries = gnp(8, Fraction(1, 4), seed)
            except GraphInputError:
                continue
            found_retry = found_retry or retries > 0
        assert found_retry


class TestValidate:
    def test_path3(self):
        report = validate(path(3))
        assert report.connected and report.m == 2 and report.issues == []

    def test_two_disjoint_edges(self):
        report = validate(Graph(4, [(0, 1), (2, 3)]))
        assert not report.connected
        assert report.issues

    def test_single_vertex(self):
        report = validate(complete(1))
        assert report.connected and report.m == 0


class TestSpecStrings:
    def test_parse_generator_spec(self):
        assert parse_generator_spec("path:5") == path(5)
        assert parse_generator_spec("grid:2,3") == grid(2, 3)
        assert parse_generator_spec("gnp:10,1/4", seed=7) == gnp(10, Fraction(1, 4), 7)[0]

    @pytest.mark.parametrize("spec", ["path", "path:", "path:x", "gnp:10,0.25", "blah:3"])
    def test_bad_specs(self, spec):
        with pytest.raises(GraphInputError):
            parse_generator_spec(spec)
