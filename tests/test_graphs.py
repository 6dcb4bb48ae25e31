import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from graphcurv import graphs
from oracles import adjacency_sets, family_edges, gnp_triu


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
            adjacency = g.adjacency
            for u, nbrs in enumerate(adjacency):
                assert nbrs == tuple(sorted(set(nbrs)))
                assert u not in nbrs
                for v in nbrs:
                    assert u in adjacency[v]

    @pytest.mark.parametrize("family,params", [
        ("path", [0]), ("cycle", [2]), ("complete", [0]), ("star", [1]),
        ("hypercube", [0]), ("grid", [0, 3]), ("gnp", [5, Fraction(3, 2)]),
        ("nosuch", [3]),
    ])
    def test_invalid_parameters(self, family, params):
        with pytest.raises(GraphInputError):
            generate(family, params)


FAMILY_SPECS = ["path:1", "path:2", "path:9", "cycle:3", "cycle:10", "complete:1", "complete:2",
                "complete:8", "star:2", "star:9", "hypercube:1", "hypercube:4", "grid:1,1",
                "grid:1,6", "grid:5,1", "grid:3,4", "grid:4,7", "gnp:1,0", "gnp:5,1", "gnp:12,1/3",
                "gnp:40,1/5"]
# edge-list files: duplicates in both orientations, comments, and offending
# edges, two of them in either order, with indices within and beyond int64
EDGE_FILES = [
    "3 2\n0 1\n1 2", "# a comment\n5 7\n0 1\n1 0\n1 2\n\n  2 3 \n3 4\n0 1\n4 0\n", "4 0",
    "3 1\n0 3", "3 1\n0 0", "3 1\n-1 -1", "3 2\n1 1\n0 3", "3 2\n0 3\n1 1", "3 1\n5 5",
    f"3 2\n1 1\n0 {2 ** 70}", f"3 2\n0 {2 ** 70}\n1 1", f"3 1\n{-2 ** 70} 0", f"3 1\n0 {2 ** 63}",
    f"3 2\n0 1\n{2 ** 70} {2 ** 70}",
]


def outcome(build):
    """build()'s value, or the message of the GraphInputError it raised."""
    try:
        return build()
    except GraphInputError as e:
        return str(e)


@st.composite
def pair_lists(draw):
    """n and a list of edges, each repeated any number of times in either orientation."""
    n = draw(st.integers(2, 10))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=20))
    if pairs:
        repeats = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()), max_size=20))
        pairs += [(v, u) if flip else (u, v) for (u, v), flip in repeats]
    return n, draw(st.permutations(pairs))


class TestCsrConstructor:
    """The CSR constructor against the per-vertex set constructor it replaced."""

    def test_slots_and_read_only_arrays(self):
        g = grid(2, 3)
        assert Graph.__slots__ == ("n", "indptr", "indices")
        assert g.indptr.dtype == g.indices.dtype == np.int64
        with pytest.raises(ValueError):
            g.indices[0] = 2
        with pytest.raises(ValueError):
            g.indptr[1] = 0

    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_generators_match_set_constructor(self, spec, monkeypatch):
        built = []

        def recording(n, edges):
            built.append((n, edges))
            return Graph(n, edges)

        monkeypatch.setattr(graphs, "Graph", recording)
        g = parse_generator_spec(spec, seed=3)
        monkeypatch.undo()
        assert built and all(isinstance(edges, np.ndarray) for _, edges in built)
        for n, edges in built:
            assert Graph(n, edges).adjacency == adjacency_sets(n, edges)
        family, _, params = spec.partition(":")
        if family != "gnp":
            n, edges = family_edges(family, *map(int, params.split(",")))
            assert g == Graph(n, edges) and g.adjacency == adjacency_sets(n, edges)

    @pytest.mark.parametrize("text", EDGE_FILES)
    def test_parser_matches_set_constructor(self, text):
        rows = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        n, pairs = int(rows[0][0]), [(int(u), int(v)) for u, v in rows[1:]]
        expected = outcome(lambda: adjacency_sets(n, pairs))
        assert outcome(lambda: parse_edge_list(text).adjacency) == expected
        assert outcome(lambda: Graph(n, iter(pairs)).adjacency) == expected

    @settings(max_examples=200, deadline=None)
    @given(pair_lists())
    def test_pair_lists_match_set_constructor(self, drawn):
        n, pairs = drawn
        g = Graph(n, pairs)
        adjacency = adjacency_sets(n, pairs)
        assert g.adjacency == adjacency
        assert list(g.edges()) == sorted({(min(e), max(e)) for e in pairs})
        assert [g.degree(v) for v in range(n)] == [len(nbrs) for nbrs in adjacency]
        assert g.m == sum(map(len, adjacency)) // 2
        as_array = Graph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
        assert as_array == g and hash(as_array) == hash(g)

    @settings(max_examples=200, deadline=None)
    @given(pair_lists(), st.data())
    def test_first_offending_pair_is_reported(self, drawn, data):
        n, pairs = drawn[0], list(drawn[1])
        index = st.one_of(st.integers(-2, n + 1), st.sampled_from([-(2 ** 70), 2 ** 63, 2 ** 70]))
        bad = st.one_of(st.tuples(index, index), index.map(lambda v: (v, v)))
        for pair in data.draw(st.lists(bad, min_size=1, max_size=3)):
            pairs.insert(data.draw(st.integers(0, len(pairs))), pair)
        expected = outcome(lambda: adjacency_sets(n, pairs))
        assert outcome(lambda: Graph(n, pairs).adjacency) == expected

    @pytest.mark.parametrize("n", [2 ** 32, 10 ** 21])
    def test_vertex_count_past_int64_keys_allocates_nothing(self, n):
        # the keys u n + v need n * n <= 2^63 - 1; 2^32 vertices would also
        # need a 32 GiB indptr, and 10^21 overflowed the key product
        tracemalloc.start()
        try:
            with pytest.raises(GraphInputError) as exc:
                Graph(n, [(0, 1)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == f"vertex count {n} is too large: n * n must fit int64"
        assert peak < 1 << 16

    def test_equality_and_hash(self):
        a, b = Graph(4, [(0, 1), (1, 2)]), Graph(4, np.array([[2, 1], [1, 0], [0, 1]]))
        assert a == b and hash(a) == hash(b)
        assert Graph(3, [(0, 1)]) != Graph(3, [(0, 2)]) != Graph(4, [(0, 2)])
        assert a != a.adjacency


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
