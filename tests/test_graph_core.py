import math
import random
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest

from cmpoly.graph_core import (Graph, GraphError, ParseError, format_graph, generate,
                               is_biconnected_mask, is_connected_induced, is_separator,
                               line_distance, parse_graph, reach_within, vertex_mask)

from conftest import random_connected_graph, set_bfs_components, to_networkx


class TestParse:
    def test_p3(self):
        g = parse_graph("p 3 2\ne 1 2\ne 2 3\n")
        assert g.n == 3 and g.m == 2
        assert g.edges == ((1, 2), (2, 3))
        assert g.weights is None

    def test_weighted_edge(self):
        g = parse_graph("p 2 1\ne 1 2 w 5\n")
        assert g.m == 1
        assert g.weight(1) == Fraction(5)

    def test_rational_weight(self):
        g = parse_graph("p 2 1\ne 1 2 w 3/7\n")
        assert g.weight(1) == Fraction(3, 7)

    @pytest.mark.parametrize("weights", [(5, 7), None])
    def test_weight_edge_id_range_checked(self, weights):
        g = Graph(3, ((1, 2), (2, 3)), weights)
        assert [g.weight(e) for e in (1, 2)] == ([5, 7] if weights else [1, 1])
        for e in (0, -1, g.m + 1):
            with pytest.raises(GraphError, match="out of range"):
                g.weight(e)

    def test_loop_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("p 2 1\ne 1 1\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_graph("p 3 2\ne 1 2\ne 2 1\n")

    def test_duplicate_edge_names_its_line(self):
        with pytest.raises(ParseError, match=r"line 4: duplicate edge \(3,2\)"):
            parse_graph("p 3 3\ne 1 2\ne 2 3\ne 3 2\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("p 2 1\ne 1 5\n")

    def test_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_graph("p 3 2\ne 1 2\n")

    @pytest.mark.parametrize("text,message", [
        ("p 2 1\np 2 1\ne 1 2\n", "line 2: duplicate header"),
        ("p 2\n", "line 1: header must be 'p <n> <m>'"),
        ("p two 1\n", "line 1: non-integer header field"),
        ("e 1 2\np 2 1\n", "line 1: edge before header"),
        ("p 3 1\ne 1 2 3\n", "line 2: bad edge record"),
        ("p 2 1\ne 1 x\n", "line 2: non-integer endpoint"),
        ("p 2 1\ne 1 2 w 1/0\n", "line 2: bad weight '1/0'"),
        ("p 2 1\nq 1 2\n", "line 2: unknown record 'q'"),
        ("# only a comment\n", "missing 'p' header"),
    ], ids=["duplicate-header", "short-header", "non-integer-header", "edge-before-header",
            "long-edge", "non-integer-endpoint", "zero-denominator-weight", "unknown-record",
            "no-header"])
    def test_bad_file_names_its_fault(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_graph(text)
        assert str(exc.value) == message

    def test_comments_and_blanks(self):
        g = parse_graph("# a comment\np 2 1\n\ne 1 2  # trailing\n")
        assert g.m == 1

    def test_round_trip(self):
        for name in ["path:4", "cycle:5", "j26"]:
            g = generate(name)
            assert parse_graph(format_graph(g)).edges == g.edges

    def test_weighted_round_trip(self):
        g = Graph(3, ((1, 2), (2, 3)), (Fraction(1, 3), Fraction(-2)))
        assert parse_graph(format_graph(g)).weights == g.weights


class TestGenerate:
    def test_cycle6(self):
        g = generate("cycle:6")
        assert g.n == 6 and g.m == 6
        assert all(len(g.incident_edges(v)) == 2 for v in range(1, 7))

    def test_j26(self):
        g = generate("j26")
        assert g.n == 8 and g.m == 14
        degs = sorted(len(g.incident_edges(v)) for v in range(1, 9))
        assert degs == [3, 3, 3, 3, 4, 4, 4, 4]

    def test_cube3(self):
        g = generate("cube:3")
        assert g.n == 8 and g.m == 12

    def test_petersen(self):
        g = generate("petersen")
        assert g.n == 10 and g.m == 15
        assert all(len(g.incident_edges(v)) == 3 for v in range(1, 11))

    def test_deterministic(self):
        assert generate("cube:4").edges == generate("cube:4").edges

    def test_unknown_name(self):
        with pytest.raises(GraphError):
            generate("moebius:5")
        with pytest.raises(GraphError, match="generator 'cycle:x' needs an integer argument"):
            generate("cycle:x")

    def test_below_minimum(self):
        with pytest.raises(GraphError):
            generate("cycle:2")


class TestLineDistance:
    def test_same_edge(self):
        g = generate("path:4")
        assert line_distance(g, 1, 1) == 0

    def test_adjacent(self):
        g = generate("path:4")
        assert line_distance(g, 1, 2) == 1

    def test_p6_ends(self):
        g = generate("path:6")
        assert line_distance(g, 1, 5) == 4

    def test_disconnected(self):
        g = Graph(4, ((1, 2), (3, 4)))
        assert line_distance(g, 1, 2) == math.inf

    def test_matches_networkx_line_graph(self):
        graphs = [random_connected_graph(seed) for seed in range(10)] + kernel_corpus()
        # disconnected inputs: every third edge of a connected graph dropped
        graphs += [Graph(g.n, tuple(uv for i, uv in enumerate(g.edges) if i % 3))
                   for g in graphs[:10]]
        for g in graphs:
            L = nx.line_graph(to_networkx(g))
            dist = dict(nx.all_pairs_shortest_path_length(L))
            for e in range(1, g.m + 1):
                for f in range(1, g.m + 1):
                    expect = dist[g.edges[e - 1]].get(g.edges[f - 1], math.inf)
                    assert line_distance(g, e, f) == expect

    def test_metric_properties(self):
        for name in ["cycle:5", "cube:3", "j26"]:
            g = generate(name)
            d = {(e, f): line_distance(g, e, f)
                 for e in range(1, g.m + 1) for f in range(1, g.m + 1)}
            for e in range(1, g.m + 1):
                for f in range(1, g.m + 1):
                    assert d[e, f] == d[f, e]
                    for h in range(1, g.m + 1):
                        assert d[e, f] <= d[e, h] + d[h, f]


class TestConnectedInduced:
    def test_empty_and_singleton(self):
        g = generate("cycle:6")
        assert is_connected_induced(g, set())
        assert is_connected_induced(g, {3})

    def test_cycle_arc(self):
        g = generate("cycle:6")
        assert is_connected_induced(g, {1, 2, 3})
        assert not is_connected_induced(g, {1, 2, 4, 5})

    def test_matches_networkx(self):
        for seed in range(10):
            g = random_connected_graph(seed)
            G = to_networkx(g)
            for size in range(2, min(g.n, 5) + 1):
                for S in combinations(range(1, g.n + 1), size):
                    assert is_connected_induced(g, S) == nx.is_connected(G.subgraph(S))

    def test_out_of_range_vertex_rejected(self):
        g = generate("cycle:6")
        for S in ({0}, {1, 7}, {-1, 2}, {2, 3, 4, 99}):
            bad = next(v for v in S if not 1 <= v <= 6)
            with pytest.raises(GraphError, match=f"vertex {bad} out of range"):
                is_connected_induced(g, S)


def kernel_corpus():
    named = [generate(n) for n in ("petersen", "j26", "cube:3", "cube:4", "path:9")]
    drawn = [random_connected_graph(seed, n_lo=4, n_hi=14, max_extra=10, m_cap=30)
             for seed in range(40)]
    return named + drawn


class TestMaskKernel:
    def test_neighbor_masks_match_adjacency(self):
        for g in kernel_corpus():
            nbr = g.neighbor_masks
            assert nbr[0] == 0
            for v in range(1, g.n + 1):
                assert nbr[v] == vertex_mask(g.neighbors(v))

    def test_cache_is_not_state(self):
        # the mask tables take no part in equality or repr
        g, h = generate("j26"), generate("j26")
        g.neighbor_masks[1] = 0
        assert g == h and repr(g) == repr(h)

    def test_mask_round_trip(self):
        for S in (set(), {1}, {2, 5, 9}, set(range(1, 40))):
            mask = vertex_mask(S)
            assert {v for v in range(mask.bit_length()) if mask >> v & 1} == S

    def test_matches_set_bfs_on_random_subsets(self):
        rng = random.Random(7)
        for g in kernel_corpus():
            nbr = g.neighbor_masks
            for _ in range(25):
                p = rng.random()
                S = {v for v in range(1, g.n + 1) if rng.random() < p}
                expect = set_bfs_components(g, S)
                assert is_connected_induced(g, S) == (len(expect) <= 1)
                for comp in expect:
                    for v in comp:
                        assert reach_within(nbr, vertex_mask(S), 1 << v) == vertex_mask(comp)


def scan_edge_id(g, u, v):
    """Reference edge id: a scan of g.edges for the normalised key."""
    key = (min(u, v), max(u, v))
    return next((i for i, e in enumerate(g.edges, start=1) if e == key), None)


class TestMaskTables:
    def test_match_edge_scan(self):
        graphs = kernel_corpus() + [Graph(5, ((1, 2), (3, 4))), Graph(1, ()), Graph(0, ())]
        for g in graphs:
            assert g.endpoint_masks == [0] + [vertex_mask(e) for e in g.edges]
            assert g.all_vertices == vertex_mask(range(1, g.n + 1))
            assert g.all_edges == vertex_mask(range(1, g.m + 1))
            for v in range(1, g.n + 1):
                at_v = [i for i, e in enumerate(g.edges, start=1) if v in e]
                assert g.incident_edges(v) == at_v
                assert g.neighbors(v) == sorted(u for i in at_v for u in g.edges[i - 1]
                                                if u != v)
            for u in range(-1, g.n + 2):
                for v in range(-1, g.n + 2):
                    assert g.edge_id(u, v) == scan_edge_id(g, u, v), (u, v)

    def test_out_of_range_vertex(self):
        g = generate("cycle:6")
        for v in (0, 7, -1):
            with pytest.raises(GraphError, match=f"vertex {v} out of range"):
                g.neighbors(v)
            with pytest.raises(GraphError, match=f"vertex {v} out of range"):
                g.incident_edges(v)
            assert g.edge_id(v, 1) is None and g.edge_id(6, v) is None
        assert all(g.edge_id(v, v) is None for v in range(1, 7))

    def test_cover_mask_checks_edge_ids(self):
        g = generate("cycle:6")
        assert g.cover_mask([1, 4]) == vertex_mask({1, 2, 4, 5})
        for e in (0, 7, -1):
            with pytest.raises(GraphError, match=f"edge id {e} out of range"):
                g.cover_mask([1, e])


def biconnected(g, S):
    return is_biconnected_mask(g, vertex_mask(S))


class TestBiconnectedInduced:
    def test_triangle(self):
        g = generate("complete:3")
        assert biconnected(g, {1, 2, 3})

    def test_path3_middle_cut(self):
        g = generate("path:3")
        assert not biconnected(g, {1, 2, 3})

    def test_cycle4(self):
        g = generate("cycle:4")
        assert biconnected(g, {1, 2, 3, 4})

    def test_matches_networkx(self):
        for seed in range(10):
            g = random_connected_graph(seed)
            G = to_networkx(g)
            for size in range(3, min(g.n, 6) + 1):
                for S in combinations(range(1, g.n + 1), size):
                    assert biconnected(g, S) == nx.is_biconnected(G.subgraph(S))

    def test_implies_connected(self):
        for seed in range(10):
            g = random_connected_graph(seed)
            for size in range(3, min(g.n, 5) + 1):
                for S in combinations(range(1, g.n + 1), size):
                    if biconnected(g, S):
                        assert is_connected_induced(g, S)


class TestSeparator:
    def test_cycle6(self):
        g = generate("cycle:6")
        assert is_separator(g, 1, 4, {2, 6})

    def test_all_others(self):
        g = generate("cycle:6")
        assert is_separator(g, 1, 4, {2, 3, 5, 6})

    def test_empty_c_connected(self):
        g = generate("cycle:6")
        assert not is_separator(g, 1, 4, set())

    def test_adjacent_pair_rejected(self):
        g = generate("cycle:6")
        with pytest.raises(GraphError, match="adjacent"):
            is_separator(g, 1, 2, {3})

    def test_endpoint_in_c_rejected(self):
        g = generate("cycle:6")
        with pytest.raises(GraphError, match="endpoints"):
            is_separator(g, 1, 4, {1, 3})

    def test_equal_endpoints_rejected(self):
        g = generate("cycle:6")
        with pytest.raises(GraphError, match="differ"):
            is_separator(g, 2, 2, {3})

    def test_out_of_range_vertex_rejected(self):
        g = generate("cycle:6")
        for a, b, C in ((1, 99, {2, 6}), (99, 1, {2, 6}), (0, 4, {2, 6}),
                        (1, 4, {2, 6, 7}), (1, 4, {-1, 2, 6})):
            bad = next(v for v in (a, b, *C) if not 1 <= v <= 6)
            with pytest.raises(GraphError, match=f"vertex {bad} out of range"):
                is_separator(g, a, b, C)

    def test_matches_set_bfs(self, random_suite):
        rng = random.Random(11)
        for g in random_suite:
            for a, b in combinations(range(1, g.n + 1), 2):
                if b in g.neighbors(a):
                    continue
                C = {v for v in range(1, g.n + 1) if v not in (a, b) and rng.random() < 0.4}
                comps = set_bfs_components(g, set(range(1, g.n + 1)) - C)
                side_a = next(c for c in comps if a in c)
                assert is_separator(g, a, b, C) == (b not in side_a)

    def test_monotone_in_c(self):
        g = generate("cycle:6")
        base = {2, 6}
        assert is_separator(g, 1, 4, base)
        for extra in ({3}, {5}, {3, 5}):
            assert is_separator(g, 1, 4, base | extra)


class TestGraphInvariants:
    def test_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, ((1, 1),))

    def test_duplicate_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, ((1, 2), (2, 1)))

    def test_negative_vertex_count_rejected(self):
        for n in (-1, -5):
            with pytest.raises(GraphError, match=f"negative vertex count {n}"):
                Graph(n, ())
        # parse_graph still names the header line
        with pytest.raises(ParseError, match="line 1: negative header field"):
            parse_graph("p -1 0\n")

    def test_weight_length_checked(self):
        with pytest.raises(GraphError):
            Graph(3, ((1, 2), (2, 3)), (Fraction(1),))

    @pytest.mark.parametrize("n,edges,message", [
        (3, ((1.0, 2),), r"non-integer endpoint in edge \(1.0,2\)"),
        (3, ((Fraction(1), 2),), r"non-integer endpoint in edge \(Fraction\(1, 1\),2\)"),
        (3, ((True, 2), (2, 3)), r"non-integer endpoint in edge \(True,2\)"),
        (3.0, ((1, 2),), "non-integer vertex count 3.0"),
        (True, (), "non-integer vertex count True"),
    ], ids=["float-endpoint", "fraction-endpoint", "bool-endpoint", "float-count",
            "bool-count"])
    def test_non_int_rejected(self, n, edges, message):
        # a float or Fraction cannot index the mask tables, and a bool would
        # be written as `e True 2`, which parse_graph refuses
        with pytest.raises(GraphError, match=message):
            Graph(n, edges)
