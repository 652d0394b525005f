import math
import random
import re
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest

from cmpoly.facet_family import (check_validity_hypothesis, facet_hypothesis,
                                 family_inequality, is_disconnected_pair, lambda_set)
from cmpoly.graph_core import (Graph, GraphError, ParseError, components, edge_parts,
                               format_graph, generate, is_biconnected_mask,
                               is_connected_induced, is_separator, line_distance, mask_bits,
                               parse_graph, reach_within)
from cmpoly.matchings import (enumerate_cm_sets, exists_cm_superset, incidence_vector,
                              is_connected_matching)
from cmpoly.msi import (Separator, lazy_cut_for_disconnected, minimal_separators, minimalize,
                        project_msi)

from conftest import mask_of, random_connected_graph, set_bfs_components, to_networkx


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


def line_graph_corpus():
    """Seeded graphs, kernel_corpus, and disconnected variants of the seeded
    graphs: every third edge dropped."""
    graphs = [random_connected_graph(seed) for seed in range(10)] + kernel_corpus()
    return graphs + [Graph(g.n, tuple(uv for i, uv in enumerate(g.edges) if i % 3))
                     for g in graphs[:10]]


class TestLineMasks:
    def test_closed_neighbourhood_in_networkx_line_graph(self):
        # Graph(0, ()) has no edge; Graph(7, ...) has isolated vertices 4 and 7
        graphs = line_graph_corpus() + [Graph(0, ()), Graph(7, ((1, 2), (2, 3), (5, 6)))]
        for g in graphs:
            L = nx.line_graph(to_networkx(g))
            ids = {uv: e for e, uv in enumerate(g.edges, start=1)}
            assert len(g.line_masks) == g.m + 1 and g.line_masks[0] == 0
            for e, uv in enumerate(g.edges, start=1):
                closed = [e] + [ids[tuple(sorted(h))] for h in L[uv]]
                assert g.line_masks[e] == mask_of(closed), (g, e)

    def test_disconnected_pair_is_line_distance_three(self, random_suite):
        for g in random_suite:
            for e1 in range(1, g.m + 1):
                for e2 in range(1, g.m + 1):
                    if e1 != e2:
                        assert (is_disconnected_pair(g, e1, e2)
                                == (line_distance(g, e1, e2) >= 3)), (e1, e2)


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
        for g in line_graph_corpus():
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


def parts_corpus():
    """300 seeded random graphs with n = 3-9 and m <= 14; every third one
    loses every third edge, so some are disconnected or have isolated
    vertices."""
    graphs = []
    for i in range(300):
        g = random_connected_graph(f"parts-{i}", n_lo=3, n_hi=9, max_extra=6, m_cap=14)
        if i % 3 == 2:
            g = Graph(g.n, tuple(uv for j, uv in enumerate(g.edges) if j % 3))
        graphs.append(g)
    return graphs


def reference_edge_parts(g):
    """The components, as sorted edge-id lists, of the graph on the edges
    whose pairs are at distance exactly 2 in networkx's line graph."""
    L = nx.line_graph(to_networkx(g))
    ids = {uv: e for e, uv in enumerate(g.edges, start=1)}
    links = nx.Graph()
    links.add_nodes_from(range(1, g.m + 1))
    for uv, dist in nx.all_pairs_shortest_path_length(L, cutoff=2):
        links.add_edges_from((ids[uv], ids[tuple(sorted(f))])
                             for f, d in dist.items() if d == 2)
    return sorted(sorted(c) for c in nx.connected_components(links))


def together_classes(g):
    """The classes of "lie together in some connected matching", as sorted
    edge-id lists: the components of the graph joining each pair of edges
    of each connected matching."""
    together = nx.Graph()
    together.add_nodes_from(range(1, g.m + 1))
    for M in enumerate_cm_sets(g):
        together.add_edges_from(zip(M, M[1:]))
    return sorted(sorted(c) for c in nx.connected_components(together))


class TestEdgeParts:
    @pytest.mark.parametrize("name,parts", [
        ("cycle:8", [[1, 3, 5, 7], [2, 4, 6, 8]]),
        ("cycle:7", [[1, 2, 3, 4, 5, 6, 7]]),
        ("path:6", [[1, 3, 5], [2, 4]]),
        ("complete:3", [[1], [2], [3]]),
        ("complete:4", [[1, 6], [2, 5], [3, 4]]),
        ("petersen", [list(range(1, 16))]),
    ])
    def test_named_graphs(self, name, parts):
        # an even cycle and a path split by the parity of the edge position;
        # a triangle has no two disjoint edges, K4's perfect matchings are
        # its parts
        assert [mask_bits(p) for p in edge_parts(generate(name))] == parts

    def test_no_edge_no_part(self):
        assert edge_parts(Graph(0, ())) == edge_parts(Graph(3, ())) == []

    def test_components_stay_inside_room(self):
        # bits 1 and 2 are linked, and so are 2 and 3; bit 3 is outside the
        # room, so 1-2 and 4 are components, and a bit with no neighbour is
        # one alone
        nbr = [0, 0b100, 0b1010, 0b100, 0]
        assert components(nbr, 0b10110) == [0b110, 0b10000]
        assert components(nbr, 0b11110) == [0b1110, 0b10000]
        assert components(nbr, 0) == []

    def test_parts_are_the_line_graph_distance_two_components(self):
        for g in parts_corpus():
            parts = edge_parts(g)
            assert [mask_bits(p) for p in parts] == reference_edge_parts(g), g
            assert sum(parts) == g.all_edges

    def test_every_connected_matching_lies_in_one_part(self):
        # the parts lemma, and its converse: the parts are exactly the
        # classes of "lie together in some connected matching"
        split = 0
        for g in parts_corpus():
            parts = edge_parts(g)
            for M in enumerate_cm_sets(g):
                mask = mask_of(M)
                assert sum(mask & ~p == 0 for p in parts) == (1 if M else len(parts)), (g, M)
            assert [mask_bits(p) for p in parts] == together_classes(g), g
            split += len(parts) > 1
        assert 50 <= split <= 250


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
                assert nbr[v] == mask_of(g.neighbors(v))

    def test_cache_is_not_state(self):
        # the mask tables take no part in equality or repr
        g, h = generate("j26"), generate("j26")
        g.neighbor_masks[1] = 0
        assert g == h and repr(g) == repr(h)

    def test_mask_round_trip(self):
        for S in (set(), {1}, {2, 5, 9}, set(range(1, 40))):
            mask = Graph(39, ()).vertex_mask(S)
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
                        assert reach_within(nbr, mask_of(S), 1 << v) == mask_of(comp)


def scan_edge_id(g, u, v):
    """Reference edge id: a scan of g.edges for the normalised key."""
    key = (min(u, v), max(u, v))
    return next((i for i, e in enumerate(g.edges, start=1) if e == key), None)


class TestMaskTables:
    def test_match_edge_scan(self):
        graphs = kernel_corpus() + [Graph(5, ((1, 2), (3, 4))), Graph(1, ()), Graph(0, ())]
        for g in graphs:
            assert g.endpoint_masks == [0] + [mask_of(e) for e in g.edges]
            assert g.all_vertices == mask_of(range(1, g.n + 1))
            assert g.all_edges == mask_of(range(1, g.m + 1))
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
        assert g.cover_mask([1, 4]) == mask_of({1, 2, 4, 5})
        for e in (0, 7, -1):
            with pytest.raises(GraphError, match=f"edge id {e} out of range"):
                g.cover_mask([1, e])


def biconnected(g, S):
    return is_biconnected_mask(g, mask_of(S))


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


# Every public entry that takes caller-given ids, each with the id under test
# as x, on cycle:8 (n = m = 8): the kind says how a bad x must be refused,
# through Graph.edge_mask ("edge") or Graph.vertex_mask ("vertex"), or read
# as no edge (None).  Each site takes x = 2.
C8 = generate("cycle:8")
ID_SITES = {
    "Graph.cover_mask": ("edge", lambda x: C8.cover_mask([1, x])),
    "Graph.weight": ("edge", lambda x: C8.weight(x)),
    "Graph.neighbors": ("vertex", lambda x: C8.neighbors(x)),
    "Graph.incident_edges": ("vertex", lambda x: C8.incident_edges(x)),
    "Graph.edge_id": (None, lambda x: C8.edge_id(1, x)),
    "Graph.edge_id first": (None, lambda x: C8.edge_id(x, 3)),
    "line_distance": ("edge", lambda x: line_distance(C8, 1, x)),
    "is_connected_induced": ("vertex", lambda x: is_connected_induced(C8, [1, x])),
    "is_separator a": ("vertex", lambda x: is_separator(C8, x, 6, (4, 8))),
    "is_separator C": ("vertex", lambda x: is_separator(C8, 1, 5, (3, x))),
    "is_connected_matching": ("edge", lambda x: is_connected_matching(C8, [5, x])),
    "incidence_vector": ("edge", lambda x: incidence_vector(C8, (5, x))),
    "exists_cm_superset R": ("edge", lambda x: exists_cm_superset(C8, [5, x])),
    "exists_cm_superset forbidden": ("edge", lambda x: exists_cm_superset(C8, [5], [x])),
    "lambda_set": ("edge", lambda x: lambda_set(C8, 5, x)),
    "is_disconnected_pair": ("edge", lambda x: is_disconnected_pair(C8, 5, x)),
    "family_inequality": ("edge", lambda x: family_inequality(C8, 5, x)),
    "check_validity_hypothesis": ("edge", lambda x: check_validity_hypothesis(C8, 5, x)),
    "facet_hypothesis pair": ("edge", lambda x: facet_hypothesis(C8, (5, x), ())),
    "facet_hypothesis lambda": ("edge", lambda x: facet_hypothesis(C8, (4, 8), (x, 6))),
    "lazy_cut_for_disconnected": ("edge", lambda x: lazy_cut_for_disconnected(C8, (5, x))),
    "minimal_separators": ("vertex", lambda x: minimal_separators(C8, x, 6)),
    "minimalize": ("vertex", lambda x: minimalize(C8, Separator(x, 6, (4, 8)))),
    "project_msi": ("vertex", lambda x: project_msi(C8, Separator(x, 6, (4, 8)))),
}


@pytest.mark.parametrize("bad", [0, 9, -1, True, 2.0, Fraction(2), "1"], ids=repr)
@pytest.mark.parametrize("site", ID_SITES)
def test_id_sites_refuse_bad_ids(site, bad):
    kind, f = ID_SITES[site]
    f(2)
    if kind is None:
        assert f(bad) is None
        return
    message = {"edge": f"edge id {bad!r} out of range 1..8",
               "vertex": f"vertex {bad!r} out of range"}[kind]
    with pytest.raises(GraphError, match=re.escape(message)):
        f(bad)
