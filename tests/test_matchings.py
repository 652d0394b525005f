import random
from fractions import Fraction
from itertools import chain, combinations
from pathlib import Path

import networkx as nx
import pytest

from cmpoly import graph_core, matchings
from cmpoly.facet_family import is_disconnected_pair, lambda_set
from cmpoly.graph_core import (Graph, GraphError, generate, is_connected_mask, parse_graph,
                               reach_within)
from cmpoly.matchings import (SizeLimitExceeded, brute_force_max_weight_cm,
                              enumerate_cm_sets, enumerate_connected_matchings,
                              exists_cm_superset, format_vrep, incidence_vector,
                              is_connected_matching, is_matching)

from conftest import random_connected_graph, set_bfs_components, to_networkx


def oracle_cm_sets(g):
    """Independent enumeration: all edge subsets, networkx predicates."""
    G = to_networkx(g)
    out = []
    all_edges = range(1, g.m + 1)
    for M in chain.from_iterable(combinations(all_edges, r) for r in range(g.m + 1)):
        verts = [v for e in M for v in g.edges[e - 1]]
        if len(verts) != len(set(verts)):
            continue
        if len(verts) > 2 and not nx.is_connected(G.subgraph(verts)):
            continue
        out.append(M)
    return sorted(out)


def reference_enumerate_cm_sets(g):
    """The backtracker the growth search replaced: every matching in edge-id
    order, tested for connectivity when emitted."""
    cover = g.endpoint_masks
    out = []

    def rec(current, covered, start):
        if is_connected_mask(g, covered):
            out.append(tuple(current))
        for e in range(start, g.m + 1):
            if covered & cover[e]:
                continue
            current.append(e)
            rec(current, covered | cover[e], e + 1)
            current.pop()

    rec([], 0, 1)
    return out


def reference_exists_cm_superset(g, R, forbidden=()):
    """The index-order search the growth search replaced: backtracks over
    the free edges in id order, with the same reachability cut."""
    R = sorted(set(R))
    if not is_matching(g, R):
        raise GraphError("R is not a matching")
    nbr = g.neighbor_masks
    cover = g.endpoint_masks
    base = g.cover_mask(R)
    forbidden = set(forbidden)
    free = [cover[e] for e in range(1, g.m + 1)
            if e not in forbidden and not cover[e] & base]

    def rec(covered, idx):
        low = covered & -covered
        if reach_within(nbr, covered, low) == covered:
            return True
        options = [k for k in range(idx, len(free)) if not covered & free[k]]
        room = covered
        for k in options:
            room |= free[k]
        if reach_within(nbr, room, low) & covered != covered:
            return False
        return any(rec(covered | free[k], k + 1) for k in options)

    return rec(base, 0)


class TestPredicate:
    def test_empty(self):
        assert is_connected_matching(generate("cycle:6"), [])

    def test_single_edge(self):
        g = generate("cycle:6")
        for e in range(1, 7):
            assert is_connected_matching(g, [e])

    def test_cycle6_pairs(self):
        g = generate("cycle:6")
        assert not is_connected_matching(g, [1, 4])
        assert is_connected_matching(g, [1, 3])

    def test_non_matching_is_false(self):
        assert not is_connected_matching(generate("path:4"), [1, 2])

    def test_matches_set_based_reference(self, random_suite):
        # random edge tuples, drawn with replacement so that some repeat an edge
        rng = random.Random(5)
        repeats = 0
        for g in random_suite:
            for _ in range(30):
                M = tuple(rng.randint(1, g.m) for _ in range(rng.randint(0, 4)))
                repeats += len(set(M)) < len(M)
                verts = [v for e in M for v in g.edges[e - 1]]
                matching = len(verts) == len(set(verts))
                assert is_matching(g, M) == matching, M
                connected = matching and len(set_bfs_components(g, verts)) <= 1
                assert is_connected_matching(g, M) == connected, M
        assert repeats

    def test_out_of_range_edge_rejected(self):
        g = generate("cycle:6")
        for M in ([0], [1, 7], [-1], [3, 3, -1]):
            with pytest.raises(GraphError, match="out of range"):
                is_matching(g, M)
            with pytest.raises(GraphError, match="out of range"):
                is_connected_matching(g, M)

    def test_incidence_vector_rejects_out_of_range_ids(self):
        # x[e - 1] at e = 0 would mark the last edge
        g = generate("path:3")
        for M in ([0], [3], [-1], [1, 5]):
            with pytest.raises(GraphError, match="out of range"):
                incidence_vector(g, M)
        assert incidence_vector(g, [2]) == (0, 1)


class TestEnumerate:
    def test_path3(self):
        g = generate("path:3")
        assert enumerate_cm_sets(g) == [(), (1,), (2,)]

    def test_complete3(self):
        assert enumerate_cm_sets(generate("complete:3")) == [(), (1,), (2,), (3,)]

    def test_path4(self):
        assert enumerate_cm_sets(generate("path:4")) == [(), (1,), (1, 3), (2,), (3,)]

    def test_vectors_match_sets(self):
        g = generate("cycle:5")
        sets = enumerate_cm_sets(g)
        vecs = enumerate_connected_matchings(g)
        assert vecs == [incidence_vector(g, M) for M in sets]

    def test_includes_zero_and_units(self):
        for seed in range(5):
            g = random_connected_graph(seed)
            vecs = set(enumerate_connected_matchings(g))
            assert tuple([0] * g.m) in vecs
            for e in range(g.m):
                unit = tuple(int(i == e) for i in range(g.m))
                assert unit in vecs

    def test_closure_against_oracle(self):
        for name in ["path:5", "cycle:6", "complete:4", "cube:3"]:
            g = generate(name)
            assert enumerate_cm_sets(g) == oracle_cm_sets(g)
        for seed in range(15):
            g = random_connected_graph(seed)
            assert enumerate_cm_sets(g) == oracle_cm_sets(g)

    def test_star_count_is_m_plus_1(self):
        # no two disjoint edges in a star
        star = Graph(5, ((1, 2), (1, 3), (1, 4), (1, 5)))
        assert len(enumerate_cm_sets(star)) == star.m + 1

    def test_lexicographic_order(self):
        for seed in range(5):
            g = random_connected_graph(seed)
            sets = enumerate_cm_sets(g)
            assert sets == sorted(sets)

    def test_size_guard(self):
        with pytest.raises(SizeLimitExceeded):
            enumerate_cm_sets(generate("cycle:6"), limit=3)

    @pytest.mark.parametrize("name", ["cycle:6", "j26", "petersen"])
    def test_size_limit_boundary(self, name):
        g = generate(name)
        count = len(reference_enumerate_cm_sets(g))
        with pytest.raises(SizeLimitExceeded):
            enumerate_cm_sets(g, limit=count - 1)
        assert len(enumerate_cm_sets(g, limit=count)) == count

    def test_negative_limit_rejected(self):
        with pytest.raises(GraphError, match="got -3"):
            enumerate_cm_sets(generate("cycle:6"), limit=-3)
        # the empty matching always exists, so a zero limit is exceeded
        with pytest.raises(SizeLimitExceeded):
            enumerate_cm_sets(generate("cycle:6"), limit=0)

    def test_matches_reference(self, random_suite):
        for g in random_suite:
            assert enumerate_cm_sets(g) == reference_enumerate_cm_sets(g)
        for name in ["petersen", "j26", "cube:3", "cube:4", "complete:7", "cycle:20",
                     "path:16"]:
            g = generate(name)
            assert enumerate_cm_sets(g) == reference_enumerate_cm_sets(g), name

    def test_work_follows_output(self, monkeypatch):
        # the backtracker ran one BFS per matching: 103,682 on cycle:24
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return reach_within(*args)

        monkeypatch.setattr(graph_core, "reach_within", counted)
        monkeypatch.setattr(matchings, "reach_within", counted)
        assert len(enumerate_cm_sets(generate("cycle:24"))) == 267
        assert calls < 1000


class TestSuperset:
    def test_single_edge(self):
        g = generate("cycle:6")
        assert exists_cm_superset(g, [2])

    def test_cycle6_opposite(self):
        assert not exists_cm_superset(generate("cycle:6"), [1, 4])

    def test_path4(self):
        assert exists_cm_superset(generate("path:4"), [1, 3])

    def test_non_matching_rejected(self):
        with pytest.raises(GraphError):
            exists_cm_superset(generate("path:4"), [1, 2])

    def test_forbidden_id_out_of_range_rejected(self):
        g = generate("cycle:6")
        for forbidden in ([99], [-1], [0], [2, 7]):
            with pytest.raises(GraphError, match="out of range"):
                exists_cm_superset(g, [1], forbidden=forbidden)

    def test_matches_enumeration(self):
        for seed in range(10):
            g = random_connected_graph(seed)
            cms = reference_enumerate_cm_sets(g)
            for R in [(1,), (1, 3), (2, 4)]:
                if max(R) > g.m:
                    continue
                verts = [v for e in R for v in g.edges[e - 1]]
                if len(verts) != len(set(verts)):
                    continue
                expect = any(set(R) <= set(M) for M in cms)
                assert exists_cm_superset(g, R) == expect

    @pytest.mark.parametrize("name", ["petersen", "j26", "cube:3"])
    def test_named_graphs_match_enumeration(self, name):
        outcomes = superset_outcomes(generate(name), random.Random(name))
        assert outcomes == {True, False}

    def test_random_graphs_match_enumeration(self):
        # sparse draws have the cut-off free edges that a too-eager prune misjudges
        for seed in range(60):
            superset_outcomes(random_connected_graph(seed, 7, 12, 4, 15), random.Random(seed))
        for seed in range(25):
            superset_outcomes(random_connected_graph(seed, 6, 10, 6, 14), random.Random(seed))


class TestSupersetAgainstReference:
    def test_random_suite_random_forbidden(self, random_suite):
        rng = random.Random(11)
        outcomes = set()
        for g in random_suite:
            for _ in range(12):
                R = rng.sample(range(1, g.m + 1), rng.randint(1, min(3, g.m)))
                if not is_matching(g, R):
                    continue
                forbidden = [f for f in range(1, g.m + 1) if rng.random() < 0.3]
                got = exists_cm_superset(g, R, forbidden)
                assert got == reference_exists_cm_superset(g, R, forbidden), (g, R, forbidden)
                outcomes.add(got)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("name", ["cycle:24", "path:30", "petersen", "j26", "cube:4",
                                      "rand30m54.g"])
    def test_family_pairs_of_named_graphs(self, name):
        # rand30m54.g is perfbench's random_connected_graph(rng, 30, 54) for
        # rng = random.Random(7); the searches for its pairs (4, 49) and
        # (5, 44), with lambda forbidden, reach one disconnected cover twice
        if name.endswith(".g"):
            g = parse_graph((Path(__file__).parent / "golden" / name).read_text())
        else:
            g = generate(name)
        pairs = 0
        for e1 in range(1, g.m + 1):
            for e2 in range(e1 + 1, g.m + 1):
                if not is_disconnected_pair(g, e1, e2):
                    continue
                lam = lambda_set(g, e1, e2)
                assert (exists_cm_superset(g, [e1, e2], lam)
                        == reference_exists_cm_superset(g, [e1, e2], lam)), (e1, e2)
                pairs += 1
        assert pairs

    def test_repeated_id_is_one_edge(self):
        for g in (generate("cycle:6"), generate("path:4"), generate("petersen")):
            for forbidden in ((), (1,), (1, 3)):
                assert (exists_cm_superset(g, [2, 2], forbidden)
                        == exists_cm_superset(g, [2], forbidden))
        assert not exists_cm_superset(generate("cycle:6"), [1, 4, 4])


def superset_outcomes(g, rng):
    """Check exists_cm_superset on every disconnected pair R, with forbidden
    set to R's lambda set, to no edges and to a drawn edge set, against a
    filter over all connected matchings: R inside M, no forbidden edge in
    M - R.  Returns the set of answers seen."""
    cms = [set(M) for M in reference_enumerate_cm_sets(g)]
    outcomes = set()
    for e1 in range(1, g.m + 1):
        for e2 in range(e1 + 1, g.m + 1):
            if not is_disconnected_pair(g, e1, e2):
                continue
            R = {e1, e2}
            drawn = [f for f in range(1, g.m + 1) if rng.random() < 0.3]
            for forbidden in (lambda_set(g, e1, e2), (), drawn):
                expect = any(R <= M and not (M - R) & set(forbidden) for M in cms)
                assert exists_cm_superset(g, R, forbidden) == expect, (g, R, forbidden)
                outcomes.add(expect)
    return outcomes


class TestBruteForce:
    def test_all_negative(self):
        g = generate("cycle:6")
        assert brute_force_max_weight_cm(g, [-1] * 6) == (0, ())

    def test_single_edge(self):
        g = Graph(2, ((1, 2),))
        assert brute_force_max_weight_cm(g, [5]) == (5, (1,))

    def test_cycle6_disconnected_pair(self):
        val, M = brute_force_max_weight_cm(generate("cycle:6"), [1, 0, 0, 1, 0, 0])
        assert val == 1

    def test_tie_break_lexicographic(self):
        g = generate("path:4")
        val, M = brute_force_max_weight_cm(g, [1, 1, 1])
        assert val == 2 and M == (1, 3)
        val, M = brute_force_max_weight_cm(g, [0, 0, 0])
        assert val == 0 and M == ()

    def test_equals_enumeration_max(self):
        for seed in range(30):
            g = random_connected_graph(seed)
            rng = random.Random(seed + 1000)
            w = [Fraction(rng.randint(-10, 10), rng.randint(1, 3)) for _ in range(g.m)]
            val, M = brute_force_max_weight_cm(g, w)
            best = max(sum((w[e - 1] for e in S), Fraction(0))
                       for S in reference_enumerate_cm_sets(g))
            assert val == best
            assert is_connected_matching(g, M)
            assert sum((w[e - 1] for e in M), Fraction(0)) == val

    def test_weight_length_checked(self):
        with pytest.raises(GraphError):
            brute_force_max_weight_cm(generate("path:4"), [1, 2])


def test_vrep_format():
    g = generate("path:3")
    text = format_vrep(enumerate_connected_matchings(g), g.m)
    assert text == "m 2 k 3\n0 0\n1 0\n0 1\n"
