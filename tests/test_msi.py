from fractions import Fraction

import pytest

from cmpoly.graph_core import Graph, GraphError, generate
from cmpoly.inequality import Inequality
from cmpoly.matchings import enumerate_cm_sets, enumerate_connected_matchings, incidence_vector
from cmpoly.msi import (Separator, _min_vertex_cut, dominates, is_minimal_separator,
                        lazy_cut_for_disconnected, minimal_separators_brute,
                        minimalize, project_msi, separate_fractional)

from conftest import assert_primitive_int_row, random_connected_graph


class TestMinimalSeparator:
    def test_c6(self):
        g = generate("cycle:6")
        assert is_minimal_separator(g, Separator(1, 4, (2, 6)))

    def test_extra_vertex_not_minimal(self):
        g = generate("path:5")
        assert is_minimal_separator(g, Separator(1, 5, (3,)))
        assert not is_minimal_separator(g, Separator(1, 5, (2, 4)))

    def test_tree_neighborhood(self):
        # star with a pendant path: N(a) is minimal for any far vertex
        g = Graph(5, ((1, 2), (1, 3), (3, 4), (4, 5)))
        assert is_minimal_separator(g, Separator(1, 5, (3,)))

    def test_invalid_separator_rejected(self):
        g = generate("cycle:6")
        with pytest.raises(GraphError):
            is_minimal_separator(g, Separator(1, 4, (2,)))

    def test_minimalize(self):
        g = generate("cycle:6")
        s = minimalize(g, Separator(1, 4, (2, 3, 6)))
        assert set(s.C) in ({2, 6}, {3, 6})
        assert is_minimal_separator(g, s)


class TestProjectMsi:
    def test_c6_hand_aggregation(self):
        g = generate("cycle:6")
        q = project_msi(g, Separator(2, 5, (3, 6)))
        assert q.canonical() == ((1, 0, -1, 1, 0, -1), 1)

    def test_rows_are_primitive_int(self):
        for seed in range(10):
            g = random_connected_graph(seed)
            for a in range(1, g.n + 1):
                for b in range(a + 1, g.n + 1):
                    if g.edge_id(a, b) is None:
                        for s in minimal_separators_brute(g, a, b, max_size=2):
                            assert_primitive_int_row(project_msi(g, s))

    def test_rejects_non_separator(self):
        g = generate("cycle:6")
        with pytest.raises(GraphError):
            project_msi(g, Separator(1, 4, ()))

    def test_validity_on_vertices(self):
        for seed in range(15):
            g = random_connected_graph(seed)
            vecs = enumerate_connected_matchings(g)
            for a in range(1, g.n + 1):
                for b in range(a + 1, g.n + 1):
                    if g.edge_id(a, b) is not None:
                        continue
                    for s in minimal_separators_brute(g, a, b, max_size=3):
                        q = project_msi(g, s)
                        assert all(q.evaluate(x) <= q.rhs for x in vecs)


class TestDominates:
    def test_reflexive(self):
        q = Inequality([1, -1, 0], 1)
        assert dominates(q, q)

    def test_family_dominates_projected_msi(self):
        # the lifting pattern against its aggregated counterpart
        p = Inequality([0, 1, 1, -1, -1, 0], 1)
        q = Inequality([0, 1, 1, -2, -1, -1], 1)
        assert dominates(p, q)
        assert not dominates(q, p)

    def test_smaller_support_does_not_dominate(self):
        p = Inequality([1, 0], 1)
        q = Inequality([1, 1], 1)
        assert not dominates(p, q)

    def test_scaling(self):
        p = Inequality([2, 2], 2)
        q = Inequality([1, 1], 1)
        assert dominates(p, q) and dominates(q, p)

    def test_exact_ratio_on_huge_rhs(self):
        # (10**20 - 1) / 10**20 is 1.0 in floating point
        p = Inequality([1], 10**20)
        q = Inequality([1], 10**20 - 1)
        assert not dominates(p, q)
        assert dominates(q, p)

    def test_dimension_mismatch(self):
        with pytest.raises(GraphError):
            dominates(Inequality([1], 1), Inequality([1, 1], 1))


class TestSeparateFractional:
    def test_cm_vertex_gives_nothing(self):
        g = generate("cycle:6")
        for M in enumerate_cm_sets(g):
            assert separate_fractional(g, incidence_vector(g, M)) == []

    def test_zero_gives_nothing(self):
        g = generate("cycle:6")
        assert separate_fractional(g, [0] * 6) == []

    def test_c6_disconnected_pair_cut(self):
        g = generate("cycle:6")
        xstar = incidence_vector(g, [1, 4])
        cuts = separate_fractional(g, xstar)
        assert cuts
        assert ((1, 0, -1, 1, 0, -1), 1) in {q.canonical() for q in cuts}
        for q in cuts:
            assert q.evaluate(xstar) > q.rhs

    def test_only_strictly_violated_rows(self):
        for seed in range(10):
            g = random_connected_graph(seed)
            xstar = [Fraction(1, 2) if g.edges[e][0] % 2 else Fraction(0)
                     for e in range(g.m)]
            # scale down until degree sums fit the unit box precondition
            while True:
                y_ok = all(
                    sum((xstar[e - 1] for e in g.incident_edges(v)), Fraction(0)) <= 1
                    for v in range(1, g.n + 1))
                if y_ok:
                    break
                xstar = [x / 2 for x in xstar]
            for q in separate_fractional(g, xstar):
                assert q.evaluate(xstar) > q.rhs

    def test_precondition_violations(self):
        g = generate("cycle:6")
        with pytest.raises(GraphError):
            separate_fractional(g, [2, 0, 0, 0, 0, 0])
        with pytest.raises(GraphError):
            separate_fractional(g, [1, 1, 0, 0, 0, 0])


class TestMinVertexCut:
    def test_integer_capacities_stay_int(self):
        # C6 from 1 to 4: one vertex of each side path must go
        g = generate("cycle:6")
        flow, cut = _min_vertex_cut(g, 1, 4, {v: 2 for v in range(1, 7)})
        assert type(flow) is int and flow == 4
        assert cut == {2, 6}


class TestLazyCut:
    def test_rows_are_primitive_int(self):
        from itertools import combinations
        from cmpoly.matchings import is_connected_matching, is_matching
        for seed in range(10):
            g = random_connected_graph(seed)
            for M in combinations(range(1, g.m + 1), 2):
                if is_matching(g, M) and not is_connected_matching(g, M):
                    assert_primitive_int_row(lazy_cut_for_disconnected(g, M))

    def test_c6(self):
        g = generate("cycle:6")
        q = lazy_cut_for_disconnected(g, (1, 4))
        x = incidence_vector(g, (1, 4))
        assert q.evaluate(x) == 2 > q.rhs

    def test_p6(self):
        g = generate("path:6")
        q = lazy_cut_for_disconnected(g, (1, 5))
        x = incidence_vector(g, (1, 5))
        assert q.evaluate(x) == 2

    def test_connected_rejected(self):
        g = generate("path:6")
        with pytest.raises(GraphError):
            lazy_cut_for_disconnected(g, (1, 3))

    def test_always_evaluates_to_two(self):
        for seed in range(15):
            g = random_connected_graph(seed)
            from cmpoly.matchings import is_connected_matching, is_matching
            from itertools import combinations
            for M in combinations(range(1, g.m + 1), 2):
                if not is_matching(g, M) or is_connected_matching(g, M):
                    continue
                q = lazy_cut_for_disconnected(g, M)
                assert q.evaluate(incidence_vector(g, M)) == 2

    def test_cut_valid_on_polytope(self):
        for seed in range(10):
            g = random_connected_graph(seed)
            vecs = enumerate_connected_matchings(g)
            from cmpoly.matchings import is_connected_matching, is_matching
            from itertools import combinations
            for M in combinations(range(1, g.m + 1), 2):
                if not is_matching(g, M) or is_connected_matching(g, M):
                    continue
                q = lazy_cut_for_disconnected(g, M)
                assert all(q.evaluate(x) <= q.rhs for x in vecs)
