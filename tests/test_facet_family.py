from fractions import Fraction
from pathlib import Path

import pytest

from cmpoly import matchings
from cmpoly.facet_family import (check_validity_hypothesis, facet_hypothesis,
                                 family_inequality, family_pair, generate_family,
                                 is_disconnected_pair, lambda_set)
from cmpoly.graph_core import Graph, GraphError, generate, line_distance, parse_graph
from cmpoly.inequality import Inequality
from cmpoly.matchings import enumerate_cm_sets, enumerate_connected_matchings

from conftest import (assert_primitive_int_row, random_connected_graph, set_bfs_components,
                      to_networkx)


def reference_lambda_set(g, e1, e2):
    """The set-based lambda set: edges avoiding both pairs' endpoints with an
    endpoint next to each edge of the pair."""
    ends1, ends2 = set(g.endpoints(e1)), set(g.endpoints(e2))
    near1 = {w for u in ends1 for w in g.neighbors(u)} - ends1
    near2 = {w for u in ends2 for w in g.neighbors(u)} - ends2
    ends = ends1 | ends2
    return tuple(f for f, uv in enumerate(g.edges, start=1)
                 if ends.isdisjoint(uv)
                 and not near1.isdisjoint(uv) and not near2.isdisjoint(uv))


def reference_is_disconnected_pair(g, e1, e2):
    a, b = set(g.endpoints(e1)), set(g.endpoints(e2))
    return not a & b and len(set_bfs_components(g, a | b)) > 1


def reference_facet_hypothesis(g, e1, e2, lam):
    """The set-based facet conditions, with networkx judging 2-connectivity."""
    import networkx as nx
    G = to_networkx(g)
    if not lam:
        return False
    if any(not set(g.endpoints(f)) & set(g.endpoints(f2))
           for i, f in enumerate(lam) for f2 in lam[i + 1:]):
        return False
    pair_cover = set(g.endpoints(e1)) | set(g.endpoints(e2))
    return all(nx.is_biconnected(G.subgraph(pair_cover | set(g.endpoints(f))))
               for f in lam)


def differential_corpus(random_suite):
    return random_suite + [generate(n) for n in ("petersen", "j26", "cube:3", "cycle:8")]


def certificates(g, rows):
    """(pair, lambda, facet flag) of each family row, read back from the row."""
    out = []
    for q in rows:
        pair, lam = family_pair(g, q)
        out.append((pair, lam, facet_hypothesis(g, pair, lam)))
    return out


class TestLambdaSet:
    def test_p6(self):
        assert lambda_set(generate("path:6"), 1, 5) == (3,)

    def test_c6_opposite(self):
        assert lambda_set(generate("cycle:6"), 1, 4) == ()

    def test_cube3_antipodal(self):
        g = generate("cube:3")
        e1 = g.edge_id(1, 2)    # 000-001
        e2 = g.edge_id(7, 8)    # 110-111
        lam = lambda_set(g, e1, e2)
        assert lam == (g.edge_id(3, 4), g.edge_id(5, 6))  # 010-011 and 100-101

    def test_brute_force_definition(self):
        graphs = [random_connected_graph(seed) for seed in range(8)]
        graphs += [generate(name) for name in ("petersen", "cube:3", "j26")]
        for g in graphs:
            for e1 in range(1, g.m + 1):
                for e2 in range(e1 + 1, g.m + 1):
                    expect = tuple(sorted(
                        f for f in range(1, g.m + 1)
                        if line_distance(g, f, e1) == 2
                        and line_distance(g, f, e2) == 2))
                    assert lambda_set(g, e1, e2) == expect

    def test_same_edge_rejected(self):
        with pytest.raises(GraphError, match="lambda set needs two distinct edges"):
            lambda_set(generate("path:6"), 2, 2)
        with pytest.raises(GraphError, match="pair needs two distinct edges"):
            is_disconnected_pair(generate("path:6"), 2, 2)

    def test_matches_set_based_reference(self, random_suite):
        for g in differential_corpus(random_suite):
            for e1 in range(1, g.m + 1):
                for e2 in range(1, g.m + 1):
                    if e1 != e2:
                        assert lambda_set(g, e1, e2) == reference_lambda_set(g, e1, e2)

    def test_out_of_range_edge_rejected(self):
        g = generate("path:6")
        for e1, e2 in ((0, 3), (3, 6), (-1, 3), (3, -1)):
            with pytest.raises(GraphError, match="out of range"):
                lambda_set(g, e1, e2)
            with pytest.raises(GraphError, match="out of range"):
                is_disconnected_pair(g, e1, e2)


class TestDisconnectedPair:
    def test_adjacent_edges(self):
        assert not is_disconnected_pair(generate("path:4"), 1, 2)

    def test_c6(self):
        assert is_disconnected_pair(generate("cycle:6"), 1, 4)

    def test_k4_never(self):
        g = generate("complete:4")
        for e1 in range(1, g.m + 1):
            for e2 in range(e1 + 1, g.m + 1):
                assert not is_disconnected_pair(g, e1, e2)

    def test_matches_set_based_reference(self, random_suite):
        for g in differential_corpus(random_suite):
            for e1 in range(1, g.m + 1):
                for e2 in range(1, g.m + 1):
                    if e1 != e2:
                        assert (is_disconnected_pair(g, e1, e2)
                                == reference_is_disconnected_pair(g, e1, e2))


class TestFamilyInequality:
    def test_p6(self):
        q = family_inequality(generate("path:6"), 1, 5)
        assert q.canonical() == ((1, 0, -1, 0, 1), 1)

    def test_c6(self):
        q = family_inequality(generate("cycle:6"), 1, 4)
        assert q.canonical() == ((1, 0, 0, 1, 0, 0), 1)

    def test_pre_violation(self):
        with pytest.raises(GraphError):
            family_inequality(generate("path:4"), 1, 2)

    def test_support_structure(self):
        for seed in range(10):
            g = random_connected_graph(seed)
            for q in generate_family(g):
                _, lam = family_pair(g, q)
                ints, rhs = q.canonical()
                assert rhs == 1
                assert sorted(c for c in ints if c != 0) == \
                    [-1] * len(lam) + [1, 1]


class TestValidityHypothesis:
    def test_p6(self):
        assert check_validity_hypothesis(generate("path:6"), 1, 5)

    def test_c6(self):
        assert check_validity_hypothesis(generate("cycle:6"), 1, 4)

    def test_cube3(self):
        g = generate("cube:3")
        assert check_validity_hypothesis(g, g.edge_id(1, 2), g.edge_id(7, 8))

    def test_pre_violation(self):
        with pytest.raises(GraphError):
            check_validity_hypothesis(generate("path:4"), 1, 2)


def pair_facet_flag(g, e1, e2):
    """The facet flag of the pair's family row."""
    return facet_hypothesis(g, (e1, e2), lambda_set(g, e1, e2))


class TestFacetHypothesis:
    def test_p6_not_biconnected(self):
        g = generate("path:6")
        assert not pair_facet_flag(g, 1, 5)

    def test_cube3_clique_fails(self):
        g = generate("cube:3")
        e1, e2 = g.edge_id(1, 2), g.edge_id(7, 8)
        assert not pair_facet_flag(g, e1, e2)

    def test_empty_lambda_never_certified(self):
        g = generate("cycle:6")
        assert lambda_set(g, 1, 4) == ()
        assert not pair_facet_flag(g, 1, 4)

    def test_matches_set_based_reference(self, random_suite):
        seen = set()
        for g in differential_corpus(random_suite):
            for e1 in range(1, g.m + 1):
                for e2 in range(e1 + 1, g.m + 1):
                    if not reference_is_disconnected_pair(g, e1, e2):
                        continue
                    lam = reference_lambda_set(g, e1, e2)
                    expect = reference_facet_hypothesis(g, e1, e2, lam)
                    assert pair_facet_flag(g, e1, e2) == expect, (e1, e2)
                    seen.add(expect)
        assert seen == {True, False}

    def test_positive_case(self):
        g = Graph(6, ((1, 2), (1, 3), (1, 4), (2, 5), (3, 4), (3, 6), (4, 5),
                      (4, 6)))
        certified = [c for c in certificates(g, generate_family(g)) if c[2]]
        assert any(pair == (4, 6) and lam == (3,) for pair, lam, _ in certified)


def reference_family(g):
    """generate_family rebuilt pair by pair from the per-pair predicates, each
    row with its (pair, lambda, facet flag)."""
    out = []
    for e1 in range(1, g.m + 1):
        for e2 in range(e1 + 1, g.m + 1):
            if not is_disconnected_pair(g, e1, e2):
                continue
            if not check_validity_hypothesis(g, e1, e2):
                continue
            lam = lambda_set(g, e1, e2)
            cert = ((e1, e2), lam, facet_hypothesis(g, (e1, e2), lam))
            out.append((family_inequality(g, e1, e2), cert))
    return out


def row_key(q):
    return q.coeffs, q.rhs, q.tag, q.provenance


class TestGenerateFamily:
    def test_matches_per_pair_reference(self, random_suite):
        named = [generate(n) for n in ("petersen", "j26", "cube:3", "cycle:8", "path:7")]
        larger = [random_connected_graph(seed, n_lo=8, n_hi=11, max_extra=6, m_cap=16)
                  for seed in range(20)]
        certs = []
        for g in random_suite + named + larger:
            got, want = generate_family(g), reference_family(g)
            assert certificates(g, got) == [c for _, c in want]
            assert [row_key(q) for q in got] == [row_key(q) for q, _ in want]
            certs += certificates(g, got)
        # the corpus reaches both outcomes of the facet flag, and both empty
        # and nonempty lambda sets
        assert {flag for _, _, flag in certs} == {True, False}
        assert {bool(lam) for _, lam, _ in certs} == {True, False}

    def test_k4_empty(self):
        assert generate_family(generate("complete:4")) == []

    def test_c6(self):
        g = generate("cycle:6")
        certs = certificates(g, generate_family(g))
        assert [pair for pair, _, _ in certs] == [(1, 4), (2, 5), (3, 6)]
        assert all(not flag for _, _, flag in certs)
        assert all(lam == () for _, lam, _ in certs)

    def test_rows_are_primitive_int(self):
        for seed in range(10):
            for q in generate_family(random_connected_graph(seed)):
                assert_primitive_int_row(q)

    def test_order_and_size_bound(self):
        for seed in range(10):
            g = random_connected_graph(seed)
            fam = generate_family(g)
            pairs = [pair for pair, _, _ in certificates(g, fam)]
            assert pairs == sorted(pairs)
            assert len(fam) <= g.m * (g.m - 1) // 2

    def test_validity_on_vertices(self):
        for seed in range(20):
            g = random_connected_graph(seed)
            vecs = enumerate_connected_matchings(g)
            for q in generate_family(g):
                assert all(q.evaluate(x) <= q.rhs for x in vecs)

    def test_fact1_corollary(self):
        # clique Lambda meets any connected matching in at most one edge
        for seed in range(10):
            g = random_connected_graph(seed)
            cms = enumerate_cm_sets(g)
            for _, lam, flag in certificates(g, generate_family(g)):
                lam = set(lam)
                if not lam or not flag:
                    continue
                for M in cms:
                    assert len(lam & set(M)) <= 1

    def test_cycle30_search_work_is_bounded(self, monkeypatch):
        # the index-order search made 701,068 reach_within calls here
        calls = 0
        reach_within = matchings.reach_within

        def counted(*args):
            nonlocal calls
            calls += 1
            return reach_within(*args)

        monkeypatch.setattr(matchings, "reach_within", counted)
        assert len(generate_family(generate("cycle:30"))) == 195
        assert calls < 50_000

    def test_certificate_consistency(self):
        for seed in range(10):
            g = random_connected_graph(seed)
            for pair, lam, flag in certificates(g, generate_family(g)):
                assert is_disconnected_pair(g, *pair)
                assert check_validity_hypothesis(g, *pair)
                assert lam == lambda_set(g, *pair)
                if flag:
                    assert lam


class TestJ26Family:
    def test_five_family_rows_match_hull_count(self):
        # the five hull facets of family shape exist among generated rows
        g = generate("j26")
        fam = generate_family(g)
        sizes = sorted(len(lam) for _, lam, _ in certificates(g, fam) if lam)
        # the lifting pattern of the worked example: |lambda| = 2 occurs
        assert 2 in sizes

    def test_eq2_shape_present(self):
        g = generate("j26")
        fam = generate_family(g)
        shapes = {tuple(sorted(q.canonical()[0])) for q in fam}
        assert (-1, -1) + (0,) * 10 + (1, 1) in shapes


def reader_corpus(random_suite):
    mixed8 = parse_graph((Path(__file__).parent / "golden" / "mixed8.g").read_text())
    return random_suite + [generate(n) for n in ("petersen", "j26", "cube:3")] + [mixed8]


class TestFamilyPair:
    def test_reads_every_generated_row(self, random_suite):
        rows = 0
        for g in reader_corpus(random_suite):
            want = [(pair, lam) for _, (pair, lam, _) in reference_family(g)]
            got = [family_pair(g, q) for q in generate_family(g)]
            assert got == want
            for pair, lam in got:
                assert lam == reference_lambda_set(g, *pair)
            rows += len(got)
        assert rows

    def test_rejects_near_family_rows(self, random_suite):
        tried = 0
        for g in reader_corpus(random_suite):
            for q in generate_family(g):
                pair, lam = family_pair(g, q)
                if not lam:
                    continue
                outside = [f for f in range(1, g.m + 1) if f not in pair and f not in lam]
                near = [Inequality([1 if f in pair else 0 for f in range(1, g.m + 1)], 1),
                        Inequality([c if j + 1 != lam[0] else 0
                                    for j, c in enumerate(q.coeffs)], 1),
                        Inequality(q.coeffs, 2)]
                if outside:
                    near.append(Inequality([c if j + 1 != outside[0] else -1
                                            for j, c in enumerate(q.coeffs)], 1))
                for r in near:
                    assert family_pair(g, r) is None, r.format_line()
                tried += len(near)
        assert tried

    def test_flag_matches_set_based_reference(self, random_suite):
        flags = set()
        for g in reader_corpus(random_suite):
            for pair, lam, flag in certificates(g, generate_family(g)):
                assert flag == reference_facet_hypothesis(g, *pair, lam), pair
                flags.add(flag)
        assert flags == {True, False}
