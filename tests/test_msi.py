import random
from collections import deque
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cmpoly import solver
from cmpoly.graph_core import Graph, GraphError, generate
from cmpoly.inequality import Inequality
from cmpoly.matchings import enumerate_cm_sets, enumerate_connected_matchings, incidence_vector
from cmpoly.graph_core import is_separator, mask_bits, reach_within, vertex_mask
from cmpoly.matchings import is_connected_matching, is_matching
from cmpoly.msi import (Separator, _min_vertex_cut, _split_network, dominates,
                        lazy_cut_for_disconnected, minimal_separators, minimalize,
                        msi_row, project_msi, separate_fractional, vertex_row)
from cmpoly.rational_la import integer_row
from cmpoly.solver import SolveConfig

from conftest import (assert_primitive_int_row, random_connected_graph, set_bfs_components,
                      spread_weights)


def reference_min_vertex_cut(g, a, b, cap):
    """The per-pair construction: a fresh split network for (a,b) with
    infinite capacity on a and b, max-flow, then a separate residual reach
    search from the source."""
    inf = sum(cap.values()) + 1
    arcs = {}

    def add(u, v, c):
        arcs.setdefault(u, {})[v] = arcs.get(u, {}).get(v, 0) + c
        arcs.setdefault(v, {}).setdefault(u, 0)

    for v in range(1, g.n + 1):
        add((v, 0), (v, 1), inf if v in (a, b) else cap[v])
    for u, v in g.edges:
        add((u, 1), (v, 0), inf)
        add((v, 1), (u, 0), inf)
    src, snk = (a, 1), (b, 0)
    flow = 0
    while True:
        parent = {src: None}
        queue = deque([src])
        while queue and snk not in parent:
            u = queue.popleft()
            for v, c in arcs[u].items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if snk not in parent:
            break
        path = []
        v = snk
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        aug = min(arcs[u][v] for u, v in path)
        for u, v in path:
            arcs[u][v] -= aug
            arcs[v][u] += aug
        flow += aug
    reach = {src}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v, c in arcs[u].items():
            if c > 0 and v not in reach:
                reach.add(v)
                queue.append(v)
    cut = {v for v in range(1, g.n + 1)
           if (v, 0) in reach and (v, 1) not in reach}
    return flow, cut


def reference_sides(g, s, C):
    comps = set_bfs_components(g, set(range(1, g.n + 1)) - C)
    return next(c for c in comps if s.a in c), next(c for c in comps if s.b in c)


def reference_is_minimal(g, s):
    """Set-based check: every vertex of C neighbours both sides of G - C."""
    side_a, side_b = reference_sides(g, s, set(s.C))
    return all(set(g.neighbors(u)) & side_a and set(g.neighbors(u)) & side_b
               for u in s.C)


def reference_minimalize(g, s):
    """Set-based minimalization: drop the least vertex without a neighbour on
    both sides, recompute the sides, repeat."""
    C = set(s.C)
    changed = True
    while changed:
        changed = False
        side_a, side_b = reference_sides(g, s, C)
        for u in sorted(C):
            nbrs = set(g.neighbors(u))
            if not (nbrs & side_a) or not (nbrs & side_b):
                C.discard(u)
                changed = True
                break
    return Separator(s.a, s.b, tuple(C))


def reference_lazy_cut(g, M):
    """Set-based lazy cut: a is the least vertex of the first component of
    the covered vertices, b the least vertex of the other components."""
    covered = {v for e in M for v in g.endpoints(e)}
    comps = set_bfs_components(g, covered)
    a = min(comps[0])
    b = min(min(c) for c in comps[1:])
    pool = set(range(1, g.n + 1)) - covered
    return project_msi(g, reference_minimalize(g, Separator(a, b, tuple(pool))))


def nonadjacent_pairs(g):
    return [(a, b) for a, b in combinations(range(1, g.n + 1), 2)
            if g.edge_id(a, b) is None]


def random_separators(g, rng, draws):
    """Separators C of random non-adjacent pairs, C drawn from the other vertices."""
    pairs = nonadjacent_pairs(g)
    out = []
    for _ in range(draws if pairs else 0):
        a, b = rng.choice(pairs)
        p = rng.random()
        C = {v for v in range(1, g.n + 1) if v not in (a, b) and rng.random() < p}
        if is_separator(g, a, b, C):
            out.append(Separator(a, b, tuple(C)))
    return out


class TestMinimalSeparator:
    def test_c6(self):
        g = generate("cycle:6")
        s = Separator(1, 4, (2, 6))
        assert minimalize(g, s) == s

    def test_extra_vertex_not_minimal(self):
        g = generate("path:5")
        s = Separator(1, 5, (3,))
        assert minimalize(g, s) == s
        assert minimalize(g, Separator(1, 5, (2, 4))) != Separator(1, 5, (2, 4))

    def test_tree_neighborhood(self):
        # star with a pendant path: N(a) is minimal for any far vertex
        g = Graph(5, ((1, 2), (1, 3), (3, 4), (4, 5)))
        s = Separator(1, 5, (3,))
        assert minimalize(g, s) == s

    def test_invalid_separator_rejected(self):
        g = generate("cycle:6")
        with pytest.raises(GraphError):
            minimalize(g, Separator(1, 4, (2,)))

    def test_minimalize(self):
        g = generate("cycle:6")
        s = minimalize(g, Separator(1, 4, (2, 3, 6)))
        assert set(s.C) in ({2, 6}, {3, 6})
        assert minimalize(g, s) == s

    @pytest.mark.parametrize("C", [(0, 2, 6), (2, 6, 7), (2, 6, -1), (2,)],
                             ids=["vertex-0", "vertex-past-n", "negative-vertex",
                                  "not-separating"])
    def test_minimalize_rejects_invalid_separator(self, C):
        with pytest.raises(GraphError):
            minimalize(generate("cycle:6"), Separator(1, 4, C))

    def test_out_of_range_endpoint_rejected(self):
        g = generate("cycle:6")
        for s in (Separator(1, 99, (2, 6)), Separator(1, 4, (2, 6, 99))):
            with pytest.raises(GraphError, match="vertex 99 out of range"):
                s.validate(g)
            with pytest.raises(GraphError, match="vertex 99 out of range"):
                project_msi(g, s)

    def test_matches_set_based_reference(self, random_suite):
        rng = random.Random(3)
        checked = shrunk = 0
        for g in random_suite:
            for s in random_separators(g, rng, 12):
                got = minimalize(g, s)
                assert (got == s) == reference_is_minimal(g, s)
                assert got == reference_minimalize(g, s)
                assert minimalize(g, got) == got
                checked += 1
                shrunk += got != s
        assert checked >= 300 and shrunk >= 100


def reference_minimal_separators(g):
    """Every minimal separator of every non-adjacent pair by subset
    enumeration: C is a minimal (a,b)-separator iff a and b lie in two
    different full components of G - C, components next to every vertex of
    C.  Returns {(a, b): masks} for a < b, each list by size and then by
    sorted vertices."""
    nbr = g.neighbor_masks
    found = {pair: [] for pair in nonadjacent_pairs(g)}
    for size in range(g.n - 1):
        for C in combinations(range(1, g.n + 1), size):
            cut = vertex_mask(C)
            room, full = g.all_vertices & ~cut, []
            while room:
                comp = reach_within(nbr, room, room & -room)
                room ^= comp
                if all(nbr[u] & comp for u in C):
                    full.append(comp)
            for A, B in combinations(full, 2):
                for a in mask_bits(A):
                    for b in mask_bits(B):
                        found[min(a, b), max(a, b)].append(cut)
    return found


def seeded_graphs(count):
    """Graphs on 2-12 vertices with edge probability 0.1-0.9: sparse ones are
    often disconnected, dense ones have few non-adjacent pairs."""
    for seed in range(count):
        rng = random.Random(seed)
        n, p = 2 + seed % 11, (0.1, 0.3, 0.5, 0.7, 0.9)[seed % 5]
        yield Graph(n, tuple(e for e in combinations(range(1, n + 1), 2) if rng.random() < p))


def generated_separators(g, a, b, max_size):
    """The generator's minimal (a,b)-separators of at most max_size vertices."""
    return [Separator(a, b, mask_bits(C)) for C in minimal_separators(g, a, b)
            if C.bit_count() <= max_size]


class TestMinimalSeparators:
    def test_matches_reference(self, random_suite):
        found = 0
        for g in random_suite:
            for pair, want in reference_minimal_separators(g).items():
                assert minimal_separators(g, *pair) == want
                found += len(want)
        assert found >= 1500

    def test_matches_reference_on_named_and_seeded_graphs(self):
        names = ("j26", "petersen", "cube:3", "cycle:9", "path:8", "complete:5")
        graphs = [generate(name) for name in names] + list(seeded_graphs(440))
        found = split = several = dense = 0
        for g in graphs:
            for pair, want in reference_minimal_separators(g).items():
                assert minimal_separators(g, *pair) == want, (g, pair)
                found += len(want)
                split += want == [0]   # a and b in different components of G
                several += len(want) >= 2
                dense += 2 * g.m >= g.n * (g.n - 1) * 0.8
        assert found >= 10000 and split >= 2000 and several >= 2000 and dense >= 200

    def test_bad_or_adjacent_pair_rejected(self):
        g = generate("cycle:6")
        with pytest.raises(GraphError, match="adjacent"):
            minimal_separators(g, 1, 2)
        for a, b in ((1, 1), (0, 3), (1, 7), (-1, 3)):
            with pytest.raises(GraphError):
                minimal_separators(g, a, b)


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
                        for s in generated_separators(g, a, b, 2):
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
                    for s in generated_separators(g, a, b, 3):
                        q = project_msi(g, s)
                        assert all(q.evaluate(x) <= q.rhs for x in vecs)


def reference_project_msi(g, s):
    """The earlier list-based projection: +1 on each edge at a and at b, -1
    on each edge at a vertex of C."""
    s.validate(g)
    coeffs = [0] * g.m
    for e in g.incident_edges(s.a):
        coeffs[e - 1] += 1
    for e in g.incident_edges(s.b):
        coeffs[e - 1] += 1
    for u in s.C:
        for e in g.incident_edges(u):
            coeffs[e - 1] -= 1
    prov = f"msi a={s.a} b={s.b} C={{{','.join(map(str, s.C))}}}"
    return Inequality(coeffs, 1, tag="msi", provenance=prov)


def reference_degree_rows(g):
    """The earlier degree-row loop of solver.build_base_lp."""
    rows = []
    for v in range(1, g.n + 1):
        inc = g.incident_edges(v)
        if not inc:
            continue
        coeffs = [0] * g.m
        for e in inc:
            coeffs[e - 1] = 1
        rows.append(Inequality(coeffs, 1, tag="degree", provenance=f"v={v}"))
    return rows


class TestVertexRow:
    def test_matches_list_based_reference(self, random_suite):
        graphs = random_suite + [generate(name) for name in ("petersen", "j26", "cube:3")]
        graphs.append(Graph(5, ((1, 2), (2, 3))))   # isolated vertices: no degree row
        rows = 0
        for g in graphs:
            for a, b in nonadjacent_pairs(g):
                for s in generated_separators(g, a, b, g.n):
                    want = reference_project_msi(g, s)
                    assert vertex_row(g, vertex_mask((a, b)), vertex_mask(s.C), "msi",
                                      want.provenance) == want
                    assert project_msi(g, s) == want   # tag and provenance included
                    assert msi_row(g, a, b, vertex_mask(s.C)) == want
                    rows += 1
            degree = reference_degree_rows(g)
            assert [vertex_row(g, 1 << v, 0, "degree", f"v={v}")
                    for v in range(1, g.n + 1) if g.incident_edges(v)] == degree
            model = solver.build_base_lp(g, [1] * g.m, SolveConfig(use_family_cuts=False))
            assert model.rows == degree
        assert rows >= 1000


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
        # no negative entry and rhs 0: every rho > 0 scales p above q
        assert dominates(Inequality([1, 1], 0), Inequality([1, 0], 0))

    def test_exact_ratio_on_huge_rhs(self):
        # (10**20 - 1) / 10**20 is 1.0 in floating point
        p = Inequality([1], 10**20)
        q = Inequality([1], 10**20 - 1)
        assert not dominates(p, q)
        assert dominates(q, p)

    def test_dimension_mismatch(self):
        with pytest.raises(GraphError):
            dominates(Inequality([1], 1), Inequality([1, 1], 1))


def full_flow_separate_fractional(g, xstar):
    """The earlier separation: each pair's max-flow runs to the end on its
    own network (reference_min_vertex_cut), and the pair is skipped when
    y_a + y_b - flow <= D afterwards."""
    D = lcm(*[Fraction(x).denominator for x in xstar])
    y = {v: int(sum((Fraction(xstar[e - 1]) for e in g.incident_edges(v)), Fraction(0)) * D)
         for v in range(1, g.n + 1)}
    cuts = {}
    for a, b in nonadjacent_pairs(g):
        if y[a] + y[b] <= D:
            continue
        flow, cut = reference_min_vertex_cut(g, a, b, y)
        if y[a] + y[b] - flow > D:
            row = project_msi(g, minimalize(g, Separator(a, b, tuple(cut))))
            cuts.setdefault(row.canonical(), row)
    return [cuts[k] for k in sorted(cuts)]


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

    def test_matches_full_flow_reference_on_solver_points(self, monkeypatch):
        # every LP point that branch-and-cut separates, without family rows,
        # on cycles 8-13 and seeded random graphs: the same rows, provenance
        # included, in the same order
        points = rows = 0

        def checked(g, xstar):
            nonlocal points, rows
            got = separate_fractional(g, xstar)
            want = full_flow_separate_fractional(g, xstar)
            assert got == want   # Inequality equality includes provenance
            points += 1
            rows += len(got)
            return got

        monkeypatch.setattr(solver, "separate_fractional", checked)
        config = SolveConfig(use_family_cuts=False)
        for n in range(8, 14):
            for draw in range(4):
                g = generate(f"cycle:{n}")
                w = spread_weights(random.Random(f"{n}-{draw}"), g, huge=False)
                solver.branch_and_cut(g, w, config)
        cycle_points = points
        for seed in range(40):
            g = random_connected_graph(seed, n_lo=6, n_hi=10, max_extra=6, m_cap=14)
            w = spread_weights(random.Random(seed), g, huge=seed % 3 == 2)
            solver.branch_and_cut(g, w, config)
        assert cycle_points >= 70 and points - cycle_points >= 5 and rows >= 400

    def test_precondition_violations(self):
        g = generate("cycle:6")
        with pytest.raises(GraphError):
            separate_fractional(g, [2, 0, 0, 0, 0, 0])
        with pytest.raises(GraphError):
            separate_fractional(g, [1, 1, 0, 0, 0, 0])
        with pytest.raises(GraphError, match="xstar dimension mismatch"):
            separate_fractional(g, [0] * 5)

    @given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=60), max_size=8))
    @example([Fraction(0)] * 6)
    def test_point_scaled_by_integer_row_as_by_lcm(self, xstar):
        """The point scaling: integer_row([*xstar, 1]) is (lcm of the
        denominators) * (xstar, 1), with no gcd left to divide out."""
        D = lcm(*[x.denominator for x in xstar])
        assert integer_row([*xstar, 1]) == [x.numerator * (D // x.denominator)
                                             for x in xstar] + [D]


def full_min_vertex_cut(net, a, b):
    """_min_vertex_cut run to the end: no flow reaches the sum of every
    capacity plus one."""
    return _min_vertex_cut(net, a, b, sum(net[1]) + 1)


class TestMinVertexCut:
    def test_integer_capacities_stay_int(self):
        # C6 from 1 to 4: one vertex of each side path must go
        g = generate("cycle:6")
        flow, cut = full_min_vertex_cut(_split_network(g, [0] + [2] * 6), 1, 4)
        assert type(flow) is int and flow == 4
        assert cut == vertex_mask({2, 6})

    def test_network_is_not_consumed(self):
        g = generate("cycle:6")
        net = _split_network(g, [0, 1, 2, 3, 4, 5, 6])
        head, cap, out = net
        before = (list(head), list(cap), [list(arcs) for arcs in out])
        first = full_min_vertex_cut(net, 1, 4)
        assert net == before
        assert full_min_vertex_cut(net, 1, 4) == first
        flow, cut = _min_vertex_cut(net, 1, 4, 1)
        assert cut is None and flow >= 1
        assert net == before

    def test_arc_lists_pair_each_arc_with_its_reverse(self):
        g = generate("petersen")
        y = [0] + [v % 4 for v in range(1, g.n + 1)]
        head, cap, out = _split_network(g, y)
        assert len(head) == len(cap) == 2 * (g.n + 2 * g.m)
        assert sorted(i for arcs in out for i in arcs) == list(range(len(head)))
        for u, arcs in enumerate(out):
            for i in arcs:
                assert i ^ 1 in out[head[i]] and head[i ^ 1] == u
        forward = {(head[i ^ 1], head[i]): cap[i] for i in range(0, len(head), 2)}
        assert all(cap[i] == 0 for i in range(1, len(head), 2))
        assert forward == {**{(2 * v, 2 * v + 1): y[v] for v in range(1, g.n + 1)},
                           **{(2 * s + 1, 2 * t): sum(y) + 1
                              for u, v in g.edges for s, t in ((u, v), (v, u))}}

    def test_shared_network_matches_per_pair_network(self, random_suite):
        rng = random.Random(5)
        pairs = zero_cuts = 0
        for g in random_suite:
            cap = {v: rng.choice((0, 0, 1, 2, 3, 5, 8)) for v in range(1, g.n + 1)}
            net = _split_network(g, [0] + [cap[v] for v in range(1, g.n + 1)])
            for a, b in nonadjacent_pairs(g):
                flow, cut = full_min_vertex_cut(net, a, b)
                ref_flow, ref_cut = reference_min_vertex_cut(g, a, b, cap)
                assert (flow, cut) == (ref_flow, vertex_mask(ref_cut))
                assert is_separator(g, a, b, mask_bits(cut))
                assert sum(cap[v] for v in mask_bits(cut)) == flow
                # brute force over every separator of the pair
                rest = [v for v in range(1, g.n + 1) if v not in (a, b)]
                best = min(sum(cap[v] for v in C)
                           for k in range(len(rest) + 1)
                           for C in combinations(rest, k)
                           if is_separator(g, a, b, C))
                assert flow == best
                pairs += 1
                zero_cuts += any(cap[v] == 0 for v in rest)
        assert pairs >= 500 and zero_cuts >= 100

    def test_bounded_flow_against_reference(self, random_suite):
        # below the true flow F, at it and above it: under F + 1 and more the
        # exact flow and cut come back; at a bound <= F the search stops
        # with a flow in [bound, F] and no cut
        rng = random.Random(6)
        exact = stopped = 0
        for g in random_suite:
            cap = {v: rng.choice((0, 1, 2, 3, 5, 8)) for v in range(1, g.n + 1)}
            net = _split_network(g, [0] + [cap[v] for v in range(1, g.n + 1)])
            for a, b in nonadjacent_pairs(g):
                flow, cut = reference_min_vertex_cut(g, a, b, cap)
                for bound in (0, flow // 2, flow - 1, flow, flow + 1, 2 * flow + 3):
                    got = _min_vertex_cut(net, a, b, bound)
                    if bound > flow:
                        assert got == (flow, vertex_mask(cut))
                        exact += 1
                    else:
                        assert got[1] is None and bound <= got[0] <= flow
                        stopped += bound > 0
        assert exact >= 1000 and stopped >= 1000


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

    @pytest.mark.parametrize("M", [(2,), (), (1, 2), (1, 9)],
                             ids=["one-edge", "empty", "not-a-matching", "edge-out-of-range"])
    def test_short_or_invalid_matching_rejected(self, M):
        with pytest.raises(GraphError):
            lazy_cut_for_disconnected(generate("path:6"), M)

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

    def test_matches_set_based_reference(self, random_suite):
        checked = 0
        for g in random_suite:
            for k in (2, 3):
                for M in combinations(range(1, g.m + 1), k):
                    if is_matching(g, M) and not is_connected_matching(g, M):
                        assert lazy_cut_for_disconnected(g, M) == reference_lazy_cut(g, M)
                        checked += 1
        assert checked >= 200

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
