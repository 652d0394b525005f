import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cmpoly import solver
from cmpoly.facet_family import generate_family, separate_family
from cmpoly.graph_core import Graph, GraphError, edge_parts, generate, mask_bits
from cmpoly.matchings import brute_force_max_weight_cm, enumerate_connected_matchings, is_connected_matching
from cmpoly.solver import SolveConfig, branch_and_cut, build_base_lp, solve_lp_exact

from conftest import (assert_primitive_int_row, random_connected_graph, random_weights,
                      root_gap_report, spread_weights, with_family)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import instances  # noqa: E402


def seed0_solve_cases():
    """(graph, weights) of the 52 instances of perfbench's seed-0 solve and
    solve-cuts lists."""
    return [(inst.graph, inst.weights)
            for inst in instances.solve_instances(0) + instances.solve_cuts_instances(0)]


class TestBuildBaseLp:
    def test_path3(self):
        g = generate("path:3")
        model = build_base_lp(g, [1, 1])
        assert [q.tag for q in model.rows] == ["degree"] * 3
        # P3 has no disconnected pair, so the family adds nothing
        assert generate_family(g) == []

    @pytest.mark.parametrize("family", [False, True])
    def test_degree_rows_bound_every_edge(self, family):
        # no bound rows: every edge column has a +1 in some degree row, so
        # with x >= 0 the degree rows imply x_e <= 1 and keep the LP bounded,
        # with or without the family beside them
        graphs = [random_connected_graph(seed, n_hi=10, m_cap=16) for seed in range(30)]
        graphs += [Graph(6, ((1, 2), (2, 3), (4, 5))),   # K2 component, isolated 6
                   Graph(2, ((1, 2),)), Graph(3, ())]
        for g in graphs:
            model = build_base_lp(g, [1] * g.m)
            assert {q.tag for q in model.rows} <= {"degree"}
            if family:
                with_family(model, g)
                assert {q.tag for q in model.rows} <= {"degree", "family"}
            degree = [q for q in model.rows if q.tag == "degree"]
            assert all(any(q.coeffs[e - 1] == 1 for q in degree)
                       for e in range(1, g.m + 1)), g

    def test_c6_family_rows(self):
        fam = {q.canonical() for q in generate_family(generate("cycle:6"))}
        assert ((1, 0, 0, 1, 0, 0), 1) in fam
        assert len(fam) == 3

    def test_j26_family_rows(self):
        assert len(generate_family(generate("j26"))) >= 5

    def test_dimension_mismatch(self):
        with pytest.raises(GraphError):
            build_base_lp(generate("path:3"), [1])

    def test_rows_are_primitive_int(self):
        for seed in range(10):
            g = random_connected_graph(seed)
            for q in build_base_lp(g, random_weights(seed, g.m)).rows:
                assert_primitive_int_row(q)


class TestLpExact:
    def test_nonpositive_weights(self):
        g = generate("path:4")
        model = build_base_lp(g, [-1, 0, -2])
        value, x, _ = solve_lp_exact(model)
        assert value == 0 and all(v == 0 for v in x)

    def test_single_edge(self):
        g = Graph(2, ((1, 2),))
        value, x, _ = solve_lp_exact(build_base_lp(g, [5]))
        assert value == 5 and x == [1]

    def test_c6_family_row_caps_pair(self):
        g = generate("cycle:6")
        w = [1, 0, 0, 1, 0, 0]
        value, _, _ = solve_lp_exact(with_family(build_base_lp(g, w), g))
        assert value == 1

    def test_deterministic(self):
        g = generate("cycle:6")
        w = random_weights(3, 6)
        a = solve_lp_exact(build_base_lp(g, w))
        b = solve_lp_exact(build_base_lp(g, w))
        assert a == b

    def test_infeasible_fixing_detected(self):
        g = generate("path:3")
        model = build_base_lp(g, [1, 1])
        # both edges share vertex 2; fixing both to 1 contradicts the degree row
        value, x, _ = solve_lp_exact(model, fixed1=1 << 1 | 1 << 2)
        assert value is None and x is None

    def test_fixed_columns_put_back(self):
        # path:4 with x1 = 1 and x3 = 0: x2 is forced to 0 by vertex 2, and
        # the value counts the fixed edge's weight
        g = generate("path:4")
        model = build_base_lp(g, [3, 5, 7])
        value, x, _ = solve_lp_exact(model, fixed0=1 << 3, fixed1=1 << 1)
        assert (value, x) == (3, [1, 0, 0])
        # every column fixed: no LP is left, only the fixed point
        value, x, pivots = solve_lp_exact(model, fixed0=1 << 2, fixed1=1 << 1 | 1 << 3)
        assert (value, x, pivots) == (10, [1, 0, 1], 0)

    @pytest.mark.parametrize("fixed0,fixed1", [
        (0, 1),                # bit 0 names no edge; once read as x1 = 1
        (1, 0),
        (0, 1 << 4),           # path:4 has edges 1..3; once an IndexError
        (1 << 5 | 1 << 2, 0),
        (-2, 0),               # a negative mask has every high bit set
        (1 << 2, 1 << 2),      # edge 2 in both masks; once counted as 1
        (1 << 1 | 1 << 3, 1 << 3),
    ])
    def test_bad_fix_masks_rejected(self, fixed0, fixed1):
        # path:4 with weights (1, 1, 5): fixed1=1 once returned value 6 at
        # x = (1, 0, 0), whose weight is 1
        model = build_base_lp(generate("path:4"), [1, 1, 5])
        with pytest.raises(GraphError, match="fix"):
            solve_lp_exact(model, fixed0, fixed1)

    def test_largest_fix_masks_accepted(self):
        # every edge bit 1..m is a fix: edges 1 and 3 to 1, edge 2 to 0
        model = build_base_lp(generate("path:4"), [1, 1, 5])
        assert solve_lp_exact(model, 1 << 2, 1 << 1 | 1 << 3) == (6, [1, 0, 1], 0)


class TestBranchAndCut:
    def test_all_negative(self):
        res = branch_and_cut(generate("cycle:6"), [-1] * 6)
        assert (res.value, res.matching, res.status) == (0, (), "optimal")

    def test_c6(self):
        res = branch_and_cut(generate("cycle:6"), [1, 0, 0, 1, 0, 0])
        assert res.value == 1 and res.status == "optimal"

    def test_result_invariants(self):
        for seed in range(10):
            g = random_connected_graph(seed)
            w = random_weights(seed, g.m)
            res = branch_and_cut(g, w)
            assert res.status == "optimal"
            assert res.value >= 0
            assert is_connected_matching(g, res.matching)
            assert res.value == sum(w[e - 1] for e in res.matching)

    def test_oracle_equivalence(self):
        for seed in range(25):
            g = random_connected_graph(seed, n_hi=10, m_cap=14)
            w = random_weights(seed + 500, g.m)
            res = branch_and_cut(g, w)
            val, _ = brute_force_max_weight_cm(g, w)
            assert res.status == "optimal" and res.value == val

    def test_without_cuts_still_exact(self):
        config = SolveConfig(use_family_cuts=False, use_msi_separation=False)
        for seed in range(10):
            g = random_connected_graph(seed)
            w = random_weights(seed + 900, g.m)
            res = branch_and_cut(g, w, config)
            val, _ = brute_force_max_weight_cm(g, w)
            assert res.value == val

    def test_cuts_valid_on_polytope(self, monkeypatch):
        # every MSI and lazy cut a solve adds to its model's cut pool is valid
        # on all connected matchings; the model is taken from the LP calls
        models = []
        solve = solver.solve_lp_exact

        def capture(model, fixed0=0, fixed1=0):
            models.append(model)
            return solve(model, fixed0, fixed1)

        monkeypatch.setattr(solver, "solve_lp_exact", capture)
        msi = lazy = 0
        for k in (7, 8, 9):
            g = generate(f"cycle:{k}")
            vecs = enumerate_connected_matchings(g)
            for seed in range(6):
                models.clear()
                res = branch_and_cut(g, random_weights(seed, g.m),
                                     SolveConfig(use_family_cuts=False))
                pool = models[-1].cut_pool
                assert len(pool) == res.stats["cuts"]["msi"] + res.stats["cuts"]["lazy"]
                for q in pool:
                    assert all(q.evaluate(x) <= q.rhs for x in vecs), q
                msi += res.stats["cuts"]["msi"]
                lazy += res.stats["cuts"]["lazy"]
        assert msi >= 1 and lazy >= 1

    def test_separated_rows_are_new(self, monkeypatch):
        # every MSI row separated at x* is violated there, and x* is an LP
        # optimum over every row already in the cut pool, so no round returns
        # a pooled row: the pool stays duplicate-free without a key set
        models, rows_out = [], []
        solve, separate = solver.solve_lp_exact, solver.separate_fractional

        def capture(model, fixed0=0, fixed1=0):
            models.append(model)
            return solve(model, fixed0, fixed1)

        def checked(g, xstar):
            rows = separate(g, xstar)
            pooled = {q.canonical() for q in models[-1].cut_pool}
            for q in rows:
                assert q.evaluate(xstar) > q.rhs, q
                assert q.canonical() not in pooled, q
            rows_out.extend(rows)
            return rows

        monkeypatch.setattr(solver, "solve_lp_exact", capture)
        monkeypatch.setattr(solver, "separate_fractional", checked)
        total = 0
        # cycles 7-10, then odd cycles, which are one part and so run the
        # whole cut loop from one root
        names = [f"cycle:{7 + seed % 4}" for seed in range(12)]
        names += [f"cycle:{9 + 2 * (seed % 3)}" for seed in range(12, 24)]
        for seed, name in enumerate(names):
            g = generate(name)
            models.clear()
            rows_out.clear()
            res = branch_and_cut(g, spread_weights(random.Random(seed), g, huge=False),
                                 SolveConfig(use_family_cuts=False))
            pool = models[-1].cut_pool
            assert len({q.canonical() for q in pool}) == len(pool)
            assert res.stats["cuts"]["msi"] == len(rows_out)
            total += len(rows_out)
        assert total >= 50

    def test_one_fix_fixes_touching_edges_to_zero(self, monkeypatch):
        # an x_e=1 child also fixes to 0 every edge that shares an endpoint
        # with e, which e's degree rows force to 0, so no node LP keeps such
        # an edge as a column; the optimum stays that of brute force
        fixes = []
        solve = solver.solve_lp_exact

        def capture(model, fixed0=0, fixed1=0):
            fixes.append((fixed0, fixed1))
            return solve(model, fixed0, fixed1)

        monkeypatch.setattr(solver, "solve_lp_exact", capture)
        ones = 0
        # cycles 8-10, then petersen and odd cycles, which are one part each
        names = [f"cycle:{8 + seed % 3}" for seed in range(8)]
        names += ["petersen", "cycle:11", "cycle:13"] * 4
        for seed, name in enumerate(names):
            g = generate(name)
            w = spread_weights(random.Random(seed), g, huge=False)
            fixes.clear()
            res = branch_and_cut(g, w, SolveConfig(use_family_cuts=False,
                                                   use_msi_separation=seed % 2 == 0))
            assert res.value == brute_force_max_weight_cm(g, w)[0]
            for fixed0, fixed1 in fixes:
                ones += fixed1 != 0
                assert fixed0 & fixed1 == 0
                for e in mask_bits(fixed1):
                    u, v = g.edges[e - 1]
                    assert (g.incident_masks[u] | g.incident_masks[v]) & ~fixed0 == 1 << e
        assert ones >= 15

    def test_determinism(self):
        g = random_connected_graph(7)
        w = random_weights(7, g.m)
        a = branch_and_cut(g, w)
        b = branch_and_cut(g, w)
        sa = {k: v for k, v in a.stats.items() if k != "wall_time"}
        sb = {k: v for k, v in b.stats.items() if k != "wall_time"}
        assert (a.value, a.matching, a.status, sa) == (b.value, b.matching, b.status, sb)
        assert a.log == b.log

    def test_node_limit_after_pruning(self):
        # cycle:6's parts, its odd and its even edges, both have root bound
        # 1.  The first root's LP finds the optimum 1, and the incumbent
        # prunes the second root, so the one-node limit is never reached
        g = generate("cycle:6")
        res = branch_and_cut(g, [1, 0, 0, 1, 0, 0],
                             SolveConfig(use_family_cuts=False,
                                         use_msi_separation=False,
                                         node_limit=1))
        assert (res.status, res.value) == ("optimal", 1)
        assert res.stats["nodes"] == 1 and "upper_bound" not in res.stats
        assert res.log[-2:] == ["node 1 bound 1 cuts 0 status pruned", "opt 1 matching {1}"]

    def test_node_limit(self):
        # the root LP of cycle:7 is fractional (7/2), and its two children
        # are still open, with bound 7/2 above the incumbent 0, at the limit
        g = generate("cycle:7")
        res = branch_and_cut(g, [1] * 7, SolveConfig(use_family_cuts=False,
                                                     use_msi_separation=False,
                                                     node_limit=1))
        assert (res.status, res.value, res.stats["nodes"]) == ("node-limit", 0, 1)
        assert res.stats["upper_bound"] == Fraction(7, 2)

    def test_node_limit_on_a_split_graph(self):
        # cycle:10's parts are its odd and its even edges.  The odd part has
        # the larger root bound, 10, and is searched first, but its optimum
        # is 5: edges 1 and 5 are connected only through edges of weight
        # -100.  The optimum, 6, is edge 2 of the even part, whose root is
        # still open when the limit is hit and bounds the upper bound
        g = generate("cycle:10")
        w = [5, 6, -100, 0, 5, 0, -100, 0, -100, 0]
        res = branch_and_cut(g, w, SolveConfig(use_family_cuts=False,
                                               use_msi_separation=False,
                                               node_limit=1))
        assert (res.status, res.value) == ("node-limit", 5)
        assert res.stats["upper_bound"] >= brute_force_max_weight_cm(g, w)[0] == 6

    @pytest.mark.parametrize("limit", [0, -3])
    def test_node_limit_below_one_rejected(self, limit):
        # no node is solved, so no bound would be known
        with pytest.raises(GraphError):
            branch_and_cut(generate("cycle:6"), [1, 0, 0, 1, 0, 0],
                           SolveConfig(node_limit=limit))

    def test_log_format(self):
        g = generate("cycle:6")
        res = branch_and_cut(g, [1, 0, 0, 1, 0, 0])
        assert res.log[-1].startswith("opt 1 matching {")
        assert all(line.startswith(("node ", "opt ")) for line in res.log)

    def test_lazy_cut_path(self):
        # without family cuts and MSI separation, the integral point {e1,e4}
        # must be repaired by a lazy connectivity cut; {e1,e4,e6} is the
        # optimum.  cycle:7 is one part; on cycle:6, e1 and e4 lie in
        # different parts, so no LP point holds both
        g = generate("cycle:7")
        res = branch_and_cut(g, [1, 0, 0, 1, 0, 0, 0],
                             SolveConfig(use_family_cuts=False,
                                         use_msi_separation=False))
        assert (res.value, res.matching, res.status) == (2, (1, 4, 6), "optimal")
        assert res.stats["cuts"]["lazy"] >= 1


def disjoint_union(g, h):
    """g and h side by side: h's vertices and edge ids come after g's."""
    return Graph(g.n + h.n, g.edges + tuple((u + g.n, v + g.n) for u, v in h.edges))


class TestSolveByParts:
    CONFIGS = (SolveConfig(), SolveConfig(use_family_cuts=False),
               SolveConfig(use_family_cuts=False, use_msi_separation=False))

    @staticmethod
    def fixes(monkeypatch):
        """Record the (fixed0, fixed1) of every node LP."""
        seen = []
        solve = solver.solve_lp_exact

        def capture(model, fixed0=0, fixed1=0):
            seen.append((fixed0, fixed1))
            return solve(model, fixed0, fixed1)

        monkeypatch.setattr(solver, "solve_lp_exact", capture)
        return seen

    def test_every_lp_keeps_to_one_part(self, monkeypatch):
        # on a split graph each node LP fixes every edge outside one part to
        # 0; on a graph of one part the first LP fixes nothing
        seen = self.fixes(monkeypatch)
        for g, w in seed0_solve_cases():
            parts = edge_parts(g)
            seen.clear()
            branch_and_cut(g, w, SolveConfig(use_family_cuts=False))
            if len(parts) == 1:
                assert seen[0] == (0, 0)
            for fixed0, _ in seen:
                assert any(g.all_edges & ~fixed0 & ~p == 0 for p in parts)

    def test_seed0_lists(self):
        split = 0
        for g, w in seed0_solve_cases():
            want = brute_force_max_weight_cm(g, w)[0]
            split += len(edge_parts(g)) > 1
            for config in self.CONFIGS:
                res = branch_and_cut(g, w, config)
                assert (res.value, res.status) == (want, "optimal")
                assert res.value == sum(w[e - 1] for e in res.matching)
        assert split == 11

    def test_random_suite(self, random_suite):
        for seed, g in enumerate(random_suite):
            w = random_weights(seed + 700, g.m)
            want = brute_force_max_weight_cm(g, w)[0]
            for config in self.CONFIGS[:2]:
                assert branch_and_cut(g, w, config).value == want

    def test_disjoint_unions(self):
        # a disjoint union has the parts of both graphs, and its optimum
        # lies in one of them
        for i in range(20):
            g, h = (random_connected_graph(f"parts-union-{i}-{k}", n_lo=4, n_hi=7, m_cap=9)
                    for k in range(2))
            gh = disjoint_union(g, h)
            w = spread_weights(random.Random(f"parts-union-{i}"), gh, huge=i % 4 == 3)
            assert len(edge_parts(gh)) >= 2
            want = brute_force_max_weight_cm(gh, w)[0]
            for config in self.CONFIGS:
                assert branch_and_cut(gh, w, config).value == want

    @pytest.mark.parametrize("name,draw", [("cycle:20", 0), ("cycle:20", 1), ("cycle:24", 0),
                                           ("cycle:30", 0), ("cycle:30", 1)])
    def test_long_even_cycles_without_family_rows(self, name, draw):
        # searched as one tree these take 17-51 nodes and up to 45 s; part
        # by part at most 2 nodes per part
        g = generate(name)
        w = instances.spread_weights(random.Random(f"x-{name}-{draw}"), g)
        res = branch_and_cut(g, w, SolveConfig(use_family_cuts=False))
        assert res.value == brute_force_max_weight_cm(g, w)[0]
        assert res.stats["nodes"] <= 2 * len(edge_parts(g)) == 4

    def test_root_bound_prunes_a_part_without_an_lp(self, monkeypatch):
        # cycle:6's parts are {1,3,5} and {2,4,6}; the second part's root
        # bound, the positive part of its weight, is 1, which the first
        # part's optimum reaches, so it is pruned unsolved
        seen = self.fixes(monkeypatch)
        res = branch_and_cut(generate("cycle:6"), [1, 1, 0, 0, 0, 0],
                             SolveConfig(use_family_cuts=False))
        assert res.log == ["node 0 bound 1 cuts 0 status int",
                           "node 1 bound 1 cuts 0 status pruned", "opt 1 matching {1}"]
        assert seen == [(0b1010100, 0)] and res.stats["nodes"] == 1


class TestRootGap:
    def test_no_disconnected_pair(self):
        g = generate("complete:4")
        v0, v1 = root_gap_report(g, [1] * g.m)
        assert v0 == v1

    def test_c6(self):
        assert root_gap_report(generate("cycle:6"), [1, 0, 0, 1, 0, 0]) == (2, 1)

    def test_family_never_hurts(self):
        for seed in range(10):
            g = random_connected_graph(seed)
            w = random_weights(seed + 333, g.m)
            v0, v1 = root_gap_report(g, w)
            assert v1 <= v0

    def test_j26_strict_improvement(self):
        g = generate("j26")
        # weight concentrated on a pair carrying a family facet
        from cmpoly.polytope import classify, hrep, vrep
        fam = [classify(q, g).data for q in hrep(vrep(g)).facets
               if classify(q, g).kind == "family"]
        (e1, e2), lam = fam[0]
        w = [Fraction(0)] * g.m
        w[e1 - 1] = w[e2 - 1] = Fraction(1)
        for f in lam:
            w[f - 1] = Fraction(-1)
        v0, v1 = root_gap_report(g, w)
        assert v1 < v0


class TestFamilySeparation:
    def test_separated_rows_are_the_violated_family_rows(self, monkeypatch, random_suite):
        # at every LP point of solves with family rows, separation returns
        # exactly the rows of the whole family that the point violates
        points = []
        solve = solver.solve_lp_exact

        def capture(model, fixed0=0, fixed1=0):
            got = solve(model, fixed0, fixed1)
            if got[1] is not None:
                points.append(got[1])
            return got

        monkeypatch.setattr(solver, "solve_lp_exact", capture)
        cases = seed0_solve_cases() + [(g, random_weights(seed, g.m))
                                       for seed, g in enumerate(random_suite)]
        # petersen is one part, and its family rows cut the spread weights'
        # root points, where the even cycles of the seed-0 lists now solve
        # each part at its root
        petersen = generate("petersen")
        cases += [(petersen, spread_weights(random.Random(f"petersen-{draw}"), petersen, huge=False))
                  for draw in range(8)]
        rows = 0
        for g, w in cases:
            points.clear()
            assert branch_and_cut(g, w).value == brute_force_max_weight_cm(g, w)[0]
            family = generate_family(g)
            for x in points:
                got = separate_family(g, x)
                assert got == [q for q in family if q.evaluate(x) > q.rhs]
                rows += len(got)
        assert rows >= 30

    def test_a_priori_and_separated_optima_agree(self, monkeypatch):
        # the whole family put in the root LP up front, as solve once did,
        # against the family separated at x*: both reach brute force's
        # optimum.  cycle:31 draw 0 is the one odd cycle here; each side
        # takes about 1.3 s on it (draw 1 takes 3-4 s a side)
        base = solver.build_base_lp
        cycle31 = generate("cycle:31")
        cases = seed0_solve_cases() + [
            (cycle31, instances.spread_weights(random.Random("x-cycle:31-0"), cycle31))]
        separated = [branch_and_cut(g, w) for g, w in cases]
        monkeypatch.setattr(solver, "build_base_lp", lambda g, w: with_family(base(g, w), g))
        a_priori = [branch_and_cut(g, w) for g, w in cases]
        for (g, w), one, other in zip(cases, separated, a_priori):
            assert one.value == other.value == brute_force_max_weight_cm(g, w)[0]
            assert other.stats["family_rows"] == 0
        assert sum(res.stats["family_rows"] for res in separated) > 0
