import random
from fractions import Fraction

import pytest

from cmpoly import solver
from cmpoly.graph_core import Graph, GraphError, generate
from cmpoly.matchings import brute_force_max_weight_cm, enumerate_connected_matchings, is_connected_matching
from cmpoly.solver import SolveConfig, branch_and_cut, build_base_lp, solve_lp_exact

from conftest import assert_primitive_int_row, random_connected_graph, root_gap_report


def random_weights(seed, m):
    rng = random.Random(seed)
    return [max(min(Fraction(rng.randint(-20, 20), rng.randint(1, 4)),
                    Fraction(5)), Fraction(-5)) for _ in range(m)]


class TestBuildBaseLp:
    def test_path3(self):
        g = generate("path:3")
        model = build_base_lp(g, [1, 1], SolveConfig(use_family_cuts=False))
        assert [q.tag for q in model.rows] == ["degree"] * 3
        # P3 has no disconnected pair, so family cuts add nothing
        model = build_base_lp(g, [1, 1], SolveConfig(use_family_cuts=True))
        assert not any(q.tag == "family" for q in model.rows)

    @pytest.mark.parametrize("family", [False, True])
    def test_degree_rows_bound_every_edge(self, family):
        # no bound rows: every edge column has a +1 in some degree row, so
        # with x >= 0 the degree rows imply x_e <= 1 and keep the LP bounded
        graphs = [random_connected_graph(seed, n_hi=10, m_cap=16) for seed in range(30)]
        graphs += [Graph(6, ((1, 2), (2, 3), (4, 5))),   # K2 component, isolated 6
                   Graph(2, ((1, 2),)), Graph(3, ())]
        for g in graphs:
            model = build_base_lp(g, [1] * g.m, SolveConfig(use_family_cuts=family))
            assert {q.tag for q in model.rows} <= {"degree", "family"}
            degree = [q for q in model.rows if q.tag == "degree"]
            assert all(any(q.coeffs[e - 1] == 1 for q in degree)
                       for e in range(1, g.m + 1)), g

    def test_c6_family_rows(self):
        g = generate("cycle:6")
        model = build_base_lp(g, [0] * 6, SolveConfig(use_family_cuts=True))
        fam = {q.canonical() for q in model.rows if q.tag == "family"}
        assert ((1, 0, 0, 1, 0, 0), 1) in fam
        assert len(fam) == 3

    def test_j26_family_rows(self):
        g = generate("j26")
        model = build_base_lp(g, [0] * 14)
        assert sum(1 for q in model.rows if q.tag == "family") >= 5

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
        value, _, _ = solve_lp_exact(build_base_lp(g, w))
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
        value, x, _ = solve_lp_exact(model, fixed1={1, 2})
        assert value is None and x is None

    def test_fixed_columns_put_back(self):
        # path:4 with x1 = 1 and x3 = 0: x2 is forced to 0 by vertex 2, and
        # the value counts the fixed edge's weight
        g = generate("path:4")
        model = build_base_lp(g, [3, 5, 7])
        value, x, _ = solve_lp_exact(model, fixed0={3}, fixed1={1})
        assert (value, x) == (3, [1, 0, 0])
        # every column fixed: no LP is left, only the fixed point
        value, x, pivots = solve_lp_exact(model, fixed0={2}, fixed1={1, 3})
        assert (value, x, pivots) == (10, [1, 0, 1], 0)


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

        def capture(model, fixed0=frozenset(), fixed1=frozenset()):
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

    def test_determinism(self):
        g = random_connected_graph(7)
        w = random_weights(7, g.m)
        a = branch_and_cut(g, w)
        b = branch_and_cut(g, w)
        sa = {k: v for k, v in a.stats.items() if k != "wall_time"}
        sb = {k: v for k, v in b.stats.items() if k != "wall_time"}
        assert (a.value, a.matching, a.status, sa) == (b.value, b.matching, b.status, sb)
        assert a.log == b.log

    def test_node_limit(self):
        g = generate("cycle:6")
        res = branch_and_cut(g, [1, 0, 0, 1, 0, 0],
                             SolveConfig(use_family_cuts=False,
                                         use_msi_separation=False,
                                         node_limit=1))
        assert res.status == "node-limit"
        assert res.stats["upper_bound"] >= res.value

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
        # must be repaired by a lazy connectivity cut
        g = generate("cycle:6")
        res = branch_and_cut(g, [1, 0, 0, 1, 0, 0],
                             SolveConfig(use_family_cuts=False,
                                         use_msi_separation=False))
        assert res.value == 1 and res.status == "optimal"
        assert res.stats["cuts"]["lazy"] >= 1


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
