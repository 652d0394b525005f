"""The integer-pivoting simplex against the all-Fraction simplex it replaced,
and the node LPs against the formulation they replaced.

`fraction_simplex` is an earlier `solver._simplex`, kept as the reference
with one change, that its row operations skip zero entries (which leaves
every Fraction as it was and only saves time): a phase 1 on artificial
variables with their drive-out, then the primal simplex on c, Bland's rule
throughout, every entry a Fraction.  It is run on every LP that
`solve_lp_exact` hands to `_simplex` (base rows,
branching fixes, MSI and lazy cut pools, weights from small rationals up to
30-digit numerators and denominators) and on random LPs not drawn from graphs:
- when b >= 0 neither runs a phase 1 and both take the same primal pivots,
  so (value, x, basis, pivots) is pinned exactly;
- when some rhs is negative, `_simplex` reaches a feasible basis by the dual
  simplex instead, so only values are compared: the same infeasibility
  verdict and optimal value, and an x that is feasible and attains it.
  Bases and pivot counts may differ; over the recorded corpus the dual
  phase 1 takes no more pivots in total.

The node LPs once carried one x_e <= 1 row per edge and one row per branching
fix.  `old_formulation` rebuilds that LP; `solve_lp_exact`, which drops the
bound rows and eliminates the fixed columns, must reach the same optimal
value and report infeasibility in the same cases, and its x must satisfy
every old row.
"""

import random
from fractions import Fraction

import pytest

from cmpoly import solver
from cmpoly.graph_core import GraphError, generate, line_distance
from cmpoly.msi import minimal_separators_brute, project_msi
from cmpoly.solver import SolveConfig, _simplex, branch_and_cut, build_base_lp, solve_lp_exact

from conftest import random_connected_graph, root_gap_report


def fraction_simplex(c, A, b):
    """Two-phase full-tableau simplex, Bland's rule, all-Fraction arithmetic.

    Maximizes c.x subject to A x <= b, x >= 0.  Columns: n structural vars,
    k slacks, then artificials for rows with negative rhs.
    """
    n = len(c)
    k = len(A)
    real = n + k
    T = []
    need_art = []
    for i in range(k):
        row = [Fraction(x) for x in A[i]] + [Fraction(0)] * k + [Fraction(b[i])]
        row[n + i] = Fraction(1)
        if b[i] < 0:
            row = [-x for x in row]
            need_art.append(i)
        T.append(row)
    ncols = real
    basis = []
    for i in range(k):
        if i in need_art:
            for r in T:
                r.insert(ncols, Fraction(0))
            T[i][ncols] = Fraction(1)
            basis.append(ncols)
            ncols += 1
        else:
            basis.append(n + i)
    pivots = 0
    zero = Fraction(0)

    def pivot(leave, enter):
        nonlocal pivots
        pivots += 1
        piv = T[leave][enter]
        T[leave] = [x / piv if x else x for x in T[leave]]
        for i in range(len(T)):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [x - f * y if y else x for x, y in zip(T[i], T[leave])]
        basis[leave] = enter

    def run_phase(obj, allowed):
        # reduced costs z and objective value at the current basic solution
        z = list(obj)
        val = zero
        for i, bi in enumerate(basis):
            if z[bi] != 0:
                f = z[bi]
                z = [x - f * y if y else x for x, y in zip(z, T[i][:-1])]
                val += f * T[i][-1]
        in_basis = set(basis)
        while True:
            enter = None
            for j in range(allowed):
                if z[j] > 0 and j not in in_basis:
                    enter = j
                    break
            if enter is None:
                return val
            leave = None
            best = None
            for i in range(len(T)):
                if T[i][enter] > 0:
                    ratio = T[i][-1] / T[i][enter]
                    if best is None or ratio < best or (
                            ratio == best and basis[i] < basis[leave]):
                        best = ratio
                        leave = i
            if leave is None:
                raise GraphError("LP unbounded; missing variable bounds")
            in_basis.discard(basis[leave])
            in_basis.add(enter)
            pivot(leave, enter)
            f = z[enter]
            z = [x - f * y if y else x for x, y in zip(z, T[leave][:-1])]
            val += f * T[leave][-1]

    if ncols > real:
        obj1 = [zero] * real + [Fraction(-1)] * (ncols - real)
        if run_phase(obj1, ncols) < 0:
            return None, None, None, pivots
        # drive basic artificials (all at zero) out, dropping redundant rows
        for i in reversed(range(len(T))):
            if basis[i] >= real:
                enter = next((j for j in range(real) if T[i][j] != 0), None)
                if enter is None:
                    del T[i]
                    del basis[i]
                else:
                    pivot(i, enter)

    obj2 = [Fraction(x) for x in c] + [zero] * (ncols - n)
    value = run_phase(obj2, real)
    x = [zero] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = T[i][-1]
    return value, x, list(basis), pivots


def old_formulation(model, fixed0=(), fixed1=()):
    """(c, A, b) of the same node LP with its rows as they were: the model rows
    and cut pool, x_e <= 1 for every edge, x_e <= 0 for e in fixed0 and
    -x_e <= -1 for e in fixed1."""
    m = len(model.objective)

    def unit(e, sign):
        return [sign if f == e else 0 for f in range(1, m + 1)]

    rows = ([(list(q.coeffs), q.rhs) for q in model.rows + model.cut_pool]
            + [(unit(e, 1), 1) for e in range(1, m + 1)]
            + [(unit(e, 1), 0) for e in sorted(fixed0)]
            + [(unit(e, -1), -1) for e in sorted(fixed1)])
    return list(model.objective), [a for a, _ in rows], [b for _, b in rows]


def assert_optimal_point(c, A, b, value, x):
    """x is a point of A x <= b, x >= 0 with c.x = value; x is None when
    value is None (infeasible)."""
    if value is None:
        assert x is None
        return
    assert all(xj >= 0 for xj in x)
    assert all(sum(a * xj for a, xj in zip(row, x)) <= bi for row, bi in zip(A, b))
    assert sum(cj * xj for cj, xj in zip(c, x)) == value


def assert_solves_old_formulation(model, fixed0, fixed1, got):
    """`got` = solve_lp_exact(model, fixed0, fixed1) has the optimal value of
    the old formulation, or is infeasible with it, and its x is an optimal
    point of it."""
    c, A, b = old_formulation(model, fixed0, fixed1)
    value, x, _pivots = got
    assert value == fraction_simplex(c, A, b)[0]
    assert_optimal_point(c, A, b, value, x)


def assert_matches_fraction_simplex(c, A, b, got, want):
    """`got` = _simplex(c, A, b) against `want` = fraction_simplex(c, A, b):
    the same tuple when b >= 0, else the same verdict and value at an optimal
    point."""
    if all(bi >= 0 for bi in b):
        assert got == want, (c, A, b)
        return
    assert got[0] == want[0], (c, A, b)
    assert_optimal_point(c, A, b, got[0], got[1])


def pin_simplex(monkeypatch):
    """Route solver._simplex through a check against fraction_simplex on the
    same (c, A, b); returns the list of the (c, A, b, pivots, reference
    pivots) seen, in order."""
    seen = []
    simplex = solver._simplex

    def pinned(c, A, b):
        got = simplex(c, A, b)
        want = fraction_simplex(c, A, b)
        assert_matches_fraction_simplex(c, A, b, got, want)
        seen.append((c, A, b, got[3], want[3]))
        return got

    monkeypatch.setattr(solver, "_simplex", pinned)
    return seen


BIG = 10 ** 30


def corpus_weights(rng, g, huge):
    """Random weights: small rationals, or 30-digit numerators and
    denominators."""
    if huge:
        return [Fraction(rng.randint(-BIG // 5, BIG), rng.randint(BIG // 10, BIG))
                for _ in range(g.m)]
    return [Fraction(rng.randint(-4, 20), rng.randint(1, 4)) for _ in range(g.m)]


def spread_weights(rng, g, huge):
    """Weights in [3/2, 8] on a maximal set of edges pairwise at line-graph
    distance >= 3 and in [0, 1] on the rest, so the LP optimum tends to be
    disconnected and branch-and-cut has to cut and branch; with `huge`, each
    is scaled by a 30-digit ratio in [1/2, 2]."""
    heavy = []
    for e in rng.sample(range(1, g.m + 1), g.m):
        if all(line_distance(g, e, f) >= 3 for f in heavy):
            heavy.append(e)
    w = [Fraction(rng.randint(12, 64) if e in heavy else rng.randint(0, 8), 8)
         for e in range(1, g.m + 1)]
    if huge:
        w = [x * Fraction(rng.randint(BIG, 2 * BIG), rng.randint(BIG, 2 * BIG))
             for x in w]
    return w


def corpus_lps(seed):
    """(model, fixed0, fixed1) triples for one seeded graph and weight draw.

    The root LP; the projected MSIs of every minimal separator of one
    non-adjacent pair (a, b) (coefficients down to -2); then, on that cut
    pool:
    - an x_e=1 fix, and a mixed x_e=0/x_f=1 fix;
    - an edge at a and an edge at b fixed to 1, which overdraws the rhs of
      the separator rows that count both;
    - both edges of a disconnected pair fixed to 1, which overdraws the
      pair's family row, so phase 1 must raise x(Λ) to 1;
    - two edges sharing a vertex fixed to 1 (infeasible), once with that
      vertex's other edges free and once with them fixed to 0, so the
      vertex's degree row reads 0 <= -1;
    - one edge fixed to 1 and every other edge fixed to 0, so no column is
      left.
    """
    rng = random.Random(seed)
    g = random_connected_graph(seed, n_hi=8, m_cap=10)
    w = corpus_weights(rng, g, huge=seed % 3 == 2)
    model = build_base_lp(g, w, SolveConfig(use_family_cuts=seed % 2 == 0))
    edges = set(range(1, g.m + 1))
    yield model, set(), set()
    pairs = [(a, b) for a in range(1, g.n + 1) for b in range(a + 1, g.n + 1)
             if g.edge_id(a, b) is None]
    if pairs:
        a, b = rng.choice(pairs)
        model.cut_pool.extend(project_msi(g, s)
                              for s in minimal_separators_brute(g, a, b))
        yield model, set(), set()
        ea, eb = rng.choice(g.incident_edges(a)), rng.choice(g.incident_edges(b))
        yield model, set(), {ea, eb}
    e, f = rng.sample(sorted(edges), 2)
    yield model, set(), {e}
    yield model, {e}, {f}
    for q in model.rows:
        if q.tag == "family":
            yield model, set(), {j + 1 for j, coef in enumerate(q.coeffs) if coef == 1}
            break
    v = max(range(1, g.n + 1), key=lambda u: len(g.incident_edges(u)))
    two = set(g.incident_edges(v)[:2])
    yield model, set(), two
    yield model, set(g.incident_edges(v)) - two, two
    yield model, edges - {e}, {e}


def test_integer_simplex_matches_fraction_simplex(monkeypatch):
    seen = pin_simplex(monkeypatch)
    lps = phase1 = infeasible = minus2 = empty = 0
    dual_pivots = reference_pivots = 0
    for seed in range(60):
        for model, fixed0, fixed1 in corpus_lps(seed):
            got = solve_lp_exact(model, fixed0, fixed1)
            assert_solves_old_formulation(model, fixed0, fixed1, got)
            c, _, b, pivots, reference = seen[-1]
            lps += 1
            if any(bi < 0 for bi in b):
                phase1 += 1
                dual_pivots += pivots
                reference_pivots += reference
            infeasible += got[0] is None
            minus2 += any(-2 in q.coeffs for q in model.cut_pool)
            empty += not c
    assert len(seen) == lps
    assert lps >= 250 and phase1 >= 150 and infeasible >= 50 and minus2 >= 50
    assert empty >= 50
    assert dual_pivots <= reference_pivots


def test_branch_and_cut_lps_match_fraction_simplex(monkeypatch):
    # every LP of whole solves on cycles with spread weights: MSI and lazy
    # cut pools of several rounds, and the fixes of each branch.  Without
    # family rows and MSI separation the trees on cycle:10 go deep
    # enough for fixes to overdraw a row, so those LPs run phase 1.
    seen = pin_simplex(monkeypatch)
    lps = phase1 = cut = 0
    solve = solver.solve_lp_exact

    def checked(model, fixed0=frozenset(), fixed1=frozenset()):
        nonlocal lps, phase1, cut
        got = solve(model, fixed0, fixed1)
        assert_solves_old_formulation(model, fixed0, fixed1, got)
        lps += 1
        phase1 += any(bi < 0 for bi in seen[-1][2])
        cut += bool(model.cut_pool)
        return got

    monkeypatch.setattr(solver, "solve_lp_exact", checked)
    for seed in range(20):
        rng = random.Random(seed)
        g = generate(f"cycle:{7 + seed % 4}")
        w = spread_weights(rng, g, huge=seed % 3 == 2)
        branch_and_cut(g, w, SolveConfig(use_family_cuts=seed % 4 == 0))
        g = generate("cycle:10")
        w = spread_weights(rng, g, huge=False)
        branch_and_cut(g, w, SolveConfig(use_family_cuts=False,
                                         use_msi_separation=False))
    assert lps >= 90 and phase1 >= 25 and cut >= 70


def test_root_gap_report_with_huge_weights():
    # 30-digit rational weights: both root values equal the old formulation's
    for seed in range(12):
        rng = random.Random(seed)
        g = random_connected_graph(seed, n_hi=8, m_cap=10)
        w = corpus_weights(rng, g, huge=True)
        want = tuple(
            fraction_simplex(*old_formulation(
                build_base_lp(g, w, SolveConfig(use_family_cuts=fam))))[0]
            for fam in (False, True))
        assert root_gap_report(g, w) == want
        assert any(v.denominator > 10 ** 20 for v in want)


def test_random_lps_match_fraction_simplex():
    # LPs not drawn from graphs, integer entries in [-3, 3] and rational c,
    # in two regimes: small ones, n = 1-4 columns, k = 1-6 rows and rhs in
    # [-3, 3]; and tall ones, n = 2-6, k = 8-24 and rhs in [0, 4], whose
    # (value, x, basis, pivots) is pinned exactly.  The tall LPs pivot often
    # enough that a nonbasic variable's label and its column position part,
    # which Bland's rule must not confuse.  Both sides give the same verdict,
    # and unbounded LPs raise on both
    rng = random.Random(11)
    lps = negative = infeasible = unbounded = tall = 0
    for count, ns, ks, bs in ((400, (1, 4), (1, 6), (-3, 3)),
                              (200, (2, 6), (8, 24), (0, 4))):
        for _ in range(count):
            n, k = rng.randint(*ns), rng.randint(*ks)
            c = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
            A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            b = [rng.randint(*bs) for _ in range(k)]
            lps += 1
            negative += any(bi < 0 for bi in b)
            try:
                want = fraction_simplex(c, A, b)
            except GraphError:
                with pytest.raises(GraphError, match="unbounded"):
                    _simplex(c, A, b)
                unbounded += 1
                continue
            assert_matches_fraction_simplex(c, A, b, _simplex(c, A, b), want)
            infeasible += want[0] is None
            tall += k >= 8
    assert lps >= 300 and negative >= 100 and infeasible >= 30 and unbounded >= 10
    assert tall >= 100


def test_dual_pivot_is_negative():
    # max x s.t. -x <= -1, x <= 1.  Row 0 has rhs -1 and its one negative
    # entry is x's -1, so the dual pivot is negative and the integer tableau
    # is negated; phase 2 then brings s0 in on row 1 at zero.
    c, A, b = [Fraction(1)], [[Fraction(-1)], [Fraction(1)]], [Fraction(-1), Fraction(1)]
    got = _simplex(c, A, b)
    assert got[:2] == fraction_simplex(c, A, b)[:2] == (1, [1])
    assert got[2:] == ([0, 1], 2)


def test_duplicate_rows_stay_basic_at_zero():
    # x = 1 written twice.  One dual pivot (x into row 1) leaves the slacks
    # of rows 0, 2 and 3 basic at zero; phase 2 breaks the zero-ratio tie
    # between rows 0 and 2 by the least basic label.
    c = [Fraction(2)]
    A = [[Fraction(1)], [Fraction(-1)], [Fraction(2)], [Fraction(-2)]]
    b = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)]
    got = _simplex(c, A, b)
    assert got[:2] == fraction_simplex(c, A, b)[:2] == (2, [1])
    assert got[2:] == ([2, 0, 3, 4], 2)
