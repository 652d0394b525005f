"""The integer-pivoting simplex against the simplices it replaced, and the
node LPs against the formulation they replaced.

`common_denominator_simplex` is the earlier `solver._simplex` whose
dictionary shared one denominator d, the last pivot, and pivoted every row
with a fraction-free (Bareiss 1968) step, the rows with a zero in the
entering column included.  It is a reference implementation, so it keeps
that step, `_bareiss_step`, here rather than importing one, and it
prices as `solver.Dictionary` does.  The per-row scales of `_simplex`
change no sign, no ratio within a row and no order within the objective
row, so on every LP of the corpus below, b < 0 included, it must return the
same (value, x, basis, pivots) tuple.  `scaled_simplex` runs `_simplex` on
a subclass of `solver.Dictionary` whose `pivot` checks, after every pivot,
that each row of the dictionary is primitive with a positive scale.

`fraction_simplex` is an earlier `solver._simplex`, kept as the reference
with two changes: its row operations skip zero entries (which leaves every
Fraction as it was and only saves time), and its phase 2 prices as
`Dictionary.primal_phase` does.  It runs a phase 1 on artificial variables
under Bland's rule with their drive-out, then the primal simplex on c, every
entry a Fraction.  It is run on every LP that
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
bound rows, eliminates the fixed columns and drops the rows they leave all
zero with rhs >= 0, must reach the same optimal value and report
infeasibility in the same cases, and its x must satisfy every old row.

`dictionary_verdict` runs the two phases of a `solver.Dictionary` by hand
and reads each verdict off the state the phase ends in: a row that proves
infeasibility, a column that proves unboundedness, or nonnegative rhs and
no positive objective entry, which prove a feasible basis optimal.
"""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from cmpoly import solver
from cmpoly.graph_core import GraphError, generate, mask_bits
from cmpoly.msi import minimal_separators, msi_row
from cmpoly.rational_la import integer_row
from cmpoly.solver import SolveConfig, _simplex, branch_and_cut, build_base_lp, solve_lp_exact

from conftest import BIG, random_connected_graph, root_gap_report, spread_weights, with_family


def fraction_simplex(c, A, b):
    """Two-phase full-tableau simplex, all-Fraction arithmetic: Bland's rule
    in phase 1, and in phase 2 the largest reduced cost enters, the least
    label among ties, except after solver.DEGENERATE_RUN degenerate pivots
    in a row, from when Bland's rule prices until the next nondegenerate
    pivot.

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

    def run_phase(obj, allowed, dantzig):
        # reduced costs z and objective value at the current basic solution
        z = list(obj)
        val = zero
        for i, bi in enumerate(basis):
            if z[bi] != 0:
                f = z[bi]
                z = [x - f * y if y else x for x, y in zip(z, T[i][:-1])]
                val += f * T[i][-1]
        in_basis = set(basis)
        run = 0
        while True:
            enter = None
            for j in range(allowed):
                if z[j] > 0 and j not in in_basis:
                    if enter is None or (dantzig and run < solver.DEGENERATE_RUN
                                         and z[j] > z[enter]):
                        enter = j
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
            run = run + 1 if T[leave][-1] == 0 else 0
            pivot(leave, enter)
            f = z[enter]
            z = [x - f * y if y else x for x, y in zip(z, T[leave][:-1])]
            val += f * T[leave][-1]

    if ncols > real:
        obj1 = [zero] * real + [Fraction(-1)] * (ncols - real)
        if run_phase(obj1, ncols, False) < 0:
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
    value = run_phase(obj2, real, True)
    x = [zero] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = T[i][-1]
    return value, x, list(basis), pivots


def _bareiss_step(row, pivot_row, col, prev):
    """(p*row - f*pivot_row) // prev with p = pivot_row[col], f = row[col].

    When both rows come from one fraction-free elimination and prev is its
    pivot before p, each entry is a minor of the input (Sylvester's
    identity), so every division is exact."""
    p, f = pivot_row[col], row[col]
    if f:
        return [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
    return [p * x // prev for x in row]


def common_denominator_simplex(c, A, b):
    """Dictionary simplex, one common denominator d.

    Row i reads d*x_basis[i] + sum_j T[i][j]*x_cols[j] = T[i][-1], with d the
    absolute value of the last pivot; a pivot is one `_bareiss_step` per row.
    Row i starts as (A_i, b_i) times the lcm of its denominators with d = 1,
    which scales its slack by that lcm: the LP and x stay the same, and the
    slacks are those of `solver.Dictionary` when A and b are integer.
    Otherwise as `solver._simplex`: a dual phase 1 on the zero objective
    under Bland's rule, then the primal simplex on c under the largest
    coefficient rule with its fallback to Bland's.
    """
    n, k = len(c), len(A)
    T = [integer_row([*a, bi, 1])[:-1] for a, bi in zip(A, b)] + [integer_row([*c, 0])]
    basis, cols = list(range(n, n + k)), list(range(n))
    d, pivots = 1, 0

    def pivot(leave, enter):
        nonlocal d, pivots
        pivots += 1
        e = T[leave]
        for i, r in enumerate(T):
            if r is not e:
                T[i] = _bareiss_step(r, e, enter, d)
                T[i][enter] = -r[enter]
        e[enter], d = d, e[enter]
        if d < 0:
            T[:] = [[-x for x in r] for r in T]
            d = -d
        basis[leave], cols[enter] = cols[enter], basis[leave]

    def least(row, sign):   # Bland: least label with sign * row[j] > 0
        return min((j for j in range(n) if sign * row[j] > 0),
                   key=cols.__getitem__, default=None)

    def largest(row):   # Dantzig: largest positive row[j], least label on ties
        top = max(row[:n], default=0)
        return min((j for j in range(n) if row[j] == top),
                   key=cols.__getitem__) if top > 0 else None

    while overdrawn := [i for i in range(k) if T[i][-1] < 0]:
        leave = min(overdrawn, key=basis.__getitem__)
        enter = least(T[leave], -1)
        if enter is None:
            return None, None, None, pivots
        pivot(leave, enter)

    run = 0
    while (enter := least(T[k], 1) if run >= solver.DEGENERATE_RUN
           else largest(T[k])) is not None:
        leave = None
        for i in range(k):
            a = T[i][enter]
            if a > 0:
                if leave is not None:
                    diff = T[i][-1] * T[leave][enter] - T[leave][-1] * a
                    if diff > 0 or (diff == 0 and basis[i] > basis[leave]):
                        continue
                leave = i
        if leave is None:
            raise GraphError("LP unbounded; missing variable bounds")
        run = run + 1 if T[leave][-1] == 0 else 0
        pivot(leave, enter)
    x = [Fraction(0)] * n
    for r, bi in zip(T, basis):
        if bi < n:
            x[bi] = Fraction(r[-1], d)
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    return value, x, basis, pivots


def assert_rows_primitive(T, scale):
    assert len(T) == len(scale)
    for row, s in zip(T, scale):
        assert type(s) is int and s > 0 and all(type(x) is int for x in row)
        assert gcd(s, *row) == 1


def scaled_simplex(c, A, b):
    """_simplex(c, A, b) on a `solver.Dictionary` whose `pivot` runs
    assert_rows_primitive on the dictionary after every pivot, required to
    equal common_denominator_simplex(c, A, b)."""
    checked = []

    class CheckedDictionary(solver.Dictionary):
        def pivot(self, leave, enter):
            super().pivot(leave, enter)
            assert_rows_primitive(self.T, self.scale)
            checked.append(enter)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "Dictionary", CheckedDictionary)
        got = _simplex(c, A, b)
    assert len(checked) == got[3]
    assert got == common_denominator_simplex(c, A, b), (c, A, b)
    return got


def old_formulation(model, fixed0=0, fixed1=0):
    """(c, A, b) of the same node LP with its rows as they were: the model rows
    and cut pool, x_e <= 1 for every edge, x_e <= 0 for each bit e of the
    edge mask fixed0 and -x_e <= -1 for each bit e of fixed1."""
    m = len(model.objective)

    def unit(e, sign):
        return [sign if f == e else 0 for f in range(1, m + 1)]

    rows = ([(list(q.coeffs), q.rhs) for q in model.rows + model.cut_pool]
            + [(unit(e, 1), 1) for e in range(1, m + 1)]
            + [(unit(e, 1), 0) for e in mask_bits(fixed0)]
            + [(unit(e, -1), -1) for e in mask_bits(fixed1)])
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
    """Route solver._simplex through scaled_simplex and a check against
    fraction_simplex on the same (c, A, b); returns the list of the (c, A, b,
    pivots, reference pivots) seen, in order."""
    seen = []

    def pinned(c, A, b):
        got = scaled_simplex(c, A, b)
        want = fraction_simplex(c, A, b)
        assert_matches_fraction_simplex(c, A, b, got, want)
        seen.append((c, A, b, got[3], want[3]))
        return got

    monkeypatch.setattr(solver, "_simplex", pinned)
    return seen


def corpus_weights(rng, g, huge):
    """Random weights: small rationals, or 30-digit numerators and
    denominators."""
    if huge:
        return [Fraction(rng.randint(-BIG // 5, BIG), rng.randint(BIG // 10, BIG))
                for _ in range(g.m)]
    return [Fraction(rng.randint(-4, 20), rng.randint(1, 4)) for _ in range(g.m)]


def touching(g, e):
    """Mask of the edges other than e that share an endpoint with e."""
    u, v = g.edges[e - 1]
    return (g.incident_masks[u] | g.incident_masks[v]) ^ 1 << e


def corpus_lps(seed):
    """(model, fixed0, fixed1) triples for one seeded graph and weight draw,
    the fixes as edge masks.

    The root LP, whose rows are the degree rows and, on even seeds, the
    whole family (`with_family`); the projected MSIs of every minimal separator of one
    non-adjacent pair (a, b) (coefficients down to -2); then, on that cut
    pool:
    - an x_e=1 fix, alone and, as branch_and_cut fixes it, with every edge
      that touches e fixed to 0, which leaves the degree rows of e's
      endpoints zero over the free columns with rhs 0;
    - a mixed x_e=0/x_f=1 fix;
    - an edge at a and an edge at b fixed to 1, which overdraws the rhs of
      the separator rows that count both;
    - both edges of a disconnected pair fixed to 1, which overdraws the
      pair's family row, so phase 1 must raise x(Λ) to 1;
    - two edges sharing a vertex fixed to 1 (infeasible), once with that
      vertex's other edges free, once with them fixed to 0, so the vertex's
      degree row reads 0 <= -1, and once with every edge that touches
      either fixed to 0;
    - one edge fixed to 1 and every other edge fixed to 0, so no column is
      left.
    """
    rng = random.Random(seed)
    g = random_connected_graph(seed, n_hi=8, m_cap=10)
    w = corpus_weights(rng, g, huge=seed % 3 == 2)
    model = build_base_lp(g, w)
    if seed % 2 == 0:
        with_family(model, g)
    yield model, 0, 0
    pairs = [(a, b) for a in range(1, g.n + 1) for b in range(a + 1, g.n + 1)
             if g.edge_id(a, b) is None]
    if pairs:
        a, b = rng.choice(pairs)
        model.cut_pool.extend(msi_row(g, a, b, C) for C in minimal_separators(g, a, b))
        yield model, 0, 0
        ea, eb = rng.choice(g.incident_edges(a)), rng.choice(g.incident_edges(b))
        yield model, 0, 1 << ea | 1 << eb
    e, f = rng.sample(mask_bits(g.all_edges), 2)
    yield model, 0, 1 << e
    yield model, touching(g, e), 1 << e
    yield model, 1 << e, 1 << f
    for q in model.rows:
        if q.tag == "family":
            yield model, 0, sum(1 << (j + 1) for j, coef in enumerate(q.coeffs) if coef == 1)
            break
    v = max(range(1, g.n + 1), key=lambda u: len(g.incident_edges(u)))
    two = sum(1 << e for e in g.incident_edges(v)[:2])
    yield model, 0, two
    yield model, g.incident_masks[v] ^ two, two
    e1, e2 = mask_bits(two)
    yield model, (touching(g, e1) | touching(g, e2)) ^ two, two
    yield model, g.all_edges ^ 1 << e, 1 << e


def test_integer_simplex_matches_fraction_simplex(monkeypatch):
    seen = pin_simplex(monkeypatch)
    lps = phase1 = infeasible = minus2 = empty = dropped = family = 0
    dual_pivots = reference_pivots = 0
    for seed in range(60):
        for model, fixed0, fixed1 in corpus_lps(seed):
            # a fix that overdraws a family row
            family += any(q.tag == "family" and sum(q.coeffs[e - 1] for e in mask_bits(fixed1)) > 1
                          for q in model.rows)
            got = solve_lp_exact(model, fixed0, fixed1)
            assert_solves_old_formulation(model, fixed0, fixed1, got)
            c, A, b, pivots, reference = seen[-1]
            lps += 1
            dropped += len(A) < len(model.rows) + len(model.cut_pool)
            if any(bi < 0 for bi in b):
                phase1 += 1
                dual_pivots += pivots
                reference_pivots += reference
            infeasible += got[0] is None
            minus2 += any(-2 in q.coeffs for q in model.cut_pool)
            empty += not c
    assert len(seen) == lps
    assert lps >= 250 and phase1 >= 150 and infeasible >= 50 and minus2 >= 50
    assert empty >= 50 and dropped >= 150 and family >= 10
    assert dual_pivots <= reference_pivots


def test_branch_and_cut_lps_match_fraction_simplex(monkeypatch):
    # every LP of whole solves on cycles with spread weights: MSI and lazy
    # cut pools of several rounds, and the fixes of each branch.  Without
    # family rows and MSI separation the trees go deep enough for fixes to
    # overdraw a row, so those LPs run phase 1; most of them are on cycles
    # 13 and 15, which are one part each, while cycle:10 splits into two
    # parts, each solved from its own root with the other part fixed to 0.
    seen = pin_simplex(monkeypatch)
    lps = phase1 = cut = 0
    solve = solver.solve_lp_exact

    def checked(model, fixed0=0, fixed1=0):
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
        for name in ("cycle:10", "cycle:13", "cycle:15"):
            g = generate(name)
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
            fraction_simplex(*old_formulation(model))[0]
            for model in (build_base_lp(g, w), with_family(build_base_lp(g, w), g)))
        assert root_gap_report(g, w) == want
        assert any(v.denominator > 10 ** 20 for v in want)


def random_lp(rng, ns, ks, bs):
    """(c, A, b) not drawn from a graph: n in the range ns of columns, k in
    ks of rows, integer entries in [-3, 3], rhs in bs and rational c."""
    n, k = rng.randint(*ns), rng.randint(*ks)
    c = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
    A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
    b = [rng.randint(*bs) for _ in range(k)]
    return c, A, b


def test_random_lps_match_fraction_simplex():
    # LPs not drawn from graphs, integer entries in [-3, 3] and rational c,
    # in two regimes: small ones, n = 1-4 columns, k = 1-6 rows and rhs in
    # [-3, 3]; and tall ones, n = 2-6, k = 8-24 and rhs in [0, 4], whose
    # (value, x, basis, pivots) is pinned exactly.  The tall LPs pivot often
    # enough that a nonbasic variable's label and its column position part,
    # which neither pricing rule may confuse.  Both sides give the same
    # verdict, and unbounded LPs raise on both
    rng = random.Random(11)
    lps = negative = infeasible = unbounded = tall = 0
    for count, ns, ks, bs in ((400, (1, 4), (1, 6), (-3, 3)),
                              (200, (2, 6), (8, 24), (0, 4))):
        for _ in range(count):
            c, A, b = random_lp(rng, ns, ks, bs)
            k = len(A)
            lps += 1
            negative += any(bi < 0 for bi in b)
            try:
                want = fraction_simplex(c, A, b)
            except GraphError:
                with pytest.raises(GraphError, match="unbounded"):
                    _simplex(c, A, b)
                with pytest.raises(GraphError, match="unbounded"):
                    common_denominator_simplex(c, A, b)
                unbounded += 1
                continue
            assert_matches_fraction_simplex(c, A, b, scaled_simplex(c, A, b), want)
            infeasible += want[0] is None
            tall += k >= 8
    assert lps >= 300 and negative >= 100 and infeasible >= 30 and unbounded >= 10
    assert tall >= 100


def test_dual_pivot_is_negative():
    # max x s.t. -x <= -1, x <= 1.  Row 0 has rhs -1 and its one negative
    # entry is x's -1, so the dual pivot is negative and the leaving row is
    # negated to keep its scale positive; phase 2 then brings s0 in on row 1
    # at zero.
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


# Beale (1955): max 3/4 x1 - 150 x2 + 1/50 x3 - 6 x4
BEALE = ([Fraction(3, 4), Fraction(-150), Fraction(1, 50), Fraction(-6)],
         [[Fraction(1, 4), Fraction(-60), Fraction(-1, 25), Fraction(9)],
          [Fraction(1, 2), Fraction(-90), Fraction(-1, 50), Fraction(3)],
          [Fraction(0), Fraction(0), Fraction(1), Fraction(0)]],
         [Fraction(0), Fraction(0), Fraction(1)])
# Chvatal, Linear Programming (1983), ch. 3: max 10 x1 - 57 x2 - 9 x3 - 24 x4
CHVATAL = ([Fraction(10), Fraction(-57), Fraction(-9), Fraction(-24)],
           [[Fraction(1, 2), Fraction(-11, 2), Fraction(-5, 2), Fraction(9)],
            [Fraction(1, 2), Fraction(-3, 2), Fraction(-1, 2), Fraction(1)],
            [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]],
           [Fraction(0), Fraction(0), Fraction(1)])


@pytest.mark.parametrize("lp,value,x,pivots", [
    (BEALE, Fraction(1, 20), [Fraction(1, 25), 0, 1, 0], 6),
    (CHVATAL, Fraction(1), [1, 0, 1, 0], 7),
], ids=["beale", "chvatal"])
def test_blands_rule_leaves_textbook_cycles(lp, value, x, pivots, monkeypatch):
    # both LPs cycle under the largest-coefficient rule on their degenerate
    # rows 1 and 2; Bland's rule alone (`Dictionary.least` from the first
    # pivot, a fallback after no degenerate pivot) must leave the cycle and
    # reach the optimum
    monkeypatch.setattr(solver, "DEGENERATE_RUN", 0)
    got = scaled_simplex(*lp)
    assert_matches_fraction_simplex(*lp, got, fraction_simplex(*lp))
    assert (got[0], got[1], got[3]) == (value, x, pivots)


@pytest.mark.parametrize("lp,value,x,pivots", [
    (BEALE, Fraction(1, 20), [Fraction(1, 25), 0, 1, 0], 54),
    (CHVATAL, Fraction(1), [1, 0, 1, 0], 55),
], ids=["beale", "chvatal"])
def test_largest_coefficient_rule_falls_back_to_bland(lp, value, x, pivots):
    # the largest coefficient enters until DEGENERATE_RUN degenerate pivots
    # in a row; then Bland's rule leaves the cycle, in a few more pivots
    got = _simplex(*lp)
    assert got == fraction_simplex(*lp)
    assert (got[0], got[1], got[3]) == (value, x, pivots)
    assert pivots > solver.DEGENERATE_RUN


def dictionary_verdict(c, A, b):
    """Run both phases on a `solver.Dictionary` by hand and check that the
    state each phase ends in proves its verdict, which it returns:
    - "infeasible": some row has a negative rhs and no negative entry, so a
      sum of nonnegative variables would be negative;
    - "unbounded": a column with a positive objective entry has no
      positive entry in any constraint row, so its variable grows without
      bound;
    - "optimal": every rhs is nonnegative after the dual phase, and no
      objective entry is positive after the primal phase.
    Every scale stays positive, each solution() is a point of the LP, and
    the final state reads as _simplex(c, A, b)."""
    d = solver.Dictionary(c, A, b)
    n, k = len(c), len(A)
    feasible = d.dual_phase()
    assert all(s > 0 for s in d.scale)
    if not feasible:
        assert any(r[-1] < 0 and all(x >= 0 for x in r[:n]) for r in d.T[:k])
        assert _simplex(c, A, b)[0] is None
        return "infeasible"
    assert all(r[-1] >= 0 for r in d.T[:k])
    x = d.solution()
    assert_optimal_point(c, A, b, sum(cj * xj for cj, xj in zip(c, x)), x)
    try:
        d.primal_phase()
    except GraphError:
        assert any(d.T[k][j] > 0 and all(r[j] <= 0 for r in d.T[:k]) for j in range(n))
        return "unbounded"
    assert all(s > 0 for s in d.scale)
    assert all(v <= 0 for v in d.T[k][:n])
    x = d.solution()
    value = sum(cj * xj for cj, xj in zip(c, x))
    assert_optimal_point(c, A, b, value, x)
    assert _simplex(c, A, b) == (value, x, d.basis, d.pivots)
    return "optimal"


def test_dictionary_end_state_is_a_certificate(monkeypatch):
    # on every LP the corpus hands to _simplex, and on small random LPs
    lps = []
    simplex = solver._simplex

    def recorded(c, A, b):
        lps.append((c, A, b))
        return simplex(c, A, b)

    monkeypatch.setattr(solver, "_simplex", recorded)
    for seed in range(60):
        for model, fixed0, fixed1 in corpus_lps(seed):
            solve_lp_exact(model, fixed0, fixed1)
    corpus = Counter(dictionary_verdict(c, A, b) for c, A, b in lps)
    assert corpus["optimal"] >= 300 and corpus["infeasible"] >= 100
    rng = random.Random(7)
    drawn = Counter(dictionary_verdict(*random_lp(rng, (1, 4), (1, 6), (-3, 3)))
                    for _ in range(400))
    assert min(drawn[v] for v in ("optimal", "infeasible", "unbounded")) >= 80


class IntegerRowDictionary(solver.Dictionary):
    """`solver.Dictionary` with every row built by `integer_row`, as it was
    before int rows were taken as they stand."""

    def __init__(self, c, A, b):
        n, k = len(c), len(A)
        rows = [integer_row([*a, bi, 1]) for a, bi in zip(A, b)]
        self.T = [r[:-1] for r in rows] + [integer_row([*c, 0])]
        self.basis, self.cols = list(range(n, n + k)), list(range(n))
        self.scale, self.pivots = [r[-1] for r in rows] + [1], 0


def dictionary_state(d):
    return d.T, d.scale, d.basis, d.cols, d.pivots


def test_int_rows_build_the_integer_row_dictionary(monkeypatch):
    # every LP the corpus hands to _simplex has int rows; the dictionary
    # built from them as they stand is the integer_row one, entry for entry,
    # and so is every state after it, through both phases
    lps = []
    simplex = solver._simplex

    def recorded(c, A, b):
        lps.append((c, A, b))
        return simplex(c, A, b)

    monkeypatch.setattr(solver, "_simplex", recorded)
    for seed in range(60):
        for model, fixed0, fixed1 in corpus_lps(seed):
            solve_lp_exact(model, fixed0, fixed1)
    infeasible = pivoted = 0
    for c, A, b in lps:
        assert all(type(x) is int for a, bi in zip(A, b) for x in (*a, bi))
        got, want = solver.Dictionary(c, A, b), IntegerRowDictionary(c, A, b)
        assert dictionary_state(got) == dictionary_state(want)
        assert all(s == 1 for s in got.scale)
        feasible = got.dual_phase()
        assert feasible == want.dual_phase()
        if feasible:
            got.primal_phase()
            want.primal_phase()
            assert got.solution() == want.solution()
        assert dictionary_state(got) == dictionary_state(want)
        infeasible += not feasible
        pivoted += got.pivots > 0
    assert len(lps) >= 300 and infeasible >= 100 and pivoted >= 300


def test_fraction_and_bool_rows_take_integer_row(monkeypatch):
    # a row with a Fraction or a bool in it, rhs included, is scaled by
    # integer_row; an int row is not, and only the objective row joins it
    calls = []

    def spied(values):
        calls.append(list(values))
        return integer_row(values)

    monkeypatch.setattr(solver, "integer_row", spied)
    c = [Fraction(1), Fraction(1, 2)]
    A = [[Fraction(1, 2), 1], [True, 0], [2, 4], [1, 1]]
    b = [1, 1, Fraction(6), 3]
    d = solver.Dictionary(c, A, b)
    assert calls == [[Fraction(1, 2), 1, 1, 1], [True, 0, 1, 1],
                     [2, 4, Fraction(6), 1], [Fraction(1), Fraction(1, 2), 0]]
    assert d.T == [[1, 2, 2], [1, 0, 1], [2, 4, 6], [1, 1, 3], [2, 1, 0]]
    assert d.scale == [2, 1, 1, 1, 1]
    assert all(type(x) is int for r in d.T for x in r)
    assert dictionary_state(d) == dictionary_state(IntegerRowDictionary(c, A, b))
