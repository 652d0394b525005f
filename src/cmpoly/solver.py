"""Exact branch-and-cut for maximum-weight connected matching.

The LP relaxation (bounds, degree rows, optional a priori family cuts) is
solved by a two-phase rational simplex with Bland's rule, so every bound and
optimality claim is exact.  Fractional points are attacked with projected
minimal separator cuts; integral but disconnected matchings trigger lazy
connectivity cuts; remaining fractionality is resolved by branching.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from .facet_family import generate_family
from .graph_core import GraphError
from .inequality import Inequality
from .matchings import is_connected_matching
from .msi import lazy_cut_for_disconnected, separate_fractional


@dataclass
class SolveConfig:
    use_family_cuts: bool = True
    use_msi_separation: bool = True
    node_limit: int = 100_000
    cut_rounds: int = 5


@dataclass
class Model:
    graph: object
    objective: tuple
    rows: list
    cut_pool: list = field(default_factory=list)
    config: SolveConfig = field(default_factory=SolveConfig)


@dataclass
class SolveResult:
    value: Fraction
    matching: tuple
    status: str
    stats: dict
    log: list


def build_base_lp(g, w, config=None):
    """Bounds and degree rows; family rows appended a priori when enabled."""
    config = config or SolveConfig()
    w = tuple(Fraction(x) for x in w)
    if len(w) != g.m:
        raise GraphError(f"expected {g.m} weights, got {len(w)}")
    rows = []
    for e in range(1, g.m + 1):
        coeffs = [Fraction(0)] * g.m
        coeffs[e - 1] = Fraction(1)
        rows.append(Inequality(coeffs, Fraction(1), tag="bound",
                               provenance=f"ub x{e}"))
    for v in range(1, g.n + 1):
        inc = g.incident_edges(v)
        if not inc:
            continue
        coeffs = [Fraction(0)] * g.m
        for e in inc:
            coeffs[e - 1] = Fraction(1)
        rows.append(Inequality(coeffs, Fraction(1), tag="degree",
                               provenance=f"v={v}"))
    if config.use_family_cuts:
        rows.extend(q for q, _cert in generate_family(g))
    return Model(graph=g, objective=w, rows=rows, config=config)


def solve_lp_exact(model, extra_rows=()):
    """Exact optimum of  max c.x  s.t. rows, x >= 0  by two-phase simplex.

    Returns (value, xstar, basis, pivots); (None, None, None, pivots) when the
    row system is infeasible.  Bland's rule in both phases keeps the run
    deterministic and finite.
    """
    rows = list(model.rows) + list(model.cut_pool) + list(extra_rows)
    c = list(model.objective)
    return _simplex(c, [list(q.coeffs) for q in rows], [q.rhs for q in rows])


def _simplex(c, A, b):
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
        T[leave] = [x / piv for x in T[leave]]
        for i in range(len(T)):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [x - f * y for x, y in zip(T[i], T[leave])]
        basis[leave] = enter

    def run_phase(obj, allowed):
        # reduced costs z and objective value at the current basic solution
        z = list(obj)
        val = zero
        for i, bi in enumerate(basis):
            if z[bi] != 0:
                f = z[bi]
                z = [x - f * y for x, y in zip(z, T[i][:-1])]
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
            z = [x - f * y for x, y in zip(z, T[leave][:-1])]
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


def _fix_rows(g, fixed0, fixed1):
    rows = []
    for e in sorted(fixed0):
        coeffs = [Fraction(0)] * g.m
        coeffs[e - 1] = Fraction(1)
        rows.append(Inequality(coeffs, Fraction(0), tag="branch",
                               provenance=f"x{e}=0"))
    for e in sorted(fixed1):
        coeffs = [Fraction(0)] * g.m
        coeffs[e - 1] = Fraction(-1)
        rows.append(Inequality(coeffs, Fraction(-1), tag="branch",
                               provenance=f"x{e}=1"))
    return rows


def branch_and_cut(g, w, config=None):
    """Best-bound branch-and-cut; the optimum equals the brute-force oracle.

    Per node: solve the LP; separate MSI cuts while fractional (bounded
    rounds); lazy connectivity cuts repair integral disconnected matchings;
    otherwise branch on the most fractional variable, =1 child first.
    """
    config = config or SolveConfig()
    start = time.monotonic()
    model = build_base_lp(g, w, config)
    half = Fraction(1, 2)

    incumbent_val = Fraction(0)
    incumbent_set = ()
    log = []
    stats = {"nodes": 0, "lp_pivots": 0, "cuts": {"msi": 0, "lazy": 0},
             "family_rows": sum(1 for q in model.rows if q.tag == "family")}

    # open nodes: (bound, node id, fixed0, fixed1); best bound first, then id
    open_nodes = [(None, 0, frozenset(), frozenset())]
    next_id = 1
    status = "optimal"

    while open_nodes:
        if stats["nodes"] >= config.node_limit:
            status = "node-limit"
            break
        best_i = 0
        for i in range(1, len(open_nodes)):
            bi, ni = open_nodes[i][0], open_nodes[i][1]
            bb, nb = open_nodes[best_i][0], open_nodes[best_i][1]
            if bb is not None and (bi is None or bi > bb or (bi == bb and ni < nb)):
                best_i = i
        bound, node_id, fixed0, fixed1 = open_nodes.pop(best_i)
        if bound is not None and bound <= incumbent_val:
            log.append(f"node {node_id} bound {bound} cuts 0 status pruned")
            continue
        stats["nodes"] += 1
        extra = _fix_rows(g, fixed0, fixed1)
        cuts_here = 0

        while True:
            value, xstar, _basis, pivots = solve_lp_exact(model, extra)
            stats["lp_pivots"] += pivots
            if value is None or value <= incumbent_val:
                shown = "infeasible" if value is None else value
                log.append(f"node {node_id} bound {shown} cuts {cuts_here} "
                           "status pruned")
                break
            frac = [e for e in range(1, g.m + 1)
                    if xstar[e - 1] not in (0, 1)]
            if not frac:
                M = tuple(e for e in range(1, g.m + 1) if xstar[e - 1] == 1)
                if len(M) >= 2 and not is_connected_matching(g, M):
                    cut = lazy_cut_for_disconnected(g, M)
                    model.cut_pool.append(cut)
                    stats["cuts"]["lazy"] += 1
                    cuts_here += 1
                    continue
                log.append(f"node {node_id} bound {value} cuts {cuts_here} "
                           "status int")
                if value > incumbent_val:
                    incumbent_val, incumbent_set = value, M
                break
            if config.use_msi_separation and cuts_here < config.cut_rounds:
                pool = {r.canonical() for r in model.cut_pool}
                new = [q for q in separate_fractional(g, xstar)
                       if q.canonical() not in pool]
                if new:
                    model.cut_pool.extend(new)
                    stats["cuts"]["msi"] += len(new)
                    cuts_here += 1
                    continue
            log.append(f"node {node_id} bound {value} cuts {cuts_here} "
                       "status frac")
            bvar = min(frac, key=lambda e: (abs(xstar[e - 1] - half), e))
            open_nodes.append((value, next_id, fixed0, fixed1 | {bvar}))
            open_nodes.append((value, next_id + 1, fixed0 | {bvar}, fixed1))
            next_id += 2
            break

    if status == "node-limit":
        bounds = [bd for bd, _, _, _ in open_nodes if bd is not None]
        stats["upper_bound"] = max([incumbent_val] + bounds)
    log.append(f"opt {incumbent_val} matching {{{','.join(map(str, incumbent_set))}}}")
    stats["wall_time"] = time.monotonic() - start
    return SolveResult(value=incumbent_val, matching=incumbent_set,
                       status=status, stats=stats, log=log)


def root_gap_report(g, w):
    """Root LP values (without family rows, with family rows)."""
    no_fam = build_base_lp(g, w, SolveConfig(use_family_cuts=False))
    with_fam = build_base_lp(g, w, SolveConfig(use_family_cuts=True))
    v0, _, _, _ = solve_lp_exact(no_fam)
    v1, _, _, _ = solve_lp_exact(with_fam)
    return v0, v1
