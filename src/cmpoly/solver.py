"""Exact branch-and-cut for maximum-weight connected matching.

The LP relaxation at a node is the model's own rows (degree rows, optional a
priori family rows, the cut pool) over the edges the node has not fixed.  A
simplex with Bland's rule solves it (a dual phase 1 when a fix overdraws a
row, then the primal simplex on the weights); it keeps an integer dictionary
of the nonbasic columns, each row primitive with its own positive scale, so
every bound and optimality claim is exact.
Fractional points are attacked with projected minimal separator cuts;
integral but disconnected matchings trigger lazy connectivity cuts;
remaining fractionality is resolved by branching.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .facet_family import generate_family
from .graph_core import GraphError
from .inequality import Inequality
from .matchings import is_connected_matching
from .rational_la import integer_row
from .msi import lazy_cut_for_disconnected, separate_fractional


# MSI separation rounds per node before it branches
CUT_ROUNDS = 5


@dataclass
class SolveConfig:
    use_family_cuts: bool = True
    use_msi_separation: bool = True
    node_limit: int = 100_000


@dataclass
class Model:
    objective: tuple
    rows: list
    cut_pool: list = field(default_factory=list)


@dataclass
class SolveResult:
    value: Fraction
    matching: tuple
    status: str
    stats: dict
    log: list


def build_base_lp(g, w, config=None):
    """Degree rows, which with x >= 0 imply x_e <= 1 (so no bound rows);
    family rows appended a priori when enabled."""
    config = config or SolveConfig()
    w = tuple(Fraction(x) for x in w)
    if len(w) != g.m:
        raise GraphError(f"expected {g.m} weights, got {len(w)}")
    rows = []
    for v in range(1, g.n + 1):
        inc = g.incident_edges(v)
        if not inc:
            continue
        coeffs = [0] * g.m
        for e in inc:
            coeffs[e - 1] = 1
        rows.append(Inequality(coeffs, 1, tag="degree", provenance=f"v={v}"))
    if config.use_family_cuts:
        rows.extend(q for q, _cert in generate_family(g))
    return Model(objective=w, rows=rows)


def solve_lp_exact(model, fixed0=frozenset(), fixed1=frozenset()):
    """Exact optimum of  max c.x  s.t. rows, x >= 0, x_e = 0 on fixed0 and
    x_e = 1 on fixed1, by `_simplex`: a dual phase 1 from the slack basis when
    a fix overdraws a row, then the primal simplex (Bland's rule in both).

    A fixed edge leaves the LP: its column is dropped, after it is subtracted
    from every rhs when fixed to 1.  Returns (value, xstar, pivots) with xstar
    over all m edges; (None, None, pivots) when the LP is infeasible.
    """
    rows = model.rows + model.cut_pool
    c = model.objective
    free = [j for j in range(len(c)) if j + 1 not in fixed0 and j + 1 not in fixed1]
    ones = [e - 1 for e in fixed1]
    value, xfree, _basis, pivots = _simplex(
        [c[j] for j in free],
        [[q.coeffs[j] for j in free] for q in rows],
        [q.rhs - sum(q.coeffs[j] for j in ones) for q in rows])
    if value is None:
        return None, None, pivots
    x = [Fraction(int(e in fixed1)) for e in range(1, len(c) + 1)]
    for j, xj in zip(free, xfree):
        x[j] = xj
    return value + sum(c[j] for j in ones), x, pivots


def _simplex(c, A, b):
    """Dictionary simplex, Bland's rule, integer pivoting.

    Maximizes c.x subject to A x <= b, x >= 0; returns (value, x, basis,
    pivots), with value, x and basis None when the LP is infeasible.  Labels:
    structurals 0..n-1, then the k slacks, whose basis is the start.  T is a
    dictionary (Chvatal 1983) over the nonbasic variables `cols` and the rhs:
    A's rows, then the objective row, each primitive and with its own scale
    s > 0 (Azulay & Pique 2001): row i reads s[i]*x_basis[i] +
    sum_j T[i][j]*x_cols[j] = T[i][-1].  A pivot on the leaving row e, with
    p = e[enter] > 0 (else e and s[leave] are negated first), skips each row
    with a zero in the entering column and takes any other r, f = r[enter], to
    p*r - f*e with -f*s[leave] in that column and scale p*s[i], then divides
    row and scale by their gcd; e takes scale p.  Bland's rule reads only
    signs and ratios within rows, so no scale changes a choice.

    Phase 1 is the dual simplex on the zero objective, for which every basis
    is dual feasible (Lemke 1954).  Under Bland's rule, finite here too (Bland
    1977), the row with a negative rhs whose basic variable has the least label
    leaves, and the nonbasic variable of least label with a negative entry in
    it enters; if there is none, its row says a nonnegative sum is negative:
    infeasible.  Phase 2 is the primal simplex on c, whose objective row (the
    scaled reduced costs) is pivoted with the others from the start.
    """
    n, k = len(c), len(A)
    T = [integer_row([*a, bi]) for a, bi in zip(A, b)] + [integer_row([*c, 0])]
    basis, cols = list(range(n, n + k)), list(range(n))
    scale, pivots = [1] * (k + 1), 0

    def pivot(leave, enter):
        nonlocal pivots
        pivots += 1
        e, s, p = T[leave], scale[leave], T[leave][enter]
        if p < 0:
            e, s, p = [-x for x in e], -s, -p
        for i, r in enumerate(T):
            f = r[enter]
            if f and i != leave:
                r = [p * x - f * y for x, y in zip(r, e)]
                r[enter] = -f * s
                si = p * scale[i]
                if (q := gcd(si, *r)) > 1:
                    r, si = [x // q for x in r], si // q
                T[i], scale[i] = r, si
        e[enter] = s
        T[leave], scale[leave] = e, p
        basis[leave], cols[enter] = cols[enter], basis[leave]

    def least(row, sign):   # Bland: least label with sign * row[j] > 0
        return min((j for j in range(n) if sign * row[j] > 0),
                   key=cols.__getitem__, default=None)

    while overdrawn := [i for i in range(k) if T[i][-1] < 0]:
        leave = min(overdrawn, key=basis.__getitem__)
        enter = least(T[leave], -1)
        if enter is None:
            return None, None, None, pivots
        pivot(leave, enter)

    while (enter := least(T[k], 1)) is not None:
        leave = None
        for i in range(k):
            a = T[i][enter]
            if a > 0:
                if leave is not None:
                    # ratio T[i][-1]/a against T[leave][-1]/T[leave][enter]
                    diff = T[i][-1] * T[leave][enter] - T[leave][-1] * a
                    if diff > 0 or (diff == 0 and basis[i] > basis[leave]):
                        continue
                leave = i
        if leave is None:
            raise GraphError("LP unbounded; missing variable bounds")
        pivot(leave, enter)
    x = [Fraction(0)] * n
    for r, si, bi in zip(T, scale, basis):
        if bi < n:
            x[bi] = Fraction(r[-1], si)
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    return value, x, basis, pivots


def branch_and_cut(g, w, config=None):
    """Best-bound branch-and-cut; the optimum equals the brute-force oracle.

    Per node: solve the LP; separate MSI cuts while fractional (bounded
    rounds); lazy connectivity cuts repair integral disconnected matchings;
    otherwise branch on the most fractional variable, =1 child first.
    """
    config = config or SolveConfig()
    if config.node_limit < 1:
        raise GraphError(f"node limit must be at least 1, got {config.node_limit}")
    start = time.monotonic()
    model = build_base_lp(g, w, config)
    half = Fraction(1, 2)

    incumbent_val = Fraction(0)
    incumbent_set = ()
    log = []
    stats = {"nodes": 0, "lp_pivots": 0, "cuts": {"msi": 0, "lazy": 0},
             "family_rows": sum(1 for q in model.rows if q.tag == "family")}

    # heap of open nodes (-bound, node id, fixed0, fixed1): best bound first,
    # then lowest id; the root alone has no bound
    open_nodes = [(None, 0, frozenset(), frozenset())]
    next_id = 1
    pool = set()   # canonical forms of the rows in model.cut_pool
    status = "optimal"

    while open_nodes:
        if stats["nodes"] >= config.node_limit:
            status = "node-limit"
            break
        neg_bound, node_id, fixed0, fixed1 = heapq.heappop(open_nodes)
        if neg_bound is not None and -neg_bound <= incumbent_val:
            log.append(f"node {node_id} bound {-neg_bound} cuts 0 status pruned")
            continue
        stats["nodes"] += 1
        cuts_here = 0

        while True:
            value, xstar, pivots = solve_lp_exact(model, fixed0, fixed1)
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
                    pool.add(cut.canonical())
                    stats["cuts"]["lazy"] += 1
                    cuts_here += 1
                    continue
                log.append(f"node {node_id} bound {value} cuts {cuts_here} "
                           "status int")
                if value > incumbent_val:
                    incumbent_val, incumbent_set = value, M
                break
            if config.use_msi_separation and cuts_here < CUT_ROUNDS:
                found = [(q.canonical(), q) for q in separate_fractional(g, xstar)]
                new = [q for key, q in found if key not in pool]
                pool.update(key for key, _ in found)
                if new:
                    model.cut_pool.extend(new)
                    stats["cuts"]["msi"] += len(new)
                    cuts_here += 1
                    continue
            log.append(f"node {node_id} bound {value} cuts {cuts_here} "
                       "status frac")
            bvar = min(frac, key=lambda e: (abs(xstar[e - 1] - half), e))
            heapq.heappush(open_nodes, (-value, next_id, fixed0, fixed1 | {bvar}))
            heapq.heappush(open_nodes, (-value, next_id + 1, fixed0 | {bvar}, fixed1))
            next_id += 2
            break

    if status == "node-limit":
        bounds = [-nb for nb, _, _, _ in open_nodes if nb is not None]
        stats["upper_bound"] = max([incumbent_val] + bounds)
    log.append(f"opt {incumbent_val} matching {{{','.join(map(str, incumbent_set))}}}")
    stats["wall_time"] = time.monotonic() - start
    return SolveResult(value=incumbent_val, matching=incumbent_set,
                       status=status, stats=stats, log=log)

