"""Projected minimal separator inequalities: construction, minimality,
dominance, fractional separation by exact max-flow, and lazy connectivity cuts.

A separator row  y_a + y_b - sum_{u in C} y_u <= 1  over vertex indicators is
projected to edge space through y_u = sum_{e incident to u} x_e.

Separation scales the vertex degrees y of a fractional point by their common
denominator D, so the max-flow runs on integer capacities and each test
against 1 becomes a test against D.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .graph_core import GraphError, _components_within, is_separator
from .inequality import Inequality
from .matchings import covered_vertices, is_connected_matching, is_matching


@dataclass(frozen=True)
class Separator:
    a: int
    b: int
    C: tuple

    def __post_init__(self):
        object.__setattr__(self, "C", tuple(sorted(set(self.C))))

    def validate(self, g):
        if not is_separator(g, self.a, self.b, self.C):
            raise GraphError(
                f"C={set(self.C)} does not separate {self.a} from {self.b}")


def is_minimal_separator(g, s):
    """True iff every vertex of C neighbors both the a-side and b-side
    components of G - C (no proper subset of C separates)."""
    s.validate(g)
    C = set(s.C)
    comps = _components_within(g, set(range(1, g.n + 1)) - C)
    side_a = next(c for c in comps if s.a in c)
    side_b = next(c for c in comps if s.b in c)
    for u in C:
        nbrs = set(g.neighbors(u))
        if not (nbrs & side_a) or not (nbrs & side_b):
            return False
    return True


def minimalize(g, s):
    """Shrink C to a minimal separator by dropping, in increasing vertex id,
    any member without a neighbor on both sides."""
    C = set(s.C)
    changed = True
    while changed:
        changed = False
        comps = _components_within(g, set(range(1, g.n + 1)) - C)
        side_a = next(c for c in comps if s.a in c)
        side_b = next(c for c in comps if s.b in c)
        for u in sorted(C):
            nbrs = set(g.neighbors(u))
            if not (nbrs & side_a) or not (nbrs & side_b):
                C.discard(u)
                changed = True
                break
    return Separator(s.a, s.b, tuple(C))


def project_msi(g, s):
    """Project the separator row onto edge space; rhs 1.

    Coefficient of edge e: +1 per endpoint in {a,b}, -1 per endpoint in C
    (so coefficients can reach -2).
    """
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


def dominates(p, q):
    """True iff some rho > 0 scales p componentwise above q with no larger rhs,
    so p implies q over the nonnegative orthant."""
    if p.m != q.m:
        raise GraphError("dominance needs equal ambient dimension")
    lo, hi = Fraction(0), None
    for pc, qc in list(zip(p.coeffs, q.coeffs)) + [(-p.rhs, -q.rhs)]:
        if pc > 0:
            lo = max(lo, Fraction(qc, pc))
        elif pc < 0:
            bound = Fraction(qc, pc)
            hi = bound if hi is None else min(hi, bound)
        elif qc > 0:
            return False
    if hi is None:
        return True
    return hi > lo or (hi == lo and lo > 0)


def _min_vertex_cut(g, a, b, cap):
    """Minimum-capacity (a,b)-vertex separator by exact max-flow on the
    vertex-split digraph with integer capacities cap; returns (flow value,
    cut vertex set).  The cut is the set the source reaches in the final
    residual graph, which is the same for every maximum flow."""
    # node encoding: (v, 0) = in-copy, (v, 1) = out-copy
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


def separate_fractional(g, xstar):
    """Violated projected MSI rows at a fractional LP point.

    For each non-adjacent pair (a,b) with y_a + y_b > 1, a minimum-weight
    vertex separator is found by max-flow; rows with a strictly positive
    violation are minimalized, deduplicated, and returned in canonical order.
    """
    xstar = [Fraction(x) for x in xstar]
    if len(xstar) != g.m:
        raise GraphError("xstar dimension mismatch")
    for x in xstar:
        if x < 0 or x > 1:
            raise GraphError("xstar must lie in the unit box")
    D = lcm(*[x.denominator for x in xstar])
    X = [x.numerator * (D // x.denominator) for x in xstar]
    # D times the degree sum of xstar at each vertex
    y = {v: sum(X[e - 1] for e in g.incident_edges(v)) for v in range(1, g.n + 1)}
    for v, yv in y.items():
        if yv > D:
            raise GraphError(f"degree sum at vertex {v} exceeds 1")
    cuts = {}
    for a in range(1, g.n + 1):
        for b in range(a + 1, g.n + 1):
            if g.edge_id(a, b) is not None:
                continue
            if y[a] + y[b] <= D:
                continue
            flow, cut = _min_vertex_cut(g, a, b, y)
            if y[a] + y[b] - flow <= D:
                continue
            sep = minimalize(g, Separator(a, b, tuple(cut)))
            row = project_msi(g, sep)
            if row.evaluate(xstar) > row.rhs:
                cuts.setdefault(row.canonical(), row)
    return [cuts[k] for k in sorted(cuts)]


def lazy_cut_for_disconnected(g, M):
    """Projected MSI separating the incidence vector of a disconnected
    matching M, built from a separator inside the uncovered vertices."""
    M = sorted(set(M))
    if not is_matching(g, M):
        raise GraphError("M is not a matching")
    if len(M) < 2 or is_connected_matching(g, M):
        raise GraphError("M must be a disconnected matching with >= 2 edges")
    covered = covered_vertices(g, M)
    comps = _components_within(g, covered)
    a = min(comps[0])
    b = min(min(c) for c in comps[1:])
    pool = set(range(1, g.n + 1)) - covered
    sep = minimalize(g, Separator(a, b, tuple(pool)))
    return project_msi(g, sep)


def minimal_separators_brute(g, a, b, max_size=None):
    """All minimal (a,b)-separators by subset enumeration (test scale only)."""
    from itertools import combinations
    if g.edge_id(a, b) is not None:
        raise GraphError("adjacent pair has no separator")
    rest = sorted(set(range(1, g.n + 1)) - {a, b})
    limit = max_size if max_size is not None else len(rest)
    found = []
    for size in range(limit + 1):
        for C in combinations(rest, size):
            s = Separator(a, b, C)
            if is_separator(g, a, b, C) and is_minimal_separator(g, s):
                found.append(s)
    return found
