"""Projected minimal separator inequalities: construction, minimality,
dominance, fractional separation by exact max-flow, and lazy connectivity cuts.

A separator row  y_a + y_b - sum_{u in C} y_u <= 1  over vertex indicators is
projected to edge space through y_u = sum_{e incident to u} x_e.

Separation scales the vertex degrees y of a fractional point by their common
denominator D, so the max-flow runs on integer capacities and each test
against 1 becomes a test against D.  The vertex-split network is built once
per point and each pair (a,b) copies its capacities: a flow from a's out-copy
to b's in-copy never uses the arcs of a or b, so the same capacities serve
every pair.  A pair's max-flow stops at y_a + y_b - D, where its row cannot
be violated.  Separator sides are vertex bitmasks from graph_core.reach_within.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .graph_core import GraphError, is_separator, mask_bits, reach_within, vertex_mask
from .inequality import Inequality
from .matchings import is_connected_matching, is_matching
from .rational_la import integer_row


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


def _redundant_vertex(g, a, b, C):
    """Least vertex of the mask C without a neighbour in both a's and b's
    component of G - C, or None when C is a minimal (a,b)-separator."""
    nbr = g.neighbor_masks
    room = g.all_vertices & ~C
    side_a = reach_within(nbr, room, 1 << a)
    side_b = reach_within(nbr, room, 1 << b)
    for u in mask_bits(C):
        if not (nbr[u] & side_a and nbr[u] & side_b):
            return u
    return None


def minimalize(g, s):
    """Shrink C to a minimal separator by dropping, one at a time, the least
    member without a neighbor on both sides of G - C.  C must separate a
    from b in g (GraphError otherwise)."""
    s.validate(g)
    C = vertex_mask(s.C)
    while (u := _redundant_vertex(g, s.a, s.b, C)) is not None:
        C ^= 1 << u
    return Separator(s.a, s.b, tuple(mask_bits(C)))


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


def _split_network(g, y):
    """Arc lists (head, cap, out) of the vertex-split digraph for integer
    vertex capacities y (indexed by vertex): arc i enters head[i], arc i^1 is
    its reverse, out[u] lists the arcs leaving u.  Node 2v is v's in-copy,
    node 2v+1 its out-copy, the arc 2v -> 2v+1 has capacity y[v], and each
    edge {u,v} gives arcs 2u+1 -> 2v and 2v+1 -> 2u that no cut can afford."""
    big = sum(y) + 1
    head, cap, out = [], [], [[] for _ in range(2 * g.n + 2)]
    arcs = [(2 * v, 2 * v + 1, y[v]) for v in range(1, g.n + 1)]
    arcs += [(2 * s + 1, 2 * t, big) for u, v in g.edges for s, t in ((u, v), (v, u))]
    for s, t, c in arcs:
        out[s].append(len(head))
        out[t].append(len(head) + 1)
        head += (t, s)
        cap += (c, 0)
    return head, cap, out


def _min_vertex_cut(net, a, b, bound):
    """Minimum-capacity (a,b)-vertex separator by exact max-flow on a copy of
    net's capacities, from a's out-copy to b's in-copy; returns (flow value,
    cut vertex set), or (a flow >= bound, None) once the flow reaches bound.

    One network serves every pair: no augmenting path enters the source or
    leaves the sink, so the arcs of a and b never carry flow and their
    capacities never matter.  The cut is the set the source reaches in the
    final residual graph, which is the same for every maximum flow; the
    last, failed augmenting search visits exactly that set."""
    head, cap, out = net
    cap = cap[:]
    src, snk = 2 * a + 1, 2 * b
    flow = 0
    while flow < bound:
        parent = {src: None}
        queue = deque([src])
        while queue and snk not in parent:
            for i in out[queue.popleft()]:
                v = head[i]
                if cap[i] and v not in parent:
                    parent[v] = i
                    queue.append(v)
        if snk not in parent:
            return flow, {u >> 1 for u in parent if not u & 1 and u + 1 not in parent}
        path = []
        v = snk
        while (i := parent[v]) is not None:
            path.append(i)
            v = head[i ^ 1]
        aug = min(cap[i] for i in path)
        for i in path:
            cap[i] -= aug
            cap[i ^ 1] += aug
        flow += aug
    return flow, None


def separate_fractional(g, xstar):
    """Violated projected MSI rows at a fractional LP point.

    For each non-adjacent pair (a,b) with y_a + y_b > 1, a minimum-weight
    vertex separator is found by max-flow; rows with a strictly positive
    violation are minimalized, deduplicated, and returned in canonical order.
    Minimalizing keeps the violation: the row evaluates to y_a + y_b - y(C')
    with C' inside the cut, and y(cut) is the flow.
    """
    xstar = [Fraction(x) for x in xstar]
    if len(xstar) != g.m:
        raise GraphError("xstar dimension mismatch")
    for x in xstar:
        if x < 0 or x > 1:
            raise GraphError("xstar must lie in the unit box")
    # D is the lcm of the denominators and X is D * xstar: integer_row's gcd
    # is 1, as for each prime p dividing D the entry whose denominator holds
    # the highest power of p scales to a numerator that p does not divide.
    *X, D = integer_row([*xstar, 1])
    # D times the degree sum of xstar at each vertex
    y = [0] + [sum(X[e - 1] for e in g.incident_edges(v)) for v in range(1, g.n + 1)]
    for v in range(1, g.n + 1):
        if y[v] > D:
            raise GraphError(f"degree sum at vertex {v} exceeds 1")
    nbr = g.neighbor_masks
    net = _split_network(g, y)
    cuts = {}
    for a in range(1, g.n + 1):
        for b in range(a + 1, g.n + 1):
            if nbr[a] >> b & 1 or y[a] + y[b] <= D:
                continue
            _flow, cut = _min_vertex_cut(net, a, b, y[a] + y[b] - D)
            if cut is None:
                continue
            row = project_msi(g, minimalize(g, Separator(a, b, tuple(cut))))
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
    covered = g.cover_mask(M)
    low = covered & -covered
    a = low.bit_length() - 1
    rest = covered & ~reach_within(g.neighbor_masks, covered, low)
    b = (rest & -rest).bit_length() - 1
    pool = tuple(mask_bits(g.all_vertices & ~covered))
    sep = minimalize(g, Separator(a, b, pool))
    return project_msi(g, sep)


def minimal_separators_brute(g, a, b, max_size=None):
    """All minimal (a,b)-separators by subset enumeration (test scale only)."""
    from itertools import combinations
    if max_size is not None and max_size < 0:
        raise GraphError(f"separator size cap must be >= 0, got {max_size}")
    if g.edge_id(a, b) is not None:
        raise GraphError("adjacent pair has no separator")
    rest = [v for v in range(1, g.n + 1) if v not in (a, b)]
    limit = max_size if max_size is not None else len(rest)
    found = []
    for size in range(limit + 1):
        for C in combinations(rest, size):
            if (is_separator(g, a, b, C)
                    and _redundant_vertex(g, a, b, vertex_mask(C)) is None):
                found.append(Separator(a, b, C))
    return found
