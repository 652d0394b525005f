"""Projected minimal separator inequalities: generation of every minimal
separator, minimality, dominance, fractional separation by exact max-flow, and
lazy connectivity cuts.

`vertex_row` projects a vertex row  y(plus) - y(minus) <= 1  to edge space
through y_v = x(delta(v)): the degree rows and each separator row
y_a + y_b - y(C) <= 1, built by `msi_row`.  A separator is a vertex bitmask
from where it is made to its row: from `minimal_separators`, or from the
max-flow cut through `_minimal`; `minimalize` and `project_msi` check a
`Separator`, then take the same path.

Separation scales the vertex degrees y of a fractional point by their common
denominator D, so the max-flow runs on integer capacities and each test
against 1 becomes a test against D.  The vertex-split network is built once
per point and each pair (a,b) copies its capacities: a flow from a's out-copy
to b's in-copy never uses the arcs of a or b, so the same capacities serve
every pair.  A pair's max-flow stops at y_a + y_b - D, where its row cannot
be violated.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .graph_core import GraphError, is_separator, mask_bits, reach_within, union_over
from .inequality import Inequality
from .matchings import is_matching
from .rational_la import integer_row


@dataclass(frozen=True)
class Separator:
    a: int
    b: int
    C: tuple

    def __post_init__(self):
        # before the sort, which would compare a str with an int, and the set,
        # which would merge True into 1 and 7.0 into 7
        for v in self.C:
            if type(v) is not int:
                raise GraphError(f"vertex {v!r} out of range")
        object.__setattr__(self, "C", tuple(sorted(set(self.C))))

    def validate(self, g):
        if not is_separator(g, self.a, self.b, self.C):
            raise GraphError(f"C={set(self.C)} does not separate {self.a} from {self.b}")


def _minimal(g, a, b, C):
    """Drop the least vertex of the (a,b)-separator mask C without a neighbour
    in both a's and b's component of G - C until none is left: C is minimal."""
    nbr = g.neighbor_masks
    while True:
        room = g.all_vertices & ~C
        side_a = reach_within(nbr, room, 1 << a)
        side_b = reach_within(nbr, room, 1 << b)
        drop = [u for u in mask_bits(C) if not (nbr[u] & side_a and nbr[u] & side_b)]
        if not drop:
            return C
        C ^= 1 << drop[0]


def minimalize(g, s):
    """`_minimal` on a Separator, whose C must separate a from b (GraphError)."""
    s.validate(g)
    return Separator(s.a, s.b, tuple(mask_bits(_minimal(g, s.a, s.b, g.vertex_mask(s.C)))))


def vertex_row(g, plus, minus, tag, provenance):
    """The row y(plus) - y(minus) <= 1 of vertex masks in edge space, through
    y_v = x(delta(v)): edge e gets +1 per endpoint in plus, -1 per one in minus."""
    ends = g.endpoint_masks
    return Inequality([(ends[e] & plus).bit_count() - (ends[e] & minus).bit_count()
                       for e in range(1, g.m + 1)], 1, tag=tag, provenance=provenance)


def msi_row(g, a, b, C):
    """The projected MSI of the (a,b)-separator mask C; coefficients reach -2."""
    return vertex_row(g, 1 << a | 1 << b, C, "msi",
                      f"msi a={a} b={b} C={{{','.join(map(str, mask_bits(C)))}}}")


def project_msi(g, s):
    """The projected MSI of a Separator, whose C must separate a from b (GraphError)."""
    s.validate(g)
    return msi_row(g, s.a, s.b, g.vertex_mask(s.C))


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
    cut vertex mask), or (a flow >= bound, None) once the flow reaches bound.

    One network serves every pair: no augmenting path enters the source or
    leaves the sink, so the arcs of a and b never carry flow and their
    capacities never matter.  Each augmenting path is a shortest one, found
    breadth first (Edmonds & Karp 1972) with a parent arc per node, -1 while
    unseen.  The cut is the set the source reaches in the final residual
    graph, which is the same for every maximum flow; the last, failed
    search visits exactly that set."""
    head, cap, out = net
    cap = cap[:]
    src, snk = 2 * a + 1, 2 * b
    flow = 0
    while flow < bound:
        parent = [-1] * len(out)
        parent[src] = len(head)   # seen, and no arc
        queue = [src]
        for u in queue:
            for i in out[u]:
                if cap[i] and parent[v := head[i]] < 0:
                    parent[v] = i
                    queue.append(v)
            if parent[snk] >= 0:
                break
        else:
            cut = 0
            for u in queue:   # in-copies reached whose out-copy was not
                if not u & 1 and parent[u + 1] < 0:
                    cut |= 1 << (u >> 1)
            return flow, cut
        path = []
        v = snk
        while v != src:
            i = parent[v]
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

    A pair is settled without a max-flow when b is reachable from a through
    vertices v with y_v >= y_a + y_b - D: every separator holds one of them,
    so no cut is below that bound, which is what `_min_vertex_cut` reports
    with None.  Those vertices are a prefix of the vertices sorted by y, so
    each bound reads its mask off the prefix masks; the network is built
    only for the first pair that needs a max-flow.  `Graph.edge_point`
    reads xstar.
    """
    xstar = g.edge_point(xstar)
    # D is the lcm of the denominators and X is D * xstar: integer_row's gcd
    # is 1, as for each prime p dividing D the entry whose denominator holds
    # the highest power of p scales to a numerator that p does not divide.
    *X, D = integer_row([*xstar, 1])
    # D times the degree sum of xstar at each vertex
    y = [0] + [sum(X[e - 1] for e in mask_bits(g.incident_masks[v])) for v in range(1, g.n + 1)]
    for v in range(1, g.n + 1):
        if y[v] > D:
            raise GraphError(f"degree sum at vertex {v} exceeds 1")
    nbr = g.neighbor_masks
    # the vertices with y_v >= t are prefix[bisect_right(key, -t)]
    order = sorted(range(1, g.n + 1), key=y.__getitem__, reverse=True)
    key, prefix = [-y[v] for v in order], [0]
    for v in order:
        prefix.append(prefix[-1] | 1 << v)
    net = None
    cuts = {}
    for a in range(1, g.n + 1):
        for b in range(a + 1, g.n + 1):
            if nbr[a] >> b & 1 or y[a] + y[b] <= D:
                continue
            bound = y[a] + y[b] - D
            room = prefix[bisect_right(key, -bound)] | 1 << a | 1 << b
            if reach_within(nbr, room, 1 << a) >> b & 1:
                continue
            if net is None:
                net = _split_network(g, y)
            _flow, cut = _min_vertex_cut(net, a, b, bound)
            if cut is not None:
                row = msi_row(g, a, b, _minimal(g, a, b, cut))
                cuts.setdefault(row.canonical(), row)
    return [cuts[k] for k in sorted(cuts)]


def lazy_cut_for_disconnected(g, M):
    """Projected MSI separating the incidence vector of a disconnected
    matching M, built from a separator inside the uncovered vertices."""
    M = mask_bits(g.edge_mask(M))
    if not is_matching(g, M):
        raise GraphError("M is not a matching")
    covered = g.cover_mask(M)
    low = covered & -covered
    rest = covered & ~reach_within(g.neighbor_masks, covered, low)
    if not rest:   # G[covered] is empty or connected
        raise GraphError("M must be a disconnected matching with >= 2 edges")
    # a and b lie in different components of G[covered]: the rest separates them
    a, b = low.bit_length() - 1, (rest & -rest).bit_length() - 1
    return msi_row(g, a, b, _minimal(g, a, b, g.all_vertices & ~covered))


def minimal_separators(g, a, b):
    """All minimal (a,b)-separators as vertex masks, by size and then by their
    sorted vertices; bad or adjacent a, b raise GraphError.  Close-neighbourhood
    generation (Berry, Bordat & Cogis 2000): for a connected set A holding a
    and no neighbour of b, the neighbourhood of b's component of G - N[A] is a
    minimal separator with A on a's side.  It starts from A = {a}, and each S
    found gives A = side_a(S) + x for each x in S not adjacent to b."""
    is_separator(g, a, b, ())   # raises on bad or adjacent a, b
    nbr, every = g.neighbor_masks, g.all_vertices

    def close_to(A):
        side_b = reach_within(nbr, every & ~(A | union_over(nbr, A)), 1 << b)
        return union_over(nbr, side_b) & ~side_b

    found, todo = set(), [close_to(1 << a)]
    while todo:
        S = todo.pop()
        if S not in found:
            found.add(S)
            side_a = reach_within(nbr, every & ~S, 1 << a)
            todo += [close_to(side_a | 1 << x) for x in mask_bits(S & ~nbr[b])]
    return sorted(found, key=lambda S: (S.bit_count(), mask_bits(S)))
