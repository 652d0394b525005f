"""Graph representation, parsing, generators, and structural predicates."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .rational_la import exact_number


class GraphError(ValueError):
    """Base class for graph-domain errors."""


class ParseError(GraphError):
    """Malformed graph file; message names the offending line."""


@dataclass
class Graph:
    """Simple undirected graph with 1-based vertices and stable 1-based edge ids.

    Edge id i refers to edges[i-1]; ids follow input order.  Optional
    rational edge weights default to 1.

    Vertex and edge sets are int bitmasks: vertex v is bit v, edge id e is
    bit e.  Three tables are built once: neighbor_masks[v] (the vertices
    adjacent to v), incident_masks[v] (the edge ids at v) and
    endpoint_masks[e] (the two endpoints of e); entry 0 is unused.
    """

    n: int
    edges: tuple
    weights: tuple | None = None
    neighbor_masks: list = field(init=False, repr=False, compare=False)
    incident_masks: list = field(init=False, repr=False, compare=False)
    endpoint_masks: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.n) is not int:
            raise GraphError(f"non-integer vertex count {self.n!r}")
        if self.n < 0:
            raise GraphError(f"negative vertex count {self.n}")
        seen = set()
        self.edges = tuple(_check_edge(self.n, u, v, seen) for u, v in self.edges)
        if self.weights is not None:
            self.weights = tuple(exact_number(w) for w in self.weights)
            if len(self.weights) != len(self.edges):
                raise GraphError("weight count does not match edge count")
        self.neighbor_masks = [0] * (self.n + 1)
        self.incident_masks = [0] * (self.n + 1)
        self.endpoint_masks = [0]
        for e, (u, v) in enumerate(self.edges, start=1):
            self.neighbor_masks[u] |= 1 << v
            self.neighbor_masks[v] |= 1 << u
            self.incident_masks[u] |= 1 << e
            self.incident_masks[v] |= 1 << e
            self.endpoint_masks.append(1 << u | 1 << v)

    @property
    def m(self):
        return len(self.edges)

    @property
    def all_vertices(self):
        """Mask of the vertices 1..n."""
        return (1 << (self.n + 1)) - 2

    @property
    def all_edges(self):
        """Mask of the edge ids 1..m."""
        return (1 << (self.m + 1)) - 2

    def endpoints(self, e):
        """Endpoints of edge id e (1-based)."""
        if not (1 <= e <= self.m):
            raise GraphError(f"edge id {e} out of range 1..{self.m}")
        return self.edges[e - 1]

    def cover_mask(self, edge_ids):
        """Mask of the vertices covered by the given edge ids."""
        mask = 0
        for e in edge_ids:
            self.endpoints(e)
            mask |= self.endpoint_masks[e]
        return mask

    def weight(self, e):
        """Weight of edge id e (1 on an unweighted graph)."""
        self.endpoints(e)
        return Fraction(1) if self.weights is None else self.weights[e - 1]

    def neighbors(self, v):
        """Neighbours of v, sorted."""
        return mask_bits(self.neighbor_masks[_vertex(self, v)])

    def incident_edges(self, v):
        """Edge ids of delta(v), sorted."""
        return mask_bits(self.incident_masks[_vertex(self, v)])

    def edge_id(self, u, v):
        """Edge id of {u,v}, or None."""
        if u == v or not (1 <= u <= self.n and 1 <= v <= self.n):
            return None
        common = self.incident_masks[u] & self.incident_masks[v]
        return common.bit_length() - 1 if common else None


def _check_edge(n, u, v, seen):
    """Normalised key (min, max) of edge {u,v} of an n-vertex graph.

    Rejects endpoints that are not ints (a bool too), loops, out-of-range
    endpoints and keys already in `seen`, then adds the key to `seen`.
    """
    if type(u) is not int or type(v) is not int:
        raise GraphError(f"non-integer endpoint in edge ({u!r},{v!r})")
    if u == v:
        raise GraphError(f"loop at vertex {u}")
    if not (1 <= u <= n and 1 <= v <= n):
        raise GraphError(f"vertex out of range in edge ({u},{v})")
    key = (min(u, v), max(u, v))
    if key in seen:
        raise GraphError(f"duplicate edge ({u},{v})")
    seen.add(key)
    return key


def parse_graph(text):
    """Parse the graph file format: `p <n> <m>`, `e <u> <v> [w <num>/<den>]`."""
    n = None
    declared_m = None
    edges = []
    seen = set()
    weights = []
    any_weight = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            if len(tok) != 3:
                raise ParseError(f"line {lineno}: header must be 'p <n> <m>'")
            try:
                n, declared_m = int(tok[1]), int(tok[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer header field")
            if n < 0 or declared_m < 0:
                raise ParseError(f"line {lineno}: negative header field")
        elif tok[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before header")
            if len(tok) not in (3, 5) or (len(tok) == 5 and tok[3] != "w"):
                raise ParseError(f"line {lineno}: bad edge record")
            try:
                u, v = int(tok[1]), int(tok[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer endpoint")
            try:
                _check_edge(n, u, v, seen)
            except GraphError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            edges.append((u, v))
            if len(tok) == 5:
                any_weight = True
                try:
                    weights.append(exact_number(tok[4]))
                except ValueError:
                    raise ParseError(f"line {lineno}: bad weight '{tok[4]}'")
            else:
                weights.append(Fraction(1))
        else:
            raise ParseError(f"line {lineno}: unknown record '{tok[0]}'")
    if n is None:
        raise ParseError("missing 'p' header")
    if declared_m != len(edges):
        raise ParseError(f"header declares {declared_m} edges, found {len(edges)}")
    return Graph(n, tuple(edges), tuple(weights) if any_weight else None)


def format_graph(g):
    """Inverse of parse_graph."""
    lines = [f"p {g.n} {g.m}"]
    for i, (u, v) in enumerate(g.edges, start=1):
        if g.weights is not None:
            w = g.weights[i - 1]
            lines.append(f"e {u} {v} w {w.numerator}/{w.denominator}")
        else:
            lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


# Gyrobifastigium skeleton: central 4-cycle, a top ridge and a bottom ridge
# rotated 90 degrees.
_J26_EDGES = (
    (1, 2), (2, 3), (3, 4), (1, 4),
    (1, 5), (2, 5), (3, 6), (4, 6), (5, 6),
    (2, 7), (3, 7), (4, 8), (1, 8), (7, 8),
)


def generate(name):
    """Deterministic labeled graph from a generator spec.

    Supported: path:k (k>=2), cycle:k (k>=3), complete:k (k>=1),
    cube:d (d>=1), petersen, j26.
    """
    base, _, arg = name.partition(":")
    if base == "path":
        k = _gen_arg(name, arg, 2)
        return Graph(k, tuple((i, i + 1) for i in range(1, k)))
    if base == "cycle":
        k = _gen_arg(name, arg, 3)
        edges = [(i, i + 1) for i in range(1, k)] + [(1, k)]
        return Graph(k, tuple(edges))
    if base == "complete":
        k = _gen_arg(name, arg, 1)
        edges = [(u, v) for u in range(1, k + 1) for v in range(u + 1, k + 1)]
        return Graph(k, tuple(edges))
    if base == "cube":
        d = _gen_arg(name, arg, 1)
        edges = []
        for i in range(1 << d):
            for j in range(d):
                if not i & (1 << j):
                    edges.append((i + 1, (i | (1 << j)) + 1))
        return Graph(1 << d, tuple(edges))
    if name == "petersen":
        outer = [(i, i + 1) for i in range(1, 5)] + [(1, 5)]
        spokes = [(i, i + 5) for i in range(1, 6)]
        inner = [(6, 8), (7, 9), (8, 10), (6, 9), (7, 10)]
        return Graph(10, tuple(outer + spokes + inner))
    if name == "j26":
        return Graph(8, _J26_EDGES)
    raise GraphError(f"unknown generator '{name}'")


def _gen_arg(name, arg, minimum):
    try:
        k = int(arg)
    except ValueError:
        raise GraphError(f"generator '{name}' needs an integer argument")
    if k < minimum:
        raise GraphError(f"generator '{name}' needs argument >= {minimum}")
    return k


def line_distance(g, e, f):
    """Shortest-path distance between edges e and f in the line graph.

    Returns math.inf when e and f lie in different components.  Breadth-first
    over edge masks: the next layer is every edge at a vertex of this layer.
    """
    g.endpoints(e)
    g.endpoints(f)
    if e == f:
        return 0
    seen = layer = 1 << e
    dist = 0
    while layer:
        dist += 1
        layer = union_over(g.incident_masks, union_over(g.endpoint_masks, layer)) & ~seen
        if layer >> f & 1:
            return dist
        seen |= layer
    return math.inf


def _vertex(g, v):
    """v, once checked to be a vertex of g: a mask table read at a negative
    index would silently return another vertex's mask."""
    if not (1 <= v <= g.n):
        raise GraphError(f"vertex {v} out of range")
    return v


def vertex_mask(S):
    """Bitmask of a vertex collection: bit v is set iff v is in S."""
    mask = 0
    for v in S:
        mask |= 1 << v
    return mask


def mask_bits(mask):
    """The set bits of mask, ascending."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def union_over(table, mask):
    """OR of table[i] over the set bits i of mask: with the tables of Graph,
    the neighbours of a vertex set, the edges at a vertex set or the
    vertices covered by an edge set."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def reach_within(nbr, room, start):
    """Bitmask of the vertices reachable from start inside room.

    nbr is a neighbour-mask table such as Graph.neighbor_masks; room and
    start are vertex bitmasks with start inside room.  Induced
    connectivity, components and separators all reduce to this search.
    """
    seen = frontier = start
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = nbr[low.bit_length() - 1] & room & ~seen
        seen |= new
        frontier |= new
    return seen


def is_connected_mask(g, mask):
    """True iff G[mask] is connected; the empty mask counts as connected."""
    return reach_within(g.neighbor_masks, mask, mask & -mask) == mask


def is_biconnected_mask(g, mask):
    """True iff G[mask] is connected and stays connected without any one vertex."""
    return is_connected_mask(g, mask) and all(
        is_connected_mask(g, mask ^ 1 << v) for v in mask_bits(mask))


def is_connected_induced(g, S):
    """True iff G[S] is connected; empty and singleton sets count as connected."""
    return is_connected_mask(g, vertex_mask(_vertex(g, v) for v in S))


def is_separator(g, a, b, C):
    """True iff removing C disconnects a from b.

    Preconditions (violations raise distinct messages): a != b, a, b and C
    in range, neither a nor b in C, and {a,b} not an edge (an adjacent pair
    is not separable).
    """
    if a == b:
        raise GraphError("separator endpoints must differ")
    ends = vertex_mask((_vertex(g, a), _vertex(g, b)))
    cut = vertex_mask(_vertex(g, v) for v in C)
    if cut & ends:
        raise GraphError("separator must not contain its endpoints")
    if g.neighbor_masks[a] >> b & 1:
        raise GraphError(f"vertices {a} and {b} are adjacent, not separable")
    return not reach_within(g.neighbor_masks, g.all_vertices & ~cut, 1 << a) >> b & 1
