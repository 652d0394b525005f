"""Connected-matching predicates and two searches that grow them, each for
its own question: `_grow` answers whether some connected matching contains
a given one, and `_grow_connected` emits every connected matching."""

from __future__ import annotations

from fractions import Fraction

from .graph_core import GraphError, is_connected_mask, mask_bits, reach_within, union_over
from .rational_la import exact_number

DEFAULT_ENUM_LIMIT = 200_000


class SizeLimitExceeded(GraphError):
    """Enumeration produced more objects than the configured cap."""


def is_matching(g, M):
    """True iff the edge ids of M (a sequence, repeats allowed) cover 2|M|
    distinct vertices, i.e. no two entries share an endpoint."""
    return g.cover_mask(M).bit_count() == 2 * len(M)


def is_connected_matching(g, M):
    """True iff M is a matching whose covered vertices induce a connected subgraph."""
    return is_matching(g, M) and is_connected_mask(g, g.cover_mask(M))


def incidence_vector(g, M):
    g.edge_mask(M)
    x = [0] * g.m
    for e in M:
        x[e - 1] = 1
    return tuple(x)


def _grow(g, covered, options):
    """True iff some connected matching grows from the matching M covering
    the vertex mask covered by edges of options, which avoid covered.

    A connected cover answers at once.  Else let K be the component of the
    cover's least vertex.  The search branches on grow: the edges of options
    at a vertex of N(K) outside the cover.  It is exact:
    - Every connected M' > M with its other edges in options has an edge in
      grow, and the branches split these M' by their least edge in grow.
    - The room cut: the rest of the cover must be reached from N(K) within
      it and what options cover.  It also ends a cover whose grow is empty:
      then no option covers a vertex of N(K) outside the cover, so the reach
      starts empty.
    """
    nbr, at, cover, line = g.neighbor_masks, g.incident_masks, g.endpoint_masks, g.line_masks
    comp = reach_within(nbr, covered, covered & -covered)
    if comp == covered:
        return True
    rest = covered & ~comp
    border = union_over(nbr, comp) & ~covered
    room = rest | union_over(cover, options)
    if reach_within(nbr, room, border & room) & rest != rest:
        return False
    for f in mask_bits(options & union_over(at, border)):
        options &= ~(1 << f)
        if _grow(g, covered | cover[f], options & ~line[f]):
            return True
    return False


def _grow_connected(g, M, near, reach, options, emit):
    """Emit each connected matching M' > M, M connected, with its other edges
    in options, which avoid M's cover: near is the cover with its neighbours,
    and reach the edges at near (for the empty M, every option).

    Each M' is emitted once: it has an edge in reach, and the branches split
    the M' by their least edge in reach, each leaving out its earlier
    siblings.  A branch of a connected cover stays connected.
    """
    nbr, at, line, edges = g.neighbor_masks, g.incident_masks, g.line_masks, g.edges
    for f in mask_bits(options & reach if M else options):
        options &= ~(1 << f)
        u, v = edges[f - 1]
        new = (nbr[u] | nbr[v]) & ~near
        grown = M + (f,)
        emit(grown)
        _grow_connected(g, grown, near | new, reach | union_over(at, new),
                        options & ~line[f], emit)


def enumerate_cm_sets(g, limit=DEFAULT_ENUM_LIMIT):
    """All connected matchings as sorted edge-id tuples, lexicographic order,
    grown from the empty one; more than limit raise SizeLimitExceeded."""
    if limit < 0:
        raise GraphError(f"count limit must be >= 0, got {limit}")
    out = []

    def emit(M):
        if len(out) >= limit:
            raise SizeLimitExceeded(f"more than {limit} connected matchings; raise the limit")
        out.append(tuple(sorted(M)))

    emit(())
    _grow_connected(g, (), 0, 0, g.all_edges, emit)
    return sorted(out)


def enumerate_connected_matchings(g, limit=DEFAULT_ENUM_LIMIT):
    """Incidence vectors of all connected matchings, in canonical order."""
    return [incidence_vector(g, M) for M in enumerate_cm_sets(g, limit)]


def exists_cm_superset(g, R, forbidden=()):
    """True iff some connected matching of g contains all edges of R.

    Edges in forbidden may not be picked as matching edges, but they still
    belong to g and count toward the connectivity of the covered set."""
    R = mask_bits(g.edge_mask(R))
    if not is_matching(g, R):
        raise GraphError("R is not a matching")
    base = g.cover_mask(R)
    free = g.all_edges & ~union_over(g.incident_masks, base) & ~g.edge_mask(forbidden)
    return _grow(g, base, free)


def brute_force_max_weight_cm(g, w, limit=DEFAULT_ENUM_LIMIT):
    """Exhaustive maximum-weight connected matching.

    Ties broken by lexicographically smallest sorted edge-id set, which is
    the enumeration order, so the first maximizer wins.  Returns (value,
    edge-id tuple); the empty matching keeps the value >= 0."""
    w = [exact_number(x) for x in w]
    if len(w) != g.m:
        raise GraphError(f"expected {g.m} weights, got {len(w)}")
    best = max(enumerate_cm_sets(g, limit), key=lambda M: sum(w[e - 1] for e in M))
    return sum((w[e - 1] for e in best), Fraction(0)), best


def format_vrep(vectors, m):
    """V-description text: `m <m> k <count>` then one 0/1 row per vector."""
    lines = [f"m {m} k {len(vectors)}"]
    for x in vectors:
        lines.append(" ".join(str(int(v)) for v in x))
    return "\n".join(lines) + "\n"
