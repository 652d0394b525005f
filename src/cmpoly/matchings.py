"""Connected-matching predicates and the one search that grows them."""

from __future__ import annotations

from fractions import Fraction

from .graph_core import GraphError, is_connected_mask, mask_bits, reach_within, union_over

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
    x = [0] * g.m
    for e in M:
        x[e - 1] = 1
    return tuple(x)


def _grow(g, M, covered, options, emit):
    """Grow connected matchings from the matching M (a tuple covering the
    vertex mask covered) by edges of options, which avoid covered.

    emit gets each connected matching reached; once it returns True, so does
    the search.  Let K be the component of the cover's least vertex.  The
    search branches on grow: the edges of options at a vertex of N(K) outside
    the cover (every option when the cover is empty).  It is exact:
    - Each matching is emitted once.  Every connected M' > M with its other
      edges in options has an edge in grow, and the branches split these M' by
      their least edge in grow: each leaves out its earlier siblings.
    - Sibling exclusion keeps the memo valid.  If the branch on f emitted
      nothing, no connected matching grown from this cover, or from one grown
      from it, uses f.  A cover that failed with edges excluded would fail with
      none, so a memo keyed on the cover alone is correct.
    - A branch of a connected cover is connected, so only disconnected covers
      pay for the component BFS, the memo and the room cut (the rest of the
      cover must reach N(K) within it and what options cover).  Enumeration
      meets none; the superset test stops at its first emit.
    """
    nbr, at, cover, edges = g.neighbor_masks, g.incident_masks, g.endpoint_masks, g.edges
    seen = set()

    def rec(M, covered, options):
        if covered in seen:
            return False
        comp = reach_within(nbr, covered, covered & -covered)
        if comp == covered:
            if emit(M):
                return True
            near = covered | union_over(nbr, covered)
            return _grow_connected(g, M, near, union_over(at, near), options, emit)
        seen.add(covered)
        rest = covered & ~comp
        border = union_over(nbr, comp) & ~covered
        grow = options & union_over(at, border)
        room = rest | union_over(cover, options)
        if not grow or reach_within(nbr, room, border & room) & rest != rest:
            return False
        for f in mask_bits(grow):
            options &= ~(1 << f)
            u, v = edges[f - 1]
            if rec(M + (f,), covered | cover[f], options & ~(at[u] | at[v])):
                return True
        return False

    return rec(M, covered, options)


def _grow_connected(g, M, near, reach, options, emit):
    """_grow from a connected cover, whose branches all stay connected: near
    is the cover with its neighbours, and reach the edges at near."""
    nbr, at, edges = g.neighbor_masks, g.incident_masks, g.edges
    for f in mask_bits(options & reach if M else options):
        options &= ~(1 << f)
        u, v = edges[f - 1]
        new = (nbr[u] | nbr[v]) & ~near
        grown = M + (f,)
        if emit(grown) or _grow_connected(g, grown, near | new, reach | union_over(at, new),
                                          options & ~(at[u] | at[v]), emit):
            return True
    return False


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

    _grow(g, (), 0, (1 << (g.m + 1)) - 2, emit)
    return sorted(out)


def enumerate_connected_matchings(g, limit=DEFAULT_ENUM_LIMIT):
    """Incidence vectors of all connected matchings, in canonical order."""
    return [incidence_vector(g, M) for M in enumerate_cm_sets(g, limit)]


def exists_cm_superset(g, R, forbidden=()):
    """True iff some connected matching of g contains all edges of R.

    Edges in forbidden may not be picked as matching edges, but they still
    belong to g and count toward the connectivity of the covered set."""
    R = set(R)
    if not is_matching(g, R):
        raise GraphError("R is not a matching")
    base = g.cover_mask(R)
    free = ((1 << (g.m + 1)) - 2) & ~union_over(g.incident_masks, base)
    for e in forbidden:
        free &= ~(1 << e)
    return _grow(g, tuple(R), base, free, lambda M: True)


def brute_force_max_weight_cm(g, w, limit=DEFAULT_ENUM_LIMIT):
    """Exhaustive maximum-weight connected matching.

    Ties broken by lexicographically smallest sorted edge-id set, which is
    the enumeration order, so the first maximizer wins.  Returns (value,
    edge-id tuple); the empty matching keeps the value >= 0."""
    w = [Fraction(x) for x in w]
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
