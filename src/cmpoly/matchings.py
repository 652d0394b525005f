"""Connected-matching predicates, enumeration, and the brute-force oracle."""

from __future__ import annotations

from fractions import Fraction

from .graph_core import GraphError, is_connected_mask, reach_within

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


def enumerate_cm_sets(g, limit=DEFAULT_ENUM_LIMIT):
    """All connected matchings as sorted edge-id tuples, lexicographic order.

    Backtracks over edge ids in increasing order, pruning only on matching
    violations; connectivity is tested at emission (it is not monotone under
    edge addition, so it cannot prune).  Covered vertices are a bitmask.
    """
    cover = g.endpoint_masks
    out = []

    def rec(current, covered, start):
        if is_connected_mask(g, covered):
            if len(out) >= limit:
                raise SizeLimitExceeded(
                    f"more than {limit} connected matchings; raise the limit")
            out.append(tuple(current))
        for e in range(start, g.m + 1):
            if covered & cover[e]:
                continue
            current.append(e)
            rec(current, covered | cover[e], e + 1)
            current.pop()

    rec([], 0, 1)
    return out


def enumerate_connected_matchings(g, limit=DEFAULT_ENUM_LIMIT):
    """Incidence vectors of all connected matchings, in canonical order."""
    return [incidence_vector(g, M) for M in enumerate_cm_sets(g, limit)]


def exists_cm_superset(g, R, forbidden=()):
    """True iff some connected matching of g contains all edges of R.

    Edges in forbidden may not be picked as matching edges, but they still
    belong to g and count toward the connectivity of the covered set.

    Backtracks over the free edges (neither in R nor forbidden, disjoint
    from R) with the covered vertices as a bitmask C.  A subtree is cut
    when C does not lie in one component of G[C | U], where U is what the
    subtree's remaining compatible free edges could still cover.  The cut
    is exact: every matching the subtree can reach covers a set between C
    and C | U, so if that set is connected it joins all of C inside
    G[C | U].  The neighbour masks hold every edge of g, forbidden ones
    included, so the cut judges connectivity as the final test does.
    """
    R = sorted(set(R))
    if not is_matching(g, R):
        raise GraphError("R is not a matching")
    nbr = g.neighbor_masks
    cover = g.endpoint_masks
    base = g.cover_mask(R)
    forbidden = set(forbidden)
    # an edge of R covers vertices of base, so the test on base excludes it
    free = [cover[e] for e in range(1, g.m + 1)
            if e not in forbidden and not cover[e] & base]

    def rec(covered, idx):
        low = covered & -covered
        if reach_within(nbr, covered, low) == covered:
            return True
        options = [k for k in range(idx, len(free)) if not covered & free[k]]
        room = covered
        for k in options:
            room |= free[k]
        if reach_within(nbr, room, low) & covered != covered:
            return False
        return any(rec(covered | free[k], k + 1) for k in options)

    return rec(base, 0)


def brute_force_max_weight_cm(g, w, limit=DEFAULT_ENUM_LIMIT):
    """Exhaustive maximum-weight connected matching.

    Ties broken by lexicographically smallest sorted edge-id set, which is
    the enumeration order, so the first maximizer encountered wins.
    Returns (value, edge-id tuple); the empty matching keeps the value >= 0.
    """
    w = [Fraction(x) for x in w]
    if len(w) != g.m:
        raise GraphError(f"expected {g.m} weights, got {len(w)}")
    best_val = None
    best_set = None
    for M in enumerate_cm_sets(g, limit):
        val = sum((w[e - 1] for e in M), Fraction(0))
        if best_val is None or val > best_val:
            best_val, best_set = val, M
    return best_val, best_set


def format_vrep(vectors, m):
    """V-description text: `m <m> k <count>` then one 0/1 row per vector."""
    lines = [f"m {m} k {len(vectors)}"]
    for x in vectors:
        lines.append(" ".join(str(int(v)) for v in x))
    return "\n".join(lines) + "\n"
