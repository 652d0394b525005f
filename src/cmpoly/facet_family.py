"""The two-positive-coefficient inequality family over disconnected edge pairs.

For a disconnected matching {e1,e2} and the set L of edges at line-graph
distance exactly 2 from both, the row  x_e1 + x_e2 - sum_{f in L} x_f <= 1
is valid whenever no connected matching contains both e1 and e2 while
avoiding the edges of L.  It is facet-defining when additionally L is
nonempty, L induces a clique in the line graph, and each triple
{e1, e2, f} induces a 2-connected subgraph.  That facet hypothesis is
sufficient, not necessary, so it under-claims: all five family facets of j26
fail it.  A row is its own certificate: `family_pair` reads the pair and L back.
`generate_family` builds every row; `separate_family` returns only those a
point violates, without building the others, for the solver's cut loop.
"""

from __future__ import annotations

from .graph_core import GraphError, is_biconnected_mask, mask_bits, union_over
from .inequality import Inequality
from .matchings import _grow, exists_cm_superset


def _near(g, e):
    """Mask of the edges at line-graph distance at most 2 from edge id e,
    which the caller has checked: line_masks[-1] is the last edge's."""
    return union_over(g.line_masks, g.line_masks[e])


def lambda_set(g, e1, e2):
    """Edge ids at line-graph distance exactly 2 from both e1 and e2.

    An edge f is at distance 2 from e exactly when f shares no endpoint with
    e but has an endpoint adjacent to one of e's endpoints.
    """
    pair = g.edge_mask((e1, e2))
    if pair.bit_count() < 2:
        raise GraphError("lambda set needs two distinct edges")
    return tuple(mask_bits(_near(g, e1) & _near(g, e2) & ~union_over(g.line_masks, pair)))


def is_disconnected_pair(g, e1, e2):
    """True iff e1,e2 are vertex-disjoint and their four endpoints induce a
    disconnected subgraph: their line-graph distance is at least 3."""
    if g.edge_mask((e1, e2)).bit_count() < 2:
        raise GraphError("pair needs two distinct edges")
    return not _near(g, e1) >> e2 & 1


def family_inequality(g, e1, e2):
    """Row +1 on e1,e2, -1 on each lambda edge, rhs 1."""
    if not is_disconnected_pair(g, e1, e2):
        raise GraphError(f"edges {e1},{e2} are not a disconnected pair")
    return _family_row(g, e1, e2, lambda_set(g, e1, e2))


def _family_row(g, e1, e2, lam):
    coeffs = [0] * g.m
    coeffs[e1 - 1] = coeffs[e2 - 1] = 1
    for f in lam:
        coeffs[f - 1] = -1
    lo, hi = min(e1, e2), max(e1, e2)
    prov = f"pair=({lo},{hi}) lambda={{{','.join(map(str, lam))}}}"
    return Inequality(coeffs, 1, tag="family", provenance=prov)


def family_pair(g, q):
    """(pair, lambda) when q is the family row of a disconnected pair of g --
    rhs 1, +1 on the two pair edges, -1 on exactly their lambda set, 0
    elsewhere -- else None.  Rows are stored primitive, so a positive
    multiple of a family row reads as the row.  The row is read as its
    `Inequality.sign_masks`: plus must hold two edges and other none."""
    if q.rhs != 1 or q.m != g.m:
        return None
    plus, minus, other = q.sign_masks
    if other or plus.bit_count() != 2:
        return None
    pair = tuple(mask_bits(plus))
    if not is_disconnected_pair(g, *pair):
        return None
    lam = lambda_set(g, *pair)
    return (pair, lam) if lam == tuple(mask_bits(minus)) else None


def check_validity_hypothesis(g, e1, e2):
    """True iff no connected matching of g contains both e1 and e2 while
    avoiding every lambda edge.

    The lambda edges are excluded only as matching edges; they still count
    toward connectivity of the covered set.  Judging connectivity with the
    lambda edges deleted would be too weak: a lambda edge can connect the
    covered vertices without being picked, and the resulting incidence
    vector would violate the row.  This check is exact -- the row is valid
    if and only if it returns true.
    """
    if not is_disconnected_pair(g, e1, e2):
        raise GraphError(f"edges {e1},{e2} are not a disconnected pair")
    return not exists_cm_superset(g, [e1, e2], forbidden=lambda_set(g, e1, e2))


def facet_hypothesis(g, pair, lam):
    """The module's facet hypothesis for a disconnected pair of edge ids and
    its lambda set lam, which must name exactly `lambda_set` of the pair:
    any other pair or lam raises GraphError."""
    pair_mask, clique = g.edge_mask(pair), g.edge_mask(lam)
    if len(pair) != 2 or pair_mask.bit_count() != 2:
        raise GraphError("pair needs two distinct edges")
    e1, e2 = pair
    if not is_disconnected_pair(g, e1, e2):
        raise GraphError(f"edges {e1},{e2} are not a disconnected pair")
    if clique != g.edge_mask(lambda_set(g, e1, e2)):
        raise GraphError(f"{tuple(lam)} is not the lambda set of edges {e1},{e2}")
    line, ends = g.line_masks, g.endpoint_masks
    pair_cover = union_over(ends, pair_mask)
    # lam is a clique of the line graph when each f in it touches all of lam
    if not lam or any(clique & ~line[f] for f in lam):
        return False
    return all(is_biconnected_mask(g, pair_cover | ends[f]) for f in lam)


def _pair_row(g, near, e1, e2, xstar=None):
    """The family row of the edges e1 < e2 when they are a disconnected pair
    and pass the validity hypothesis, else None; given a point xstar, also
    None unless the row is violated there.  near[e] is the mask of the edges
    at line-graph distance at most 2 from e, so one mask test decides
    disconnection and one mask expression gives lambda.  The validity search
    runs last, entered with those masks: the cheap tests settle most pairs.
    """
    if near[e1] >> e2 & 1:
        return None
    line, ends = g.line_masks, g.endpoint_masks
    touch = line[e1] | line[e2]
    lam = near[e1] & near[e2] & ~touch
    if xstar is not None and (xstar[e1 - 1] + xstar[e2 - 1]
                              - sum(xstar[f - 1] for f in mask_bits(lam)) <= 1):
        return None
    # exists_cm_superset(g, (e1, e2), lam) without its input checks
    if _grow(g, ends[e1] | ends[e2], g.all_edges & ~(touch | lam)):
        return None
    return _family_row(g, e1, e2, tuple(mask_bits(lam)))


def generate_family(g):
    """The family row of each unordered disconnected pair that passes the
    validity hypothesis, ordered by (min id, max id).  Each edge's 2-ball in
    the line graph is built once, for `_pair_row`."""
    near = [union_over(g.line_masks, ball) for ball in g.line_masks]
    rows = (_pair_row(g, near, e1, e2)
            for e1 in range(1, g.m + 1) for e2 in range(e1 + 1, g.m + 1))
    return [q for q in rows if q is not None]


def separate_family(g, xstar):
    """The rows of `generate_family(g)` that the point xstar (one value per
    edge) violates, in the same order, with the same bytes.

    Exact: a row x_e1 + x_e2 - x(lambda) <= 1 can be violated only when
    x_e1 + x_e2 > 1, as x >= 0 on lambda, so only pairs of the support of
    xstar with that sum are tested, and `_pair_row` runs the validity search
    only for those whose row xstar violates.  `Graph.edge_point` reads xstar.
    """
    xstar = g.edge_point(xstar)
    support = [e for e in range(1, g.m + 1) if xstar[e - 1]]
    near = {e: _near(g, e) for e in support}
    rows = (_pair_row(g, near, e1, e2, xstar)
            for i, e1 in enumerate(support) for e2 in support[i + 1:]
            if xstar[e1 - 1] + xstar[e2 - 1] > 1)
    return [q for q in rows if q is not None]
