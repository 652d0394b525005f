"""The two-positive-coefficient inequality family over disconnected edge pairs.

For a disconnected matching {e1,e2} and the set L of edges at line-graph
distance exactly 2 from both, the row  x_e1 + x_e2 - sum_{f in L} x_f <= 1
is valid whenever no connected matching contains both e1 and e2 while
avoiding the edges of L.  It is facet-defining when additionally L is
nonempty, L induces a clique in the line graph, and each triple
{e1, e2, f} induces a 2-connected subgraph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph_core import GraphError, is_biconnected_mask, mask_bits, union_over
from .inequality import Inequality
from .matchings import _grow, exists_cm_superset


@dataclass(frozen=True)
class FamilyCertificate:
    """What a family row's pair was found to satisfy.  Every emitted pair is
    disconnected and valid, so only the checks that can fail are kept."""
    pair: tuple
    lam: tuple
    facet_certified: bool


def _edge_masks(g, e):
    """(touch, nv, near) of edge id e: the edges that share an endpoint with
    e, the vertices at or next to its endpoints, and the edges at those."""
    u, v = g.endpoints(e)
    at, nbr = g.incident_masks, g.neighbor_masks
    nv = nbr[u] | nbr[v]   # holds u and v, each the other's neighbour
    return at[u] | at[v], nv, union_over(at, nv)


def _lambda_mask(a, b):
    """Mask of the lambda set of two edges with _edge_masks a and b: edges at
    a vertex next to each, at no endpoint of either."""
    return a[2] & b[2] & ~(a[0] | b[0])


def lambda_set(g, e1, e2):
    """Edge ids at line-graph distance exactly 2 from both e1 and e2.

    An edge f is at distance 2 from e exactly when f shares no endpoint with
    e but has an endpoint adjacent to one of e's endpoints.
    """
    if e1 == e2:
        raise GraphError("lambda set needs two distinct edges")
    return tuple(mask_bits(_lambda_mask(_edge_masks(g, e1), _edge_masks(g, e2))))


def is_disconnected_pair(g, e1, e2):
    """True iff e1,e2 are vertex-disjoint and their four endpoints induce a
    disconnected subgraph: no endpoint of e2 is at or next to one of e1."""
    if e1 == e2:
        raise GraphError("pair needs two distinct edges")
    return not _edge_masks(g, e1)[1] & g.cover_mask((e2,))


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


def _facet_hypothesis(g, e1, e2, lam):
    if not lam:
        return False
    ends = g.endpoint_masks
    for i, f in enumerate(lam):
        for f2 in lam[i + 1:]:
            if not ends[f] & ends[f2]:
                return False
    pair_cover = ends[e1] | ends[e2]
    return all(is_biconnected_mask(g, pair_cover | ends[f]) for f in lam)


def generate_family(g):
    """One (Inequality, FamilyCertificate) per unordered disconnected pair that
    passes the validity hypothesis, ordered by (min id, max id).

    The _edge_masks of every edge are built once, so each pair costs one
    mask test for disconnection and one for its lambda set, then one
    validity search, entered with those masks, and one certificate.
    """
    masks = [None] + [_edge_masks(g, e) for e in range(1, g.m + 1)]
    ends, every = g.endpoint_masks, (1 << (g.m + 1)) - 2
    out = []
    for e1 in range(1, g.m + 1):
        a = masks[e1]
        for e2 in range(e1 + 1, g.m + 1):
            b = masks[e2]
            if a[1] & ends[e2]:
                continue
            lam = _lambda_mask(a, b)
            # exists_cm_superset(g, (e1, e2), lam) without its input checks
            if _grow(g, (e1, e2), ends[e1] | ends[e2], every & ~(a[0] | b[0] | lam),
                     lambda M: True):
                continue
            lam = tuple(mask_bits(lam))
            cert = FamilyCertificate(
                pair=(e1, e2),
                lam=lam,
                facet_certified=_facet_hypothesis(g, e1, e2, lam),
            )
            out.append((_family_row(g, e1, e2, lam), cert))
    return out
