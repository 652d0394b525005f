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

from .graph_core import (GraphError, is_biconnected_mask, is_connected_mask, mask_bits,
                         union_over)
from .inequality import Inequality
from .matchings import exists_cm_superset


@dataclass(frozen=True)
class FamilyCertificate:
    """What a family row's pair was found to satisfy.  Every emitted pair is
    disconnected and valid, so only the checks that can fail are kept."""
    pair: tuple
    lam: tuple
    facet_certified: bool


def lambda_set(g, e1, e2):
    """Edge ids at line-graph distance exactly 2 from both e1 and e2.

    An edge f is at distance 2 from e exactly when f shares no endpoint with
    e but has an endpoint adjacent to one of e's endpoints.
    """
    if e1 == e2:
        raise GraphError("lambda set needs two distinct edges")
    ends1, ends2 = g.cover_mask((e1,)), g.cover_mask((e2,))
    # edges at a neighbour of e1 and at a neighbour of e2, but at no endpoint
    at, nbr = g.incident_masks, g.neighbor_masks
    lam = (union_over(at, union_over(nbr, ends1)) & union_over(at, union_over(nbr, ends2))
           & ~union_over(at, ends1 | ends2))
    return tuple(mask_bits(lam))


def is_disconnected_pair(g, e1, e2):
    """True iff e1,e2 are vertex-disjoint and their four endpoints induce a
    disconnected subgraph.  Two edges sharing an endpoint cover a connected
    set, so the connectivity test alone decides."""
    if e1 == e2:
        raise GraphError("pair needs two distinct edges")
    return not is_connected_mask(g, g.cover_mask((e1, e2)))


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
    return _is_valid(g, e1, e2, lambda_set(g, e1, e2))


def _is_valid(g, e1, e2, lam):
    return not exists_cm_superset(g, [e1, e2], forbidden=lam)


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

    Each pair is decided once: one disconnected test, one lambda set, one
    validity search, one certificate.
    """
    out = []
    for e1 in range(1, g.m + 1):
        for e2 in range(e1 + 1, g.m + 1):
            if not is_disconnected_pair(g, e1, e2):
                continue
            lam = lambda_set(g, e1, e2)
            if not _is_valid(g, e1, e2, lam):
                continue
            cert = FamilyCertificate(
                pair=(e1, e2),
                lam=lam,
                facet_certified=_facet_hypothesis(g, e1, e2, lam),
            )
            out.append((_family_row(g, e1, e2, lam), cert))
    return out
