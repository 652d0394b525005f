import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from cmpoly.graph_core import Graph, line_distance
from cmpoly.polytope import classify
from cmpoly.solver import SolveConfig, build_base_lp, solve_lp_exact


def random_connected_graph(seed, n_lo=4, n_hi=8, max_extra=4, m_cap=12):
    """Seeded random connected graph: random spanning tree plus extra edges."""
    rng = random.Random(seed)
    n = rng.randint(n_lo, n_hi)
    verts = list(range(1, n + 1))
    edges = set()
    for v in verts[1:]:
        u = rng.choice(verts[:v - 1])
        edges.add((min(u, v), max(u, v)))
    target = min(n * (n - 1) // 2, m_cap, len(edges) + rng.randint(0, max_extra))
    while len(edges) < target:
        u, v = rng.sample(verts, 2)
        edges.add((min(u, v), max(u, v)))
    return Graph(n, tuple(sorted(edges)))


BIG = 10 ** 30


def spread_weights(rng, g, huge):
    """Weights in [3/2, 8] on a maximal set of edges pairwise at line-graph
    distance >= 3 and in [0, 1] on the rest, so the LP optimum tends to be
    disconnected and branch-and-cut has to cut and branch; with `huge`, each
    is scaled by a 30-digit ratio in [1/2, 2]."""
    heavy = []
    for e in rng.sample(range(1, g.m + 1), g.m):
        if all(line_distance(g, e, f) >= 3 for f in heavy):
            heavy.append(e)
    w = [Fraction(rng.randint(12, 64) if e in heavy else rng.randint(0, 8), 8)
         for e in range(1, g.m + 1)]
    if huge:
        w = [x * Fraction(rng.randint(BIG, 2 * BIG), rng.randint(BIG, 2 * BIG))
             for x in w]
    return w


def assert_primitive_int_row(q):
    """q's coefficients and rhs are all ints, with gcd 1."""
    values = [*q.coeffs, q.rhs]
    assert all(type(v) is int for v in values), values
    assert gcd(*values) == 1, values


def set_bfs_components(g, S):
    """Reference components of G[S]: set-based BFS from the least unseen vertex."""
    S = set(S)
    unseen = set(S)
    comps = []
    while unseen:
        start = min(unseen)
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if u in S and u not in comp:
                    comp.add(u)
                    stack.append(u)
        comps.append(comp)
        unseen -= comp
    return comps


def class_histogram(H, g):
    """Count facets by class key."""
    return Counter(classify(q, g).key for q in H.facets)


def root_gap_report(g, w):
    """Root LP values (without family rows, with family rows)."""
    no_fam = build_base_lp(g, w, SolveConfig(use_family_cuts=False))
    with_fam = build_base_lp(g, w, SolveConfig(use_family_cuts=True))
    return solve_lp_exact(no_fam)[0], solve_lp_exact(with_fam)[0]


def to_networkx(g):
    import networkx as nx
    G = nx.Graph()
    G.add_nodes_from(range(1, g.n + 1))
    G.add_edges_from(g.edges)
    return G


@pytest.fixture(scope="session")
def random_suite():
    return [random_connected_graph(seed) for seed in range(100)]
