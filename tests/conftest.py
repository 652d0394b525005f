import random
from math import gcd

import pytest

from cmpoly.graph_core import Graph


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


def to_networkx(g):
    import networkx as nx
    G = nx.Graph()
    G.add_nodes_from(range(1, g.n + 1))
    G.add_edges_from(g.edges)
    return G


@pytest.fixture(scope="session")
def random_suite():
    return [random_connected_graph(seed) for seed in range(100)]
