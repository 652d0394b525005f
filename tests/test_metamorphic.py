"""Metamorphic relations: facts about the connected matching polytope that
hold on any graph without a stored answer, checked on a seeded corpus.

- Relabelling the vertices and edges maps the hrep facets, the family rows,
  the msi rows, the class histogram, the connected matchings and the edge
  parts across by the edge permutation, and keeps the solve optimum, with
  and without family rows.
- A disjoint union has |CM(G)| + |CM(H)| - 1 connected matchings (the empty
  one is counted once), its edge parts are those of G and those of H, and
  its optimum is max(opt G, opt H).
- An added isolated vertex changes no hrep or family row.  It keeps every
  msi row and adds the degree row of each vertex with an edge: the vertex
  and the new one have the empty separator.
- Scaling the weights by lam > 0 scales the optimum by lam.
"""

import random
from fractions import Fraction
from functools import cache

import pytest

from cmpoly.facet_family import generate_family
from cmpoly.graph_core import Graph, edge_parts, generate, mask_bits
from cmpoly.matchings import enumerate_cm_sets
from cmpoly.msi import minimal_separators, msi_row, vertex_row
from cmpoly.polytope import hrep, vrep
from cmpoly.solver import SolveConfig, branch_and_cut

from conftest import class_histogram, random_connected_graph, spread_weights

CORPUS = ("j26", "cycle:9", "path:9", "cube:3", "petersen",
          *(f"random-{i}" for i in range(40)))
CONFIGS = (SolveConfig(use_family_cuts=True), SolveConfig(use_family_cuts=False))


@cache
def corpus_graph(name):
    """A named graph, or a seeded random connected graph with n 5-8, m <= 13."""
    if name.startswith("random-"):
        return random_connected_graph(f"metamorphic-{name}", n_lo=5, n_hi=8,
                                      max_extra=5, m_cap=13)
    return generate(name)


@cache
def facets(name):
    return hrep(vrep(corpus_graph(name)))


def weights(name):
    return spread_weights(random.Random(f"weights-{name}"), corpus_graph(name), False)


def relabel(g, rng):
    """g with its vertices and edge ids permuted at random, and pe, where
    pe[e] is the new id of edge e."""
    pv = [0, *rng.sample(range(1, g.n + 1), g.n)]
    pe = [0, *rng.sample(range(1, g.m + 1), g.m)]
    edges = [None] * g.m
    for e, (u, v) in enumerate(g.edges, start=1):
        edges[pe[e] - 1] = (pv[v], pv[u])
    return Graph(g.n, tuple(edges)), pe


def permute(values, pe):
    """values over the old edge ids, laid out over the new ones."""
    out = [None] * len(values)
    for j, x in enumerate(values):
        out[pe[j + 1] - 1] = x
    return out


def mapped_rows(rows, pe):
    return {(tuple(permute(q.coeffs, pe)), q.rhs) for q in rows}


def row_set(rows):
    return {(q.coeffs, q.rhs) for q in rows}


def msi_rows(g):
    """The nonzero projected MSIs of every non-adjacent pair, as `cmpoly msi`
    prints them."""
    rows = []
    for a in range(1, g.n + 1):
        for b in range(a + 1, g.n + 1):
            if not g.neighbor_masks[a] >> b & 1:
                rows += [msi_row(g, a, b, C) for C in minimal_separators(g, a, b)]
    return [q for q in rows if any(q.coeffs)]


def optimum(g, w, config=CONFIGS[0]):
    return branch_and_cut(g, w, config).value


@pytest.mark.parametrize("name", CORPUS)
def test_relabelling_maps_rows_across(name):
    g = corpus_graph(name)
    h, pe = relabel(g, random.Random(f"relabel-{name}"))
    H = hrep(vrep(h))
    assert mapped_rows(facets(name).facets, pe) == row_set(H.facets)
    assert class_histogram(facets(name), g) == class_histogram(H, h)
    assert mapped_rows(generate_family(g), pe) == row_set(generate_family(h))
    assert mapped_rows(msi_rows(g), pe) == row_set(msi_rows(h))
    assert ({tuple(sorted(pe[e] for e in M)) for M in enumerate_cm_sets(g)}
            == set(enumerate_cm_sets(h)))


@pytest.mark.parametrize("name", CORPUS)
def test_relabelling_maps_parts_across(name):
    g = corpus_graph(name)
    h, pe = relabel(g, random.Random(f"relabel-{name}"))
    assert ({frozenset(pe[e] for e in mask_bits(p)) for p in edge_parts(g)}
            == {frozenset(mask_bits(p)) for p in edge_parts(h)})


@pytest.mark.parametrize("name", CORPUS)
def test_relabelling_keeps_the_optimum(name):
    g, w = corpus_graph(name), weights(name)
    h, pe = relabel(g, random.Random(f"relabel-{name}"))
    for config in CONFIGS:
        assert optimum(g, w, config) == optimum(h, permute(w, pe), config)


@pytest.mark.parametrize("i", range(30))
def test_disjoint_union(i):
    g, h = (random_connected_graph(f"union-{i}-{k}", n_lo=5, n_hi=7, max_extra=3, m_cap=9)
            for k in range(2))
    rng = random.Random(f"union-{i}")
    wg, wh = spread_weights(rng, g, False), spread_weights(rng, h, False)
    shifted = tuple((u + g.n, v + g.n) for u, v in h.edges)
    gh = Graph(g.n + h.n, g.edges + shifted)
    assert len(enumerate_cm_sets(gh)) == len(enumerate_cm_sets(g)) + len(enumerate_cm_sets(h)) - 1
    # h's edge ids are shifted by g.m in gh, so its part masks are too
    assert edge_parts(gh) == edge_parts(g) + [p << g.m for p in edge_parts(h)]
    for config in CONFIGS:
        assert optimum(gh, wg + wh, config) == max(optimum(g, wg, config),
                                                   optimum(h, wh, config))


@pytest.mark.parametrize("name", CORPUS)
def test_isolated_vertex_changes_no_row(name):
    g = corpus_graph(name)
    g1 = Graph(g.n + 1, g.edges)
    assert hrep(vrep(g1)) == facets(name)
    assert generate_family(g1) == generate_family(g)


@pytest.mark.parametrize("name", CORPUS)
def test_isolated_vertex_adds_the_degree_rows_to_msi(name):
    g = corpus_graph(name)
    old, new = row_set(msi_rows(g)), row_set(msi_rows(Graph(g.n + 1, g.edges)))
    degree = row_set(vertex_row(g, 1 << v, 0, "degree", "")
                     for v in range(1, g.n + 1) if g.incident_masks[v])
    assert old <= new and new - old == degree


@pytest.mark.parametrize("name", CORPUS)
def test_scaling_the_weights_scales_the_optimum(name):
    g, w = corpus_graph(name), weights(name)
    for lam in (Fraction(3, 7), 10 ** 20 + 1):
        assert optimum(g, [lam * x for x in w]) == lam * optimum(g, w)
