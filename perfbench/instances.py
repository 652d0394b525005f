"""Seeded instance generators for the four benchmark workloads.

Every workload generator takes the benchmark seed; the same seed gives the
same graphs, weights and candidate rows.  Anchor instances are the same on
every seed; seeded instances are drawn from fixed size strata, so that a
held-out seed gives a workload of the same size, not a different one.

Nothing here calls the hull, the verifier or the solver: inputs are built
combinatorially, so set-up never runs the layers the workloads measure.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from cmpoly.facet_family import family_inequality, is_disconnected_pair
from cmpoly.graph_core import Graph, generate, is_connected_induced, line_distance
from cmpoly.msi import Separator, minimalize, project_msi

# Each workload is a list of anchor instances, fixed on every seed, followed
# by seeded instances drawn from the benchmark seed.  The anchors are named
# graphs plus random graphs drawn from fixed seeds; they carry most of the
# work.  The seeded instances are smaller than every anchor and fewer than
# half the list, so the median and tail instance are anchors and a held-out
# seed gives a workload of the same size; hull and solver times are
# heavy-tailed in the graph and its weights (a seeded cycle:12 took 0.01 s
# on one seed and 6 s on another).  Every instance takes well under a
# second, so that a run times each one several times.

HULL_ANCHORS = ("j26", "cycle:11", "path:13", "path:12", "cube:3", "cycle:10",
                "cycle:9", "path:11")
# (edge count, how many) strata of random graphs with n = ceil(2m/3) + 1.
# petersen (1.9 s) and path:16 (4.9 s) are left out, and m >= 13 too: one
# random graph takes up to 0.6 s at m=13 and up to 8 s at m=16.
HULL_FIXED = ((10, 8), (11, 10), (12, 6))
HULL_SEEDED = ((7, 6), (8, 8))

CERTIFY_ANCHORS = ("cycle:10", "cycle:9", "cycle:8", "complete:5", "path:9",
                   "cycle:7", "path:8", "path:7")
CERTIFY_FIXED = ((7, 6), (8, 6))
CERTIFY_SEEDED = ((4, 6), (5, 8))
CERTIFY_SAMPLE = 6   # rows sampled per row kind and graph

# Solve anchors: (m, index) of a sparse graph (a tree plus three edges) with
# spread weights, per m = 14..22: indices whose solve takes 0.08-0.3 s.
# Seeded sparse graphs with m = 7..9 solve at the root.
SOLVE_ANCHORS = ((14, 0), (15, 0), (15, 1), (16, 1), (16, 2),
                 (17, 0), (17, 4), (18, 0), (18, 1), (19, 0), (19, 2),
                 (20, 4), (21, 0), (22, 3), (22, 4))
SOLVE_SEEDED = ((7, 4), (8, 4), (9, 4))

# (graph, weight draw) pairs that need at least one MSI cut and solve in at
# most 0.5 s with --no-family-cuts, and at least 0.09 s on cycle:8.  Other
# draws on cycle:10 and larger take up to 3 s, and cycle:14 and larger take
# 24-78 s.  Seeded sparse graphs with m = 8..9 solve at the root.
SOLVE_CUTS_ANCHORS = (("cycle:8", 0), ("cycle:8", 2), ("cycle:8", 5),
                      ("cycle:8", 7), ("cycle:8", 8), ("cycle:8", 11),
                      ("cycle:8", 12), ("cycle:9", 2),
                      ("cycle:9", 3), ("cycle:10", 6), ("cycle:10", 9),
                      ("cycle:11", 3), ("cycle:12", 6), ("cycle:13", 9),
                      ("petersen", 6))
SOLVE_CUTS_SEEDED = ((8, 5), (9, 5))

CLI_EDGE_LIMIT = 20   # the CLI's default --limit


@dataclass
class Instance:
    """One unit of work: a graph plus whatever the workload feeds with it."""

    name: str
    graph: Graph
    weights: tuple | None = None
    rows: list = field(default_factory=list)   # (coeffs, rhs, kind) for certify
    graph_path: str = ""   # input and output files, set when written
    rows_path: str = ""
    out_path: str = ""

    @property
    def limit_args(self):
        return ["--limit", str(self.graph.m)] if self.graph.m > CLI_EDGE_LIMIT else []


def random_connected_graph(rng, n, m):
    """Random spanning tree on n vertices plus random extra edges up to m."""
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"no connected simple graph with n={n}, m={m}")
    edges = set()
    for v in range(2, n + 1):
        edges.add((rng.randint(1, v - 1), v))
    while len(edges) < m:
        u, v = sorted(rng.sample(range(1, n + 1), 2))
        edges.add((u, v))
    return Graph(n, tuple(sorted(edges)))


def spread_weights(rng, g):
    """Heavy weights in [3/2, 8] on a maximal set of edges that are pairwise at
    line-graph distance >= 3 (picked in seeded order); weights in [0, 1] on
    the rest.  The heavy edges cannot all be matched connectedly, so the LP
    optimum is disconnected and the solver has to cut or branch."""
    order = list(range(1, g.m + 1))
    rng.shuffle(order)
    heavy = []
    for e in order:
        if all(line_distance(g, e, f) >= 3 for f in heavy):
            heavy.append(e)
    heavy = set(heavy)
    return tuple(Fraction(rng.randint(12, 64), 8) if e in heavy
                 else Fraction(rng.randint(0, 8), 8)
                 for e in range(1, g.m + 1))


def _random_graphs(rng, strata, n_of_m, prefix="seeded"):
    return [(f"{prefix}-m{m}-{k}", random_connected_graph(rng, n_of_m(m), m))
            for m, count in strata for k in range(count)]


def _dense(m):
    return math.ceil(2 * m / 3) + 1


def _sparse(m):
    return m - 2


def hull_instances(seed):
    rng = random.Random(f"hull-{seed}")
    graphs = [(name, generate(name)) for name in HULL_ANCHORS]
    graphs += _random_graphs(random.Random("anchor-hull"), HULL_FIXED, _dense, "anchor")
    graphs += _random_graphs(rng, HULL_SEEDED, _dense)
    return [Instance(name, g) for name, g in graphs]


def certify_instances(seed):
    insts = []
    for name in CERTIFY_ANCHORS:
        g = generate(name)
        insts.append(Instance(name, g, rows=candidate_rows(random.Random(f"anchor-{name}"), g)))
    rng = random.Random("anchor-certify")
    for name, g in _random_graphs(rng, CERTIFY_FIXED, _dense, "anchor"):
        insts.append(Instance(name, g, rows=candidate_rows(rng, g)))
    rng = random.Random(f"certify-{seed}")
    for name, g in _random_graphs(rng, CERTIFY_SEEDED, _dense):
        insts.append(Instance(name, g, rows=candidate_rows(rng, g)))
    return insts


def solve_instances(seed):
    insts = []
    for m, k in SOLVE_ANCHORS:
        rng = random.Random(f"anchor-solve-m{m}-{k}")
        g = random_connected_graph(rng, _sparse(m), m)
        insts.append(Instance(f"anchor-m{m}-{k}", g, spread_weights(rng, g)))
    rng = random.Random(f"solve-{seed}")
    insts += [Instance(name, g, spread_weights(rng, g))
              for name, g in _random_graphs(rng, SOLVE_SEEDED, _sparse)]
    return insts


def solve_cuts_instances(seed):
    insts = []
    for name, draw in SOLVE_CUTS_ANCHORS:
        g = generate(name)
        w = spread_weights(random.Random(f"anchor-{name}-{draw}"), g)
        insts.append(Instance(f"{name}-w{draw}", g, w))
    rng = random.Random(f"solve-cuts-{seed}")
    insts += [Instance(name, g, spread_weights(rng, g))
              for name, g in _random_graphs(rng, SOLVE_CUTS_SEEDED, _sparse)]
    return insts


def _row(m, plus=(), minus=(), rhs=1):
    coeffs = [0] * m
    for e in plus:
        coeffs[e - 1] += 1
    for e in minus:
        coeffs[e - 1] -= 1
    return coeffs, rhs


def _sample(rng, items, k):
    items = list(items)
    return items if len(items) <= k else rng.sample(items, k)


def candidate_rows(rng, g):
    """Candidate rows for `verify` plus facet dimension, as (coeffs, rhs, kind).

    Nonnegativity, degree, blossom and projected MSI rows are valid on
    every graph.  A family row is valid exactly when its pair passes the
    validity hypothesis; with its lambda set dropped it may be invalid.
    """
    m = g.m
    rows = [(*_row(m, minus=[e], rhs=0), "nonnegativity") for e in range(1, m + 1)]
    rows += [(*_row(m, plus=g.incident_edges(v)), "degree")
             for v in range(1, g.n + 1) if g.incident_edges(v)]

    odd_sets = [H for size in (3, 5) for H in combinations(range(1, g.n + 1), size)
                if is_connected_induced(g, H)]
    for H in _sample(rng, odd_sets, CERTIFY_SAMPLE):
        inside = [e for e, (u, v) in enumerate(g.edges, start=1) if u in H and v in H]
        rows.append((*_row(m, plus=inside, rhs=(len(H) - 1) // 2), "blossom"))

    pairs = [(e1, e2) for e1 in range(1, m + 1) for e2 in range(e1 + 1, m + 1)
             if is_disconnected_pair(g, e1, e2)]
    for e1, e2 in _sample(rng, pairs, CERTIFY_SAMPLE):
        q = family_inequality(g, e1, e2)
        rows.append(([int(c) for c in q.coeffs], int(q.rhs), "family"))
    for e1, e2 in _sample(rng, pairs, CERTIFY_SAMPLE):
        rows.append((*_row(m, plus=[e1, e2]), "family-nolambda"))

    apart = [(a, b) for a in range(1, g.n + 1) for b in range(a + 1, g.n + 1)
             if g.edge_id(a, b) is None]
    for a, b in _sample(rng, apart, CERTIFY_SAMPLE):
        sep = minimalize(g, Separator(a, b, tuple(u for u in g.neighbors(a) if u != b)))
        q = project_msi(g, sep)
        rows.append(([int(c) for c in q.coeffs], int(q.rhs), "msi"))
    return rows


WORKLOAD_INSTANCES = {
    "hull": hull_instances,
    "certify": certify_instances,
    "solve": solve_instances,
    "solve-cuts": solve_cuts_instances,
}


# The input files are written here, not by cmpoly's own writers, so that the
# bytes the program reads stay the same when the program changes.

def format_graph_file(inst):
    """Graph file with weights as `e u v w p/q` records when the instance has them."""
    lines = [f"p {inst.graph.n} {inst.graph.m}"]
    for i, (u, v) in enumerate(inst.graph.edges):
        if inst.weights is None:
            lines.append(f"e {u} {v}")
        else:
            w = inst.weights[i]
            lines.append(f"e {u} {v} w {w.numerator}/{w.denominator}")
    return "\n".join(lines) + "\n"


def format_rows_file(inst):
    """H-description file (`h <m> <count>` header) holding the candidate rows."""
    lines = [f"h {inst.graph.m} {len(inst.rows)}"]
    for coeffs, rhs, kind in inst.rows:
        lines.append(" ".join(map(str, coeffs)) + f" <= {rhs}  # tag={kind}")
    return "\n".join(lines) + "\n"
