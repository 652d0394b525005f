"""Exact branch-and-cut for maximum-weight connected matching.

It solves part by part.  Edges at line-graph distance exactly 2 are linked,
and the parts of `edge_parts` are the components of that relation.  Every
connected matching lies inside one part (contract its matched edges: the
covered subgraph stays connected, and matched edges joined by an edge are
linked), so max w.x over the polytope is the largest of the parts' maxima,
each the maximum over the face where the other parts are 0.  The search
starts from one root per part, with the other parts fixed to 0; a graph of
one part keeps one unfixed root.

The LP relaxation at a node is the model's own rows (the degree rows and the
cut pool) over the edges the node has not fixed; a
branch that fixes x_e = 1 also fixes to 0 every edge touching e, which e's
degree rows force to 0.  A simplex solves it: a dual phase 1 under Bland's
rule when a fix overdraws a row, then the primal simplex on the weights,
which enters the column of largest reduced cost (Dantzig) and falls back to
Bland's rule during long degenerate runs.  It keeps an integer dictionary of
the nonbasic columns, each row primitive with its own positive scale, so
every bound and optimality claim is exact.
At every LP point that is not a connected matching, the pairwise family is
separated first (`separate_family`), unless SolveConfig turns it off: the
rows of `generate_family` that x* violates go into the cut pool, found
without building the rest, since a row x_e1 + x_e2 - x(lambda) <= 1 can be
violated only when x*_e1 + x*_e2 > 1.  When none is, fractional points are attacked with projected minimal separator cuts and
integral but disconnected matchings get a lazy connectivity cut; remaining
fractionality is resolved by branching.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import itemgetter

from .facet_family import separate_family
from .graph_core import GraphError, edge_parts, mask_bits
from .matchings import is_connected_matching
from .rational_la import exact_number, integer_row
from .msi import lazy_cut_for_disconnected, separate_fractional, vertex_row


# cut rounds per node after which MSI separation stops and the node branches
CUT_ROUNDS = 5
# degenerate pivots in a row after which primal_phase prices by Bland's rule
DEGENERATE_RUN = 50
# shared, as a Fraction is immutable: most entries of an LP point are 0 or 1
ZERO, ONE = Fraction(0), Fraction(1)


@dataclass
class SolveConfig:
    use_family_cuts: bool = True
    use_msi_separation: bool = True
    node_limit: int = 100_000


@dataclass
class Model:
    objective: tuple
    rows: list
    cut_pool: list = field(default_factory=list)


@dataclass
class SolveResult:
    value: Fraction
    matching: tuple
    status: str
    stats: dict
    log: list


def build_base_lp(g, w):
    """The degree rows, which with x >= 0 imply x_e <= 1 (so no bound rows).
    Family rows are not put in here: `branch_and_cut` separates them."""
    w = tuple(exact_number(x) for x in w)
    if len(w) != g.m:
        raise GraphError(f"expected {g.m} weights, got {len(w)}")
    rows = [vertex_row(g, 1 << v, 0, "degree", f"v={v}")
            for v in range(1, g.n + 1) if g.incident_masks[v]]
    return Model(objective=w, rows=rows)


def _picker(idx):
    """The function taking a tuple to the tuple of its entries at the
    indices idx, for any number of indices (itemgetter alone returns a bare
    entry for one index and refuses none)."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return (lambda t: (t[idx[0]],)) if idx else (lambda t: ())


def solve_lp_exact(model, fixed0=0, fixed1=0):
    """Exact optimum of  max c.x  s.t. rows, x >= 0, x_e = 0 for each bit e
    of the edge mask fixed0 and x_e = 1 for each bit e of fixed1, by
    `_simplex`: a dual phase 1 from the slack basis when a fix overdraws a
    row, then the primal simplex (see `Dictionary`).  A mask with a bit
    outside the edges 1..m, or an edge in both masks, raises GraphError.

    A fixed edge leaves the LP: its column is dropped, after it is subtracted
    from every rhs when fixed to 1.  A row left all zero over the free
    columns leaves too when its rhs is >= 0, since it holds at every x; one
    with a negative rhs stays, so an inconsistent fix is reported
    infeasible.  The rows are the model's int tuples, picked over the free
    columns when some edge is fixed, so `Dictionary` takes them as they
    stand.  Returns (value, xstar, pivots) with xstar over all m edges;
    (None, None, pivots) when the LP is infeasible.
    """
    c = model.objective
    m, fixed = len(c), fixed0 | fixed1
    if fixed & ~((1 << m + 1) - 2):
        raise GraphError(f"a fix mask names an edge outside 1..{m}")
    if fixed0 & fixed1:
        raise GraphError(f"edges {set(mask_bits(fixed0 & fixed1))} fixed to both 0 and 1")
    free = [j for j in range(m) if not fixed >> (j + 1) & 1]
    ones = [e - 1 for e in mask_bits(fixed1)]
    pick, shift = _picker(free), _picker(ones)
    A, b = [], []
    for q in model.rows + model.cut_pool:
        a, bi = q.coeffs, q.rhs
        if fixed:
            a, bi = pick(a), bi - sum(shift(a))
        if bi < 0 or any(a):
            A.append(a)
            b.append(bi)
    value, xfree, _basis, pivots = _simplex([c[j] for j in free], A, b)
    if value is None:
        return None, None, pivots
    x = [ONE if fixed1 >> e & 1 else ZERO for e in range(1, m + 1)]
    for j, xj in zip(free, xfree):
        x[j] = xj
    return value + sum(c[j] for j in ones), x, pivots


class Dictionary:
    """Dictionary simplex, integer pivoting, for  max c.x  s.t. A x <= b,
    x >= 0.  Labels: structurals 0..n-1, then the k slacks, whose basis is
    the start.  T is a dictionary (Chvatal 1983) over the nonbasic variables
    `cols` and the rhs: A's rows, then the objective row (the scaled reduced
    costs), each primitive and with its own scale s > 0 (Azulay & Pique
    2001): row i reads s[i]*x_basis[i] + sum_j T[i][j]*x_cols[j] = T[i][-1].
    Row i starts as (A_i, b_i) times the lcm of its denominators, which is
    its scale, so its slack is the LP's own and the objective row holds the
    reduced costs of the LP as posed, all times one scale.  A row of ints
    (`type(x) is int`) is taken as it stands with scale 1, which is what
    `integer_row` gives it, as the gcd of the row and its scale 1 is 1; any
    other row goes through `integer_row`.  `dual_phase` prices by Bland's
    rule, `primal_phase` by Dantzig's with a fallback to Bland's.  `pivots`
    counts the pivots made."""

    def __init__(self, c, A, b):
        n, k = len(c), len(A)
        self.T, self.scale = [], []
        for a, bi in zip(A, b):
            r = [*a, bi]
            if {*map(type, r)} == {int}:
                s = 1
            else:
                *r, s = integer_row([*r, 1])
            self.T.append(r)
            self.scale.append(s)
        self.T.append(integer_row([*c, 0]))
        self.scale.append(1)
        self.basis, self.cols = list(range(n, n + k)), list(range(n))
        self.pivots = 0

    def pivot(self, leave, enter):
        """On the leaving row e, with p = e[enter] > 0 (else e and s[leave]
        are negated first), skip each row with a zero in the entering column
        and take any other r, f = r[enter], to p*r - f*e with -f*s[leave] in
        that column and scale p*s[i], then divide row and scale by their gcd;
        e takes scale p.  Both pricing rules and the ratio test read only
        signs, ratios within a row and the order of the entries of one row,
        so no scale changes a choice."""
        T, scale = self.T, self.scale
        self.pivots += 1
        e, s, p = T[leave], scale[leave], T[leave][enter]
        if p < 0:
            e, s, p = [-x for x in e], -s, -p
        for i, r in enumerate(T):
            f = r[enter]
            if f and i != leave:
                r = [p * x - f * y for x, y in zip(r, e)]
                r[enter] = -f * s
                si = p * scale[i]
                if (q := gcd(si, *r)) > 1:
                    r, si = [x // q for x in r], si // q
                T[i], scale[i] = r, si
        e[enter] = s
        T[leave], scale[leave] = e, p
        self.basis[leave], self.cols[enter] = self.cols[enter], self.basis[leave]

    def least(self, row, sign):
        """Bland: the column of least label with sign * row[j] > 0, or None."""
        return min((j for j in range(len(self.cols)) if sign * row[j] > 0),
                   key=self.cols.__getitem__, default=None)

    def largest(self, row):
        """Dantzig: the column with the largest positive row[j], the least
        label among ties, or None."""
        n = len(self.cols)
        top = max(row[:n], default=0)
        if top <= 0:
            return None
        return min((j for j in range(n) if row[j] == top), key=self.cols.__getitem__)

    def dual_phase(self):
        """The dual simplex on the zero objective, for which every basis is
        dual feasible (Lemke 1954).  Under Bland's rule, finite here too
        (Bland 1977), the overdrawn row of least basic label leaves, and the
        column of least label with a negative entry in it enters; False when
        there is none: the row says a nonnegative sum is negative."""
        T, basis, k = self.T, self.basis, len(self.basis)
        while overdrawn := [i for i in range(k) if T[i][-1] < 0]:
            leave = min(overdrawn, key=basis.__getitem__)
            enter = self.least(T[leave], -1)
            if enter is None:
                return False
            self.pivot(leave, enter)
        return True

    def primal_phase(self):
        """The primal simplex on c from a feasible basis; raises GraphError
        when the LP is unbounded.  The column with the largest objective
        entry enters (`largest`), except after DEGENERATE_RUN degenerate
        pivots in a row (a leaving row with rhs 0), from when `least` prices
        until the next nondegenerate pivot.  Finite: the objective rises
        strictly on each nondegenerate pivot, so no basis comes back across
        one, and each degenerate run ends, as Bland's rule cannot cycle
        (Bland 1977)."""
        T, basis, k = self.T, self.basis, len(self.basis)
        run = 0
        while (enter := self.least(T[k], 1) if run >= DEGENERATE_RUN
               else self.largest(T[k])) is not None:
            leave = None
            for i in range(k):
                a = T[i][enter]
                if a > 0:
                    if leave is not None:
                        # ratio T[i][-1]/a against T[leave][-1]/T[leave][enter]
                        diff = T[i][-1] * T[leave][enter] - T[leave][-1] * a
                        if diff > 0 or (diff == 0 and basis[i] > basis[leave]):
                            continue
                    leave = i
            if leave is None:
                raise GraphError("LP unbounded; missing variable bounds")
            run = run + 1 if T[leave][-1] == 0 else 0
            self.pivot(leave, enter)

    def solution(self):
        """x at the current basis; its zeros and ones are ZERO and ONE."""
        n = len(self.cols)
        x = [ZERO] * n
        for r, si, bi in zip(self.T, self.scale, self.basis):
            if bi < n and (v := r[-1]):
                x[bi] = ONE if v == si else Fraction(v, si)
        return x


def _simplex(c, A, b):
    """max c.x s.t. A x <= b, x >= 0 on a `Dictionary`, dual phase first:
    (value, x, basis, pivots), with value, x and basis None if infeasible."""
    d = Dictionary(c, A, b)
    if not d.dual_phase():
        return None, None, None, d.pivots
    d.primal_phase()
    x = d.solution()
    value = sum((ci * xi for ci, xi in zip(c, x) if xi), ZERO)
    return value, x, d.basis, d.pivots


def branch_and_cut(g, w, config=None):
    """Best-bound branch-and-cut; the optimum equals the brute-force oracle.

    The heap starts with one root per part of `edge_parts(g)`: the root of a
    part fixes every edge outside it to 0 and is bounded by the sum of the
    part's positive weights, which orders the roots and lets the incumbent
    prune a part before any LP.  This is exact, since every connected
    matching lies inside one part, so the best of the parts' optima is the
    optimum.  The roots share one incumbent, one cut pool (each pooled row is
    valid on the whole polytope) and one log.  A graph with one part or no
    edge has a single unfixed root with no bound.

    Per node: solve the LP; at a point that is not a connected matching,
    separate family rows first, when enabled; if none is violated, separate
    MSI cuts while fractional (at most CUT_ROUNDS rounds of either kind) or
    repair an integral disconnected matching with a lazy connectivity cut;
    otherwise branch on the most fractional variable, =1 child first, which
    also fixes to 0 every edge that touches the branching edge.
    `stats["family_rows"]` counts the family rows separated.

    The node limit is tested on a popped node after the prune test: a node
    the incumbent prunes costs nothing, and the search stops with status
    `node-limit` only when a node it cannot prune would exceed the limit.
    """
    config = config or SolveConfig()
    if config.node_limit < 1:
        raise GraphError(f"node limit must be at least 1, got {config.node_limit}")
    start = time.monotonic()
    model = build_base_lp(g, w)
    half = Fraction(1, 2)

    incumbent_val = Fraction(0)
    incumbent_set = ()
    log = []
    stats = {"nodes": 0, "lp_pivots": 0, "cuts": {"msi": 0, "lazy": 0},
             "family_rows": 0}

    # heap of open nodes (-bound, node id, fixed0, fixed1), the fixes as edge
    # masks: best bound first, then lowest id; a lone unfixed root has no
    # bound
    parts = edge_parts(g)
    if len(parts) < 2:
        open_nodes = [(None, 0, 0, 0)]
    else:
        open_nodes = [(-sum(max(model.objective[e - 1], ZERO) for e in mask_bits(part)),
                       i, g.all_edges ^ part, 0) for i, part in enumerate(parts)]
        heapq.heapify(open_nodes)
    next_id = len(open_nodes)
    status = "optimal"

    def note(bound, outcome):
        log.append(f"node {node_id} bound {bound} cuts {cuts_here} status {outcome}")

    while open_nodes:
        node = heapq.heappop(open_nodes)
        neg_bound, node_id, fixed0, fixed1 = node
        cuts_here = 0
        if neg_bound is not None and -neg_bound <= incumbent_val:
            note(-neg_bound, "pruned")
            continue
        if stats["nodes"] >= config.node_limit:
            # a node the incumbent cannot prune stays open
            heapq.heappush(open_nodes, node)
            status = "node-limit"
            break
        stats["nodes"] += 1

        while True:
            value, xstar, pivots = solve_lp_exact(model, fixed0, fixed1)
            stats["lp_pivots"] += pivots
            if value is None or value <= incumbent_val:
                note("infeasible" if value is None else value, "pruned")
                break
            frac = [e for e in range(1, g.m + 1)
                    if xstar[e - 1] not in (0, 1)]
            if not frac:
                M = tuple(e for e in range(1, g.m + 1) if xstar[e - 1] == 1)
                if len(M) < 2 or is_connected_matching(g, M):
                    note(value, "int")
                    incumbent_val, incumbent_set = value, M
                    break
            # every pooled row holds at xstar, so a round's cuts are all new
            if config.use_family_cuts and (cuts := separate_family(g, xstar)):
                stats["family_rows"] += len(cuts)
            elif not frac:
                cuts = [lazy_cut_for_disconnected(g, M)]
                stats["cuts"]["lazy"] += 1
            elif config.use_msi_separation and cuts_here < CUT_ROUNDS:
                cuts = separate_fractional(g, xstar)
                stats["cuts"]["msi"] += len(cuts)
            else:
                cuts = []
            if cuts:
                model.cut_pool.extend(cuts)
                cuts_here += 1
                continue
            note(value, "frac")
            bvar = min(frac, key=lambda e: (abs(xstar[e - 1] - half), e))
            touching = g.line_masks[bvar] ^ 1 << bvar
            heapq.heappush(open_nodes, (-value, next_id, fixed0 | touching, fixed1 | 1 << bvar))
            heapq.heappush(open_nodes, (-value, next_id + 1, fixed0 | 1 << bvar, fixed1))
            next_id += 2
            break

    if status == "node-limit":
        # a root with no bound is alone and popped first (node_limit >= 1),
        # so every open node has a bound
        stats["upper_bound"] = max([incumbent_val] + [-nb for nb, *_ in open_nodes])
    log.append(f"opt {incumbent_val} matching {{{','.join(map(str, incumbent_set))}}}")
    stats["wall_time"] = time.monotonic() - start
    return SolveResult(value=incumbent_val, matching=incumbent_set,
                       status=status, stats=stats, log=log)

