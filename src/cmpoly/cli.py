"""Command-line front end for the connected matching polytope toolkit."""

from __future__ import annotations

import argparse
import functools
import sys
from collections import Counter

from .facet_family import facet_hypothesis, family_pair, generate_family
from .graph_core import GraphError, format_graph, generate, parse_graph
from .inequality import format_hrep_file, parse_hrep_file
from .matchings import (DEFAULT_ENUM_LIMIT, brute_force_max_weight_cm,
                        enumerate_connected_matchings, format_vrep)
from .msi import dominates, minimal_separators, msi_row
from .polytope import classify, export_vrep_interop, hrep, verify_valid, vrep
from .solver import SolveConfig, branch_and_cut


def _read(path):
    with open(path) as fh:
        return fh.read()


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_graph_command(func, args):
    """Refuse a negative --count-limit, read and parse -g, refuse a graph
    above --limit, run `func(g, args)` and write what it returns, text or
    lines, to -o or stdout."""
    if getattr(args, "count_limit", 0) < 0:
        raise GraphError(f"count limit must be >= 0, got {args.count_limit}")
    g = parse_graph(_read(args.graph))
    if g.m > args.limit:
        raise GraphError(f"graph has {g.m} edges, above --limit {args.limit}")
    out, code = func(g, args)
    _emit(out if isinstance(out, str) else "".join(line + "\n" for line in out),
          args.output)
    return code


def cmd_gen(args):
    _emit(format_graph(generate(args.name)), args.output)
    return 0


def cmd_enumerate(g, args):
    vecs = enumerate_connected_matchings(g, limit=args.count_limit)
    return format_vrep(vecs, g.m), 0


def cmd_hrep(g, args):
    H = hrep(vrep(g, limit=args.count_limit))
    classes = [classify(q, g) for q in H.facets]
    out = format_hrep_file([q.with_tag(fc.kind) for q, fc in zip(H.facets, classes)], g.m)
    hist = Counter(fc.key for fc in classes)
    if args.tsv:
        out += "".join(f"class\t{k}\t{v}\n" for k, v in sorted(hist.items()))
    else:
        out += "# class histogram: " + " ".join(
            f"{k}={v}" for k, v in sorted(hist.items())) + "\n"
    return out, 0


def cmd_family(g, args):
    lines, certified = [], 0
    for q in generate_family(g):
        pair, lam = family_pair(g, q)
        flag = args.certify and facet_hypothesis(g, pair, lam)
        certified += flag
        if args.tsv:
            lines.append(q.format_row() + "\t"
                         + f"pair=({pair[0]},{pair[1]})"
                         + (f"\tcertified={int(flag)}" if args.certify else ""))
        else:
            mark = " facet_certified=" + ("yes" if flag else "no")
            lines.append(q.format_line() + (mark if args.certify else ""))
    if args.certify and not args.tsv:
        lines.append(f"# facet_certified rows: {certified}")
    return lines, 0


def cmd_classify(g, args):
    lines = []
    for q in parse_hrep_file(_read(args.ineq)):
        fc = classify(q, g)
        detail = f" {fc.data}" if fc.data else ""
        sep = "\t" if args.tsv else "  ->  "
        lines.append(q.format_row() + sep + fc.kind + detail)
    return lines, 0


def cmd_msi(g, args):
    cap = g.n if args.max_separator is None else args.max_separator
    if cap < 0:
        raise GraphError(f"separator size cap must be >= 0, got {cap}")
    fam_rows = generate_family(g) if args.dominance else []
    lines = []
    for a in range(1, g.n + 1):
        for b in range(a + 1, g.n + 1):
            if g.neighbor_masks[a] >> b & 1:
                continue
            for C in minimal_separators(g, a, b):
                if C.bit_count() > cap:
                    continue
                row = msi_row(g, a, b, C)
                if not any(row.coeffs):
                    continue   # 0 <= 1 holds everywhere and says nothing
                line = row.format_line()
                if args.dominance:
                    dom = [q.provenance for q in fam_rows if dominates(q, row)]
                    if dom:
                        line += " dominated_by[" + "; ".join(dom) + "]"
                lines.append(line)
    return lines, 0


def cmd_solve(g, args):
    w = [g.weight(e) for e in range(1, g.m + 1)]
    config = SolveConfig(use_family_cuts=not args.no_family_cuts,
                         use_msi_separation=not args.no_msi,
                         node_limit=args.node_limit)
    res = branch_and_cut(g, w, config)
    lines = list(res.log)
    lines.append(f"status {res.status}")
    if res.status == "node-limit":
        lines.append(f"upper_bound {res.stats['upper_bound']}")
    lines.append(f"nodes {res.stats['nodes']} pivots {res.stats['lp_pivots']} "
                 f"cuts_msi {res.stats['cuts']['msi']} "
                 f"cuts_lazy {res.stats['cuts']['lazy']} "
                 f"cuts_family {res.stats['family_rows']}")
    if not args.no_meta:
        lines.append(f"wall_time {res.stats['wall_time']:.3f}s")
    if args.oracle_check:
        val, _ = brute_force_max_weight_cm(g, w, limit=args.count_limit)
        lines.append("MATCH" if val == res.value and res.status == "optimal"
                     else "MISMATCH")
    return lines, int(res.status != "optimal" or lines[-1] == "MISMATCH")


def cmd_verify(g, args):
    rows = parse_hrep_file(_read(args.ineq))
    V = vrep(g, limit=args.count_limit)
    violations = [len(verify_valid(q, V)) for q in rows]
    lines = [(f"INVALID ({k} violations) " if k else "VALID ") + q.format_line()
             for q, k in zip(rows, violations)]
    return lines, int(any(violations))


def cmd_export(g, args):
    return export_vrep_interop(vrep(g, limit=args.count_limit)), 0


@functools.cache
def build_parser():
    """The `cmpoly` parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="cmpoly",
        description="Inspect and optimize over the connected matching polytope.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, count_limit=False, tsv=False):
        """A graph subcommand: the flags every one reads, plus the ones it asks for."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("-g", "--graph", required=True, help="graph file")
        p.add_argument("-o", "--output", default=None, help="output file")
        p.add_argument("--limit", type=int, default=20,
                       help="max edge count accepted (default %(default)s)")
        if count_limit:
            p.add_argument("--count-limit", type=int, default=DEFAULT_ENUM_LIMIT,
                           help="max enumerated matchings (default %(default)s)")
        if tsv:
            p.add_argument("--tsv", action="store_true",
                           help="machine-readable output")
        p.add_argument("--no-meta", action="store_true",
                       help="suppress non-reproducible report lines")
        p.set_defaults(func=functools.partial(_run_graph_command, func))
        return p

    p = sub.add_parser("gen", help="write a generated graph")
    p.add_argument("--name", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen)

    command("enumerate", cmd_enumerate, "V-description of the polytope", count_limit=True)
    command("hrep", cmd_hrep, "minimal facet description + class histogram",
            count_limit=True, tsv=True)

    p = command("family", cmd_family, "generate the pairwise inequality family", tsv=True)
    p.add_argument("--certify", action="store_true",
                   help="flag each row the sufficient facet hypothesis certifies "
                        "(it under-claims: an unflagged row may still be a facet)")

    p = command("classify", cmd_classify, "classify rows of an inequality file", tsv=True)
    p.add_argument("--ineq", required=True, help="inequality file")

    p = command("msi", cmd_msi, "projected minimal separator inequalities")
    p.add_argument("--max-separator", type=int, default=None,
                   help="print only separators of at most this many vertices")
    p.add_argument("--dominance", action="store_true",
                   help="mark rows dominated by a family inequality")

    p = command("solve", cmd_solve, "branch-and-cut on the graph's weights", count_limit=True)
    p.add_argument("--oracle-check", action="store_true",
                   help="compare against the brute-force oracle")
    p.add_argument("--no-family-cuts", action="store_true")
    p.add_argument("--no-msi", action="store_true")
    p.add_argument("--node-limit", type=int, default=SolveConfig.node_limit)

    p = command("verify", cmd_verify, "check an inequality file against vrep",
                count_limit=True)
    p.add_argument("--ineq", required=True, help="inequality file")

    command("export", cmd_export, "interop POINTS export of the V-description",
            count_limit=True)

    return parser


def run(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
