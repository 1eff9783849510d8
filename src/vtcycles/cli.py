"""Command-line interface: construct instances, analyze digraph files,
run verification suites, and run the arithmetic searches.

Reports are deterministic: same inputs, same seed, same budgets give
byte-identical output, and the exit code is 0 exactly when no assertion
failed and no hard error occurred.  Infeasible exact modes degrade to a
flagged UNKNOWN result instead of failing.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import sys

from .automorphisms import automorphism_family_by_search
from .digraph import (EXACT_DEFAULT_MAX, INF, UNKNOWN, read_edge_list,
                      to_dot, write_edge_list)
from .gadgets import (GadgetVerificationError, four_cycle_chain,
                      directed_cycle_product, toroidal_gadget)
from .groups import cayley_digraph, left_translations, parse_cayley_spec
from .longcycle import (dfs_long_cycle, expansion_check_transitive_bound,
                        expansion_exact, expansion_sampled, long_path,
                        EXPANSION_EXACT_MAX)
from .cyclegraph import (DEFAULT_MAX_COUNT, cycle_graph_diameter_check,
                         pipeline_n13)
from .numbergap import (_decimal_rows, motohashi_pairs, perimeter_gap_table,
                        search_prime_partitionable)
from .reports import all_assertions_hold, dump, make_report, write_csv
from . import verify as V

log = logging.getLogger("vtc")

ANALYZE_OPS = ("diameter", "expansion", "dfs-cycle", "long-path",
               "cycle-graph", "pipeline-n13")


def _add_report_flags(parser):
    """--out, --format and --threads: the flags of verify and search."""
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--format", dest="fmt", default="csv",
                        choices=["json", "csv"])
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for interface compatibility; the "
                             "current implementation is sequential, so the "
                             "output never depends on it")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vtc",
        description="long directed cycles in vertex-transitive digraphs")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="generate an instance file")
    c.add_argument("kind", choices=["cayley", "product", "figure1", "toroidal"])
    c.add_argument("--group", help="cayley: 'cyclic n' | 'product n1 n2' | 'dihedral m'")
    c.add_argument("--gens", help="cayley: generator list, e.g. '(1,0),(0,1)' or '1,3'")
    c.add_argument("--n1", type=int, help="product: first cycle order")
    c.add_argument("--n2", type=int, help="product: second cycle order")
    c.add_argument("--k", type=int, help="figure1: number of blocks")
    c.add_argument("--n", type=int, help="toroidal: size parameter (8n+4 vertices)")
    c.add_argument("--out", help="write the edge list here")
    c.add_argument("--dot", help="also write a DOT rendering here")
    c.set_defaults(run=cmd_construct)

    a = sub.add_parser("analyze", help="run analyses on an edge-list file")
    a.add_argument("file")
    a.add_argument("--which", default="diameter",
                   help="comma list from: " + ",".join(ANALYZE_OPS))
    a.add_argument("--out", help="write the report here instead of stdout")
    a.add_argument("--budget-nodes", type=int, default=2_000_000,
                   help="node-expansion budget of the automorphism search")
    a.add_argument("--max-cycles", type=int, default=DEFAULT_MAX_COUNT,
                   help="cycle enumeration cap")
    a.add_argument("--seed", type=int, default=0,
                   help="seed of the sampled expansion bound")
    a.set_defaults(run=cmd_analyze)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=list(V.SUITES))
    v.add_argument("--max-order", type=int)
    v.add_argument("--max-k", type=int)
    v.add_argument("--max-n", type=int)
    _add_report_flags(v)
    v.set_defaults(run=cmd_verify)

    s = sub.add_parser("search", help="arithmetic searches")
    s.add_argument("kind", choices=["prime-partitionable", "motohashi", "theorem11"])
    s.add_argument("--max-d", type=int, default=20)
    s.add_argument("--max-p", type=int, default=100)
    _add_report_flags(s)
    s.set_defaults(run=cmd_search)

    return parser


def _emit(args, payload, table=None) -> None:
    """Write payload as JSON, or table = (rows, columns) as CSV under
    --format csv, to the --out file or to stdout."""
    with (open(args.out, "w", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        if table and args.fmt == "csv":
            fh.write(write_csv(*table))
        else:
            dump(payload, fh)


# --- construct ---------------------------------------------------------------

def cmd_construct(args) -> int:
    if args.kind == "cayley":
        if not args.group or not args.gens:
            raise ValueError("cayley needs --group and --gens")
        spec = parse_cayley_spec(f"{args.group}\n{args.gens}")
        D = cayley_digraph(spec)
        left_translations(spec)  # raises unless transitive
        post = {"regular": D.regularity(), "generators": len(spec.generators),
                "transitive_certificate": True}
        name = f"cayley({args.group};{args.gens})"
    elif args.kind == "product":
        if not args.n1 or not args.n2:
            raise ValueError("product needs --n1 and --n2")
        D = directed_cycle_product(args.n1, args.n2)
        post = {"regular": D.regularity(), "vertices": D.n}
        name = f"product({args.n1},{args.n2})"
    elif args.kind == "figure1":
        if not args.k:
            raise ValueError("figure1 needs --k")
        D = four_cycle_chain(args.k)
        post = {"regular": D.regularity(), "vertices": D.n,
                "longest_cycle": 4}
        name = f"figure1({args.k})"
    else:
        if not args.n:
            raise ValueError("toroidal needs --n")
        D = toroidal_gadget(args.n)
        post = {"regular": D.regularity(), "vertices": D.n,
                "hamiltonian_checked": True}
        name = f"toroidal({args.n})"

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(write_edge_list(D))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(D))
    report = make_report(name, "construct", {"kind": args.kind},
                         {"vertices": D.n, "arcs": D.arc_count,
                          "post_verification": post})
    dump(report, sys.stdout)
    return 0


# --- analyze -----------------------------------------------------------------

def _analyze_one(name, D, op, args):
    if op == "diameter":
        d = D.directed_diameter()
        return make_report(name, op, {}, {"directed_diameter": d,
                                          "strongly_connected": d != INF})
    if op == "expansion":
        if D.n <= EXPANSION_EXACT_MAX:
            rep = expansion_exact(D)
            assertions = []
            if D.is_strongly_connected():
                assertions.append(("alpha >= 1/(3*diameter)",
                                   expansion_check_transitive_bound(D, rep)))
            return make_report(name, op, {},
                               {"alpha_lower": rep.alpha_lower,
                                "witness": rep.witness_set, "exact": True},
                               assertions=assertions)
        rep = expansion_sampled(D, seed=args.seed)
        return make_report(name, op, {"seed": args.seed},
                           {"alpha_upper_bound": rep.alpha_lower,
                            "witness": rep.witness_set, "exact": False,
                            "verdict": UNKNOWN})
    if op == "dfs-cycle":
        res = dfs_long_cycle(D)
        return make_report(name, op, {}, {"cycle": res.cycle,
                                          "length": res.cycle.length,
                                          "trace": list(res.trace)})
    if op == "long-path":
        path = long_path(D)
        return make_report(name, op, {}, {"path": path, "length": path.length})
    if op == "cycle-graph":
        check = cycle_graph_diameter_check(D, max_count=args.max_cycles)
        assertions = []
        if check.get("complete"):
            assertions = [("diameter floor", check["floor_holds"]),
                          ("connected", check["connected"])]
        return make_report(name, op, {"max_cycles": args.max_cycles}, check,
                           assertions=assertions)
    if op == "pipeline-n13":
        fam = automorphism_family_by_search(D, budget=args.budget_nodes)
        if fam is None:
            raise ValueError("digraph is not vertex transitive")
        if fam is UNKNOWN:
            fam = None  # run without the symmetric route
        cycle, rep = pipeline_n13(D, fam, max_cycles=args.max_cycles)
        return make_report(name, op, {"max_cycles": args.max_cycles},
                           {"cycle": cycle, "trace": rep},
                           assertions=[("valid cycle", True),
                                       ("floor", (9 * cycle.length) ** 3 >= D.n)])
    raise ValueError(f"unknown analysis {op!r}")


def cmd_analyze(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        D = read_edge_list(fh.read())
    ops = [w.strip() for w in args.which.split(",") if w.strip()]
    for op in ops:
        if op not in ANALYZE_OPS:
            dump({"schema": 1, "error": f"unknown op {op!r}"}, sys.stdout)
            return 2
    reports = []
    for op in ops:
        log.info("analyze %s: start", op)
        try:
            reports.append(_analyze_one(args.file, D, op, args))
        except (ValueError, AssertionError) as err:
            dump({"schema": 1, "operation": op, "error": str(err)},
                 sys.stdout)
            return 2
        finally:
            log.info("analyze %s: end", op)
    _emit(args, {"schema": 1, "reports": reports})
    return 0 if all(all_assertions_hold(r) for r in reports) else 1


# --- verify ------------------------------------------------------------------

# The option each parameterised suite reads, and its largest value where the
# suite enumerates every cycle without a count cap (divisibility on
# n <= max_order vertices, figure1 on n = 4k); the rest use built-in corpora.
SUITE_OPTIONS = {"trotter-erdos": ("max_order", None),
                 "divisibility": ("max_order", EXACT_DEFAULT_MAX),
                 "figure1": ("max_k", EXACT_DEFAULT_MAX // 4),
                 "toroidal": ("max_n", None)}


def cmd_verify(args) -> int:
    log.info("verify %s: start", args.suite)
    option, cap = SUITE_OPTIONS.get(args.suite, (None, None))
    value = getattr(args, option) if option else None
    if value is not None and cap is not None and value > cap:
        sys.stderr.write(f"verify {args.suite}: --{option.replace('_', '-')} "
                         f"{value} capped at {cap}\n")
        value = cap
    # looked up on the module at call time, so a wrapped suite_* runs
    suite = getattr(V, V.SUITES[args.suite].__name__)
    result = suite() if value is None else suite(value)
    log.info("verify %s: end, %d rows", args.suite, len(result.rows))

    _emit(args, {"schema": 1, "suite": result.name, "ok": result.ok,
                 "rows": list(result.rows)}, (result.rows, result.columns))
    if not result.rows:
        sys.stderr.write(f"verify {args.suite}: no case selected\n")
    elif not result.ok:
        failing = [r for r in result.rows if not r.get("ok")]
        sys.stderr.write(f"suite {result.name}: {len(failing)} failing case(s)\n")
        for row in failing[:5]:
            sys.stderr.write(f"  {row}\n")
    return 0 if result.ok else 1


# --- search ------------------------------------------------------------------

def cmd_search(args) -> int:
    if args.kind == "prime-partitionable":
        hits = search_prime_partitionable(args.max_d)
        payload = [{"d": d, "partition": parts, "certificate": cert}
                   for d, parts, cert in hits]
        _emit(args, {"schema": 1, "search": args.kind, "max_d": args.max_d,
                     "hits": payload})
        return 0
    if args.kind == "motohashi":
        pairs = motohashi_pairs(args.max_p)
        rows = ({"p": m.p, "q": m.q, "bound_ok": m.bound_ok} for m in pairs)
        _emit(args, {"schema": 1, "search": args.kind, "max_p": args.max_p,
                     "pairs": pairs}, (rows, ("p", "q", "bound_ok")))
        return 0
    rows = perimeter_gap_table(args.max_p)
    # From p = 457 on, n has more digits than the interpreter converts to
    # text by default (4300).  The guard is against hostile input; these
    # integers are computed here, so it is lifted while JSON writes them.
    # The CSV takes n2 and n as text from exact Decimal arithmetic.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        _emit(args, {"schema": 1, "search": args.kind, "rows": rows},
              (_decimal_rows(rows),
               ("p", "q", "d", "n1", "n2", "n", "ln_n", "ratio")))
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


def main(argv=None) -> int:
    level = (os.environ.get("VTC_LOG") or "WARNING").upper()
    if not isinstance(logging.getLevelName(level), int):
        dump({"schema": 1, "error": f"VTC_LOG: unknown level {level!r}"},
             sys.stdout)
        return 2
    logging.basicConfig(level=level)
    args = build_parser().parse_args(argv)
    # only the counts this subcommand has
    if any(getattr(args, flag, 1) < 1
           for flag in ("budget_nodes", "max_cycles", "threads")):
        dump({"schema": 1, "error": "budgets and threads must be positive"},
             sys.stdout)
        return 2
    log.info("%s: start", args.command)
    try:
        code = args.run(args)
    except (ValueError, OSError, GadgetVerificationError) as err:
        dump({"schema": 1, "error": str(err)}, sys.stdout)
        code = 2
    log.info("%s: end, exit %d", args.command, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
