"""Spans around the package's public functions, installed from outside.

Each public function of a package module is wrapped, and the wrapper is
installed wherever the function is looked up: in every module's globals
(including names re-imported from another module, such as
``verify.build_cycle_graph`` or ``cli.pipeline_n13``) and as methods of the
classes listed in ``METHOD_CLASSES``.  ``src/`` is not edited.

A span records (name, start, end, parent span, op id).  Spans are kept in
memory; a layer's self time is a span's duration minus the time its child
spans cover.  Work counts are read from the wrapped calls' arguments and
return values.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict

MODULES = ("digraph", "groups", "gadgets", "automorphisms", "longcycle",
           "oracles", "cyclegraph", "numbergap", "verify", "reports", "cli")

# Classes whose methods carry spans.  Constant-time accessors that sit in
# inner loops (has_arc, has_edge, mul, inv) and generators carry none: a span
# there would cost more than the call it measures.
METHOD_CLASSES = {"digraph": ("Digraph", "Graph"),
                  "groups": ("AutomorphismFamily",)}
SKIP_METHODS = {"has_arc", "has_edge"}

# Reached by no workload: every cycle graph built here has diameter 2, below
# cyclegraph.DIAMETER_FLOOR (20), so the symmetric route never runs.
UNREACHED = ("cyclegraph.lift_automorphisms", "cyclegraph.is_nearly_transitive",
             "cyclegraph.induced_cycle_via_symmetry")


def _table_entries(c, args, kwargs, result):
    c["groups.table_entries"] += result.order ** 2


def _expansion_masks(c, args, kwargs, result):
    c["longcycle.expansion_exact.masks"] += 2 ** args[0].n - 1


def _dfs_extensions(c, args, kwargs, result):
    c["longcycle.dfs_long_cycle.extensions"] += sum(
        1 for step in result.trace if "extend_to" in step)


def _induced_found(c, args, kwargs, result):
    c["oracles.induced_cycles.found"] += len(result[0])


def _induced_expansions(c, args, kwargs, result):
    c["oracles.brute_longest_induced_cycle.expansions"] += result.expansions


def _enumerated(c, args, kwargs, result):
    cycles, truncated = result
    c["cyclegraph.cycles_enumerated"] += len(cycles)
    c["cyclegraph.enumerations_truncated"] += int(truncated)
    if not truncated:
        c["cyclegraph.cycles_complete"] += len(cycles)


def _cycle_graph_edges(c, args, kwargs, result):
    c["cyclegraph.cycle_graph_edges"] += result.graph.edge_count


def _pipeline_branch(c, args, kwargs, result):
    report = result[1]
    c["cyclegraph.pipeline_n13.large_branch"] += int(report["branch"] == "large")
    c["cyclegraph.pipeline_n13.partial"] += int(bool(report["partial"]))


def _split_checks(c, args, kwargs, result):
    c["numbergap.split_checks"] += args[0] - 1


def _output_bytes(c, args, kwargs, result):
    c["reports.output_bytes"] += len(result.encode("utf-8"))


COUNTERS = {
    "groups.cyclic_group": _table_entries,
    "groups.direct_product": _table_entries,
    "groups.dihedral_group": _table_entries,
    "groups.group_from_table": _table_entries,
    "longcycle.expansion_exact": _expansion_masks,
    "longcycle.dfs_long_cycle": _dfs_extensions,
    "oracles.induced_cycles": _induced_found,
    "oracles.brute_longest_induced_cycle": _induced_expansions,
    "cyclegraph.enumerate_directed_cycles": _enumerated,
    "cyclegraph.build_cycle_graph": _cycle_graph_edges,
    "cyclegraph.pipeline_n13": _pipeline_branch,
    "numbergap.prime_partitionable_check": _split_checks,
    "reports.dumps": _output_bytes,
    "reports.write_csv": _output_bytes,
}


class Tracer:
    """Records spans and work counts while installed."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._saved = []  # (owner, attribute, original) to restore

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        pkg = self.package
        modules = [getattr(pkg, m) for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
            for cls_name in METHOD_CLASSES.get(short, ()):
                cls = getattr(mod, cls_name)
                for attr, fn in list(vars(cls).items()):
                    if (not inspect.isfunction(fn) or attr in SKIP_METHODS
                            or inspect.isgeneratorfunction(fn)
                            or (attr.startswith("_") and attr != "__init__")):
                        continue
                    name = f"{short}.{cls_name}.{attr}"
                    self._set(cls, attr, self._wrap(name, fn))
        for mod in modules + [pkg]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(mod, attr, wrappers[value])

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def summarize(spans, counts, scale) -> tuple:
    """Per-name self time, inclusive time and calls, plus the work counts;
    and each op's self time per name.  Each span's duration is multiplied
    by ``scale[op id]``."""
    duration = [(end - start) * scale[op] for _, start, end, _, op in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += duration[i]
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = Counter()
    by_op = defaultdict(Counter)
    for i, span in enumerate(spans):
        name = span[0]
        self_s[name] += duration[i] - child[i]
        total_s[name] += duration[i]
        calls[name] += 1
        by_op[span[4]][name] += duration[i] - child[i]
    out = {}
    for name in calls:
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.total_s"] = total_s[name]
        out[f"{name}.calls"] = calls[name]
    out.update(counts)
    enumerated = counts.get("cyclegraph.cycles_enumerated", 0)
    out["cyclegraph.cycles_kept_ratio"] = (
        counts.get("cyclegraph.cycles_complete", 0) / enumerated if enumerated else 0.0)
    return out, by_op


def _per_layer():
    """The per-layer metrics, as (name, unit), in the order of BENCHMARK.json."""
    s, n = "s", "count"
    timed = {
        "digraph": ["Digraph.__init__", "Digraph.directed_diameter",
                    "Digraph.diameter_path", "Digraph.is_strongly_connected",
                    "Graph.__init__", "Graph.diameter"],
        "groups": ["cyclic_group", "direct_product", "dihedral_group",
                   "cayley_digraph", "left_translations",
                   "AutomorphismFamily.validate_digraph",
                   "AutomorphismFamily.is_transitive"],
        "gadgets": ["directed_cycle_product", "four_cycle_chain",
                    "toroidal_gadget", "is_strongly_k_connected"],
        "automorphisms": ["automorphism_family_by_search", "refine_colors"],
        "longcycle": ["expansion_exact", "dfs_long_cycle", "long_path"],
        "oracles": ["brute_hamiltonian", "induced_cycles",
                    "brute_longest_induced_cycle", "max_disjoint_cycles",
                    "find_path_of_length"],
        "cyclegraph": ["enumerate_directed_cycles", "build_cycle_graph",
                       "stitch_directed_cycle", "pipeline_n13"],
        "numbergap": ["perimeter_gap_table", "witness_from_prime_pair",
                      "prime_partitionable_check", "search_prime_partitionable",
                      "motohashi_pairs", "primes_below"],
        "reports": ["dumps", "write_csv"],
        "cli": ["main"],
    }
    # Inclusive times where the work sits in a child span: the induced-cycle
    # oracle runs in oracles.induced_cycles, Graph.diameter in bfs_distances.
    other = {
        "digraph": [("Digraph.bfs_distances.calls", n), ("Graph.bfs_distances.calls", n),
                    ("Graph.diameter.total_s", s)],
        "groups": [("table_entries", n)],
        "automorphisms": [("automorphism_family_by_search.calls", n)],
        "longcycle": [("expansion_exact.masks", n), ("dfs_long_cycle.calls", n),
                      ("dfs_long_cycle.extensions", n)],
        "oracles": [("brute_hamiltonian.calls", n), ("induced_cycles.found", n),
                    ("brute_longest_induced_cycle.expansions", n),
                    ("brute_longest_induced_cycle.total_s", s)],
        "cyclegraph": [("enumerate_directed_cycles.calls", n), ("cycles_enumerated", n),
                       ("enumerations_truncated", n), ("cycles_kept_ratio", "ratio"),
                       ("cycle_graph_edges", n), ("stitch_directed_cycle.calls", n),
                       ("pipeline_n13.large_branch", n), ("pipeline_n13.partial", n)],
        "numbergap": [("prime_partitionable_check.calls", n), ("split_checks", n),
                      ("is_prime.calls", n), ("trotter_erdos_necessary.calls", n)],
        "reports": [("output_bytes", "bytes")],
    }
    out = []
    for module in timed:
        out += [(f"{module}.{f}.self_s", s) for f in timed[module]]
        out += [(f"{module}.{name}", unit) for name, unit in other.get(module, [])]
    suites = ("trotter_erdos", "divisibility", "figure1", "lemma21", "lemma24",
              "theorem25", "lemma27", "toroidal")
    out += [(f"verify.suite_{name}.total_s", s) for name in suites]
    out.append(("trace.overhead_s", s))
    return out


PER_LAYER = _per_layer()
