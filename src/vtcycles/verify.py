"""Verification suites: each one sweeps a family of instances, checks an
exact property against the brute-force oracles, and reports one CSV row per
case.  A suite is green only if every row is.

These are the same checks the acceptance tests run; the CLI exposes them
under ``vtc verify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .digraph import Digraph, UNKNOWN
from .gadgets import (directed_cycle_product, four_cycle_chain,
                      is_strongly_k_connected, product_cayley_spec,
                      toroidal_gadget, toroidal_translations)
from .groups import (AutomorphismFamily, CayleySpec, cayley_digraph,
                     cyclic_group, dihedral_group, direct_product,
                     left_translations)
from .longcycle import dfs_long_cycle, expansion_exact, long_path
from .numbergap import divisibility_gap_bound, trotter_erdos_necessary
from .oracles import (alternating_hamiltonian, induced_cycles,
                      max_disjoint_cycles)
from .cyclegraph import (_circuits_through_0, build_cycle_graph,
                         complete_directed_cycles, stitch_directed_cycle)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    columns: tuple
    rows: tuple
    ok: bool


def _result(name, columns, rows):
    ok = bool(rows) and all(row.get("ok", False) for row in rows)
    return SuiteResult(name, tuple(columns), tuple(rows), ok)


def product_pairs(max_order: int):
    """All ordered pairs (n1, n2) with n1, n2 >= 2 and n1*n2 <= max_order."""
    return [(a, b) for a in range(2, max_order // 2 + 1)
            for b in range(2, max_order // a + 1)]


def suite_trotter_erdos(max_order: int = 24) -> SuiteResult:
    """A cycle product is Hamiltonian exactly when the gcd-split condition
    holds (Trotter and Erdos 1978): both directions are checked, by the
    alternating-cycle oracle, whose Hamilton cycles are checked arc by arc.
    The product has gcd(n1, n2) alternating cycles, so past
    ``ALT_CYCLES_MAX`` the oracle is undecided; such a row reads
    ``unknown`` and is not ok."""
    rows = []
    for n1, n2 in product_pairs(max_order):
        D = directed_cycle_product(n1, n2)
        cycle = alternating_hamiltonian(D)
        ham = "unknown" if cycle is UNKNOWN else cycle is not None
        condition, split = trotter_erdos_necessary(n1, n2)
        rows.append({
            "n1": n1, "n2": n2, "gcd": gcd(n1, n2),
            "hamiltonian": ham, "condition": condition,
            "split": f"{split[0]}+{split[1]}" if split else "",
            "ok": cycle is not UNKNOWN and ham == condition,
        })
    return _result("trotter-erdos", ("n1", "n2", "gcd", "hamiltonian",
                                     "condition", "split", "ok"), rows)


def _arc_type_stream(succ1, circuits):
    """Yield (L, t1) for each of ``circuits``, the (keep, path) pairs of
    Johnson's walk from root 0: the circuit's length and how many of its
    arcs u -> v have v = ``succ1[u]``.  ``ones[i]`` counts those arcs on
    path[:i + 1].  As path[:keep] is unchanged since the previous circuit,
    so is ones[:keep]: only ones[max(keep, 1):] is recounted, from the new
    vertices, and the closing arc path[-1] -> 0 is added."""
    ones = [0] * len(succ1)
    for keep, path in circuits:
        i = max(keep, 1)
        count, u = ones[i - 1], path[i - 1]
        for v in path[i:]:
            if succ1[u] == v:
                count += 1
            ones[i] = count
            i += 1
            u = v
        yield len(path), count + (succ1[u] == 0)


def suite_divisibility(max_order: int = 20) -> SuiteResult:
    """Every directed cycle of a product has its coordinate arc counts
    divisible by the factor orders (hence its length by the gcd), and the
    exact perimeter gap meets the bound whenever the bound is claimed.

    Only the cycles through 0 are walked, on the product certified by the
    left translations of Z_n1 x Z_n2, whose generator rows
    ``_circuits_through_0`` checks against its arcs.  Every cycle is a
    translate g*C of one of them with the same arc types, as g maps arc
    x -> x*s to gx -> gx*s.  A length L has n*c0(L)/L cycles, c0(L) through 0, as
    each is counted once at each of its L vertices.  No circuit is copied:
    each one's arc types come from the prefix it shares with the previous
    one (``_arc_type_stream``), and its length is tallied."""
    rows = []
    for n1, n2 in product_pairs(max_order):
        D = directed_cycle_product(n1, n2)
        # the translations by (1,0) and (0,1)
        g = direct_product(cyclic_group(n1), cyclic_group(n2))
        family = AutomorphismFamily(D.n, generators=(g.row(n2), g.row(1)),
                                    group=g)
        d = gcd(n1, n2)
        succ1 = [(u + n2) % D.n for u in range(D.n)]   # (a, b) is a*n2 + b
        lengths_ok = True
        tally = [0] * (D.n + 1)
        for L, t1 in _arc_type_stream(succ1, _circuits_through_0(D, family)):
            tally[L] += 1
            if t1 % n1 or (L - t1) % n2 or L % d:
                lengths_ok = False
        per_length = {L: c0 for L, c0 in enumerate(tally) if c0}
        assert all(D.n * c0 % L == 0 for L, c0 in per_length.items())
        count = sum(D.n * c0 // L for L, c0 in per_length.items())
        circumference = max(per_length)
        gap = D.n - circumference
        bound = divisibility_gap_bound(n1, n2)
        rows.append({
            "n1": n1, "n2": n2, "gcd": d, "cycles": count,
            "circumference": circumference, "gap": gap, "bound": bound,
            "ok": lengths_ok and gap >= bound,
        })
    return _result("divisibility", ("n1", "n2", "gcd", "cycles",
                                    "circumference", "gap", "bound", "ok"), rows)


def suite_figure1(max_k: int = 4) -> SuiteResult:
    """Caption properties of the chain gadget, re-checked from scratch:
    2-regular, strongly 2-connected, longest directed cycle exactly 4, and
    at least floor(k/2) vertex-disjoint longest cycles."""
    rows = []
    for k in range(1, max_k + 1):
        D = four_cycle_chain(k, verify=False)
        cycles = complete_directed_cycles(D)
        assert cycles is not None
        longest = max(c.length for c in cycles)
        four_cycles = [c for c in cycles if c.length == 4]
        want = k // 2
        packing, exact = max_disjoint_cycles(four_cycles, budget=10 ** 5)
        regular = D.regularity() == 2
        strong2 = is_strongly_k_connected(D, 2)
        rows.append({
            "k": k, "n": D.n,
            "regular": regular,
            "strong2": strong2,
            "longest": longest,
            "disjoint_longest": packing,
            "ok": (regular and strong2 and longest == 4 and exact
                   and packing >= want),
        })
    return _result("figure1", ("k", "n", "regular", "strong2", "longest",
                               "disjoint_longest", "ok"), rows)


def small_cayley_corpus():
    """Named Cayley specs with at most 18 vertices: cyclic digraphs with
    one or two steps, products of cycles, and dihedral groups."""
    entries = [
        ("Z5<1>", CayleySpec(cyclic_group(5), (1,))),
        ("Z7<1,2>", CayleySpec(cyclic_group(7), (1, 2))),
        ("Z8<1,2>", CayleySpec(cyclic_group(8), (1, 2))),
        ("Z9<1,3>", CayleySpec(cyclic_group(9), (1, 3))),
        ("Z12<2,3>", CayleySpec(cyclic_group(12), (2, 3))),
        ("Z17<1,3>", CayleySpec(cyclic_group(17), (1, 3))),
        ("Z2xZ3<(1,0),(0,1)>", product_cayley_spec(2, 3)),
        ("Z3xZ3<(1,0),(0,1)>", product_cayley_spec(3, 3)),
        ("Z2xZ4<(1,0),(0,1)>", product_cayley_spec(2, 4)),
        ("Z4xZ4<(1,0),(0,1)>", product_cayley_spec(4, 4)),
        ("Z2xZ8<(1,0),(0,1)>", product_cayley_spec(2, 8)),
        ("D4<r,s>", CayleySpec(dihedral_group(4), (1, 4))),
        ("D6<r,s>", CayleySpec(dihedral_group(6), (1, 6))),
        ("D9<r,s>", CayleySpec(dihedral_group(9), (1, 9))),
    ]
    return entries


def suite_lemma21(corpus=None) -> SuiteResult:
    """Exact expansion of certified vertex-transitive digraphs against the
    1/(3d) floor."""
    rows = []
    for name, spec in (corpus or small_cayley_corpus()):
        D = cayley_digraph(spec)
        family = left_translations(spec)   # raises unless it certifies D
        report = expansion_exact(D, family)
        d = max(D.bfs_distances(0))   # D is transitive: vertex 0's eccentricity
        floor = Fraction(1, 3 * d)
        rows.append({
            "instance": name, "n": D.n, "diameter": d,
            "alpha": report.alpha_lower, "floor": floor,
            "ok": report.alpha_lower >= floor,
        })
    return _result("lemma21", ("instance", "n", "diameter", "alpha",
                               "floor", "ok"), rows)


def suite_lemma24(corpus=None) -> SuiteResult:
    """The descendant-driven cycle search meets its alpha*n/3 floor with the
    exact expansion constant on every corpus member (its internal set-size
    assertions fire as exceptions, so a clean run also certifies those)."""
    rows = []
    for name, spec in (corpus or small_cayley_corpus()):
        D = cayley_digraph(spec)
        alpha = expansion_exact(D, left_translations(spec)).alpha_lower
        res = dfs_long_cycle(D, alpha=alpha)
        floor = -(-alpha.numerator * D.n // (3 * alpha.denominator))  # ceil
        rows.append({
            "instance": name, "n": D.n, "alpha": alpha,
            "cycle_length": res.cycle.length, "floor": floor,
            "ok": res.cycle.length >= floor,
        })
    return _result("lemma24", ("instance", "n", "alpha", "cycle_length",
                               "floor", "ok"), rows)


def suite_theorem25(corpus=None) -> SuiteResult:
    """Directed path of length at least floor(sqrt(n)/3) on every certified
    transitive corpus member."""
    rows = []
    for name, spec in (corpus or small_cayley_corpus()):
        D = cayley_digraph(spec)
        path = long_path(D, certified_transitive=True)
        floor = isqrt(D.n) // 3
        rows.append({
            "instance": name, "n": D.n, "path_length": path.length,
            "floor": floor, "ok": path.length >= floor,
        })
    return _result("theorem25", ("instance", "n", "path_length", "floor",
                                 "ok"), rows)


def triangle_ring(t: int) -> Digraph:
    """A ring of t directed triangles, consecutive ones sharing a vertex;
    its cycle graph contains an induced t-cycle."""
    if t < 3:
        raise ValueError("need at least 3 triangles")
    n = 2 * t
    arcs = []
    for i in range(t):
        a, b, c = 2 * i, 2 * i + 1, (2 * i + 2) % n
        arcs += [(a, b), (b, c), (c, a)]
    return Digraph(n, arcs)


def stitch_hosts():
    return [
        ("triangle-ring-4", triangle_ring(4)),
        ("triangle-ring-5", triangle_ring(5)),
        ("C2xC3", directed_cycle_product(2, 3)),
        ("C2xC4", directed_cycle_product(2, 4)),
        ("C3xC3", directed_cycle_product(3, 3)),
        ("C2xC5", directed_cycle_product(2, 5)),
        ("C3xC4", directed_cycle_product(3, 4)),
        ("C2xC6", directed_cycle_product(2, 6)),
        ("C2xC7", directed_cycle_product(2, 7)),
        ("chain-2", four_cycle_chain(2)),
        ("chain-3", four_cycle_chain(3)),
        ("toroidal-1", toroidal_gadget(1)),
    ]


def suite_lemma27(hosts=None) -> SuiteResult:
    """Every induced cycle of length >= 4 in the cycle graph of each small
    host stitches into a valid directed cycle at least that long."""
    rows = []
    for name, D in (hosts or stitch_hosts()):
        cycles = complete_directed_cycles(D)
        assert cycles is not None
        cg = build_cycle_graph(D, cycles)
        found, exact = induced_cycles(cg.graph, min_len=4, budget=10 ** 7)
        checked = 0
        all_ok = exact
        min_margin = None
        for seq in found:
            stitched = stitch_directed_cycle(D, cg, list(seq))
            checked += 1
            margin = stitched.length - len(seq)
            if stitched.length < len(seq):
                all_ok = False
            if min_margin is None or margin < min_margin:
                min_margin = margin
        rows.append({
            "instance": name, "n": D.n, "cycles": len(cycles),
            "induced_cycles": checked,
            "min_margin": min_margin if min_margin is not None else "",
            "ok": all_ok,
        })
    return _result("lemma27", ("instance", "n", "cycles", "induced_cycles",
                               "min_margin", "ok"), rows)


def suite_toroidal(max_n: int = 2) -> SuiteResult:
    """The wrap-around gadget has 8n+4 vertices, is certified vertex
    transitive, and the alternating-cycle oracle proves it has no Hamilton
    cycle (it has two alternating cycles, so four covers, at every n)."""
    rows = []
    for n in range(1, max_n + 1):
        D = toroidal_gadget(n, verify=False)
        fam = toroidal_translations(n)
        ham = alternating_hamiltonian(D)
        transitive = fam.certifies(D)
        rows.append({
            "n": n, "vertices": D.n,
            "expected_vertices": 8 * n + 4,
            "transitive": transitive,
            "hamiltonian": ham is not None,
            "ok": (D.n == 8 * n + 4 and transitive and ham is None),
        })
    return _result("toroidal", ("n", "vertices", "expected_vertices",
                                "transitive", "hamiltonian", "ok"), rows)


SUITES = {
    "trotter-erdos": suite_trotter_erdos,
    "divisibility": suite_divisibility,
    "figure1": suite_figure1,
    "lemma21": suite_lemma21,
    "lemma24": suite_lemma24,
    "theorem25": suite_theorem25,
    "lemma27": suite_lemma27,
    "toroidal": suite_toroidal,
}
