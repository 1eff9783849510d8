import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vtcycles import cyclegraph
from vtcycles.digraph import Digraph, Graph
from vtcycles.gadgets import (cycle_digraph, directed_cycle_product,
                              four_cycle_chain, toroidal_gadget,
                              toroidal_translations, product_cayley_spec)
from vtcycles.groups import AutomorphismFamily, left_translations
from vtcycles.oracles import brute_longest_cycle, induced_cycles
from vtcycles.cyclegraph import (CycleGraph, EnumerationIncomplete,
                                 StitchError, _first_bad_pair,
                                 _longest_induced_path_with_geodesic_tail,
                                 _verify_induced_cycle,
                                 build_cycle_graph, complete_directed_cycles,
                                 cycle_graph_diameter_check,
                                 induced_cycle_via_symmetry,
                                 is_nearly_transitive, lift_automorphisms,
                                 pipeline_n13, stitch_directed_cycle)
from vtcycles.verify import triangle_ring

from _independent import dfs_all_cycles


def rotations(n):
    return AutomorphismFamily(
        n, tuple(tuple((i + s) % n for i in range(n)) for s in range(n)))


def undirected_cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def dump_cycle_graph(cg):
    """Header ``cycles k truncated 0``, one vertex-list line per cycle,
    then adjacency as index pairs.  The flag field stays in the format and
    always reads 0."""
    lines = [f"cycles {cg.order} truncated 0"]
    for c in cg.cycles:
        lines.append(" ".join(str(v) for v in c.vertices))
    for i, j in cg.graph.arcs():
        if i < j:
            lines.append(f"{i} {j}")
    return "\n".join(lines) + "\n"


def complete_cycle_graph(D):
    return build_cycle_graph(D, complete_directed_cycles(D))


# --- enumeration -------------------------------------------------------------

def test_enumerate_single_cycle():
    cycles = complete_directed_cycles(cycle_digraph(5))
    assert cycles is not None and len(cycles) == 1
    assert cycles[0].vertices == (0, 1, 2, 3, 4)


def test_enumerate_digon_chain():
    D = Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)])
    cycles = complete_directed_cycles(D)
    assert sorted(c.vertices for c in cycles) == [(0, 1), (1, 2), (2, 3)]


def test_enumerate_matches_independent_dfs():
    for D in (directed_cycle_product(2, 3), directed_cycle_product(3, 3),
              four_cycle_chain(2), triangle_ring(4)):
        cycles = complete_directed_cycles(D)
        assert cycles is not None
        assert {c.vertices for c in cycles} == dfs_all_cycles(D)


def test_enumerate_c2xc3_census():
    cycles = complete_directed_cycles(directed_cycle_product(2, 3))
    by_len = {}
    for c in cycles:
        by_len[c.length] = by_len.get(c.length, 0) + 1
    assert by_len == {2: 3, 3: 2, 5: 6}


def test_enumerate_truncation_is_flagged():
    # 11 cycles: past a cap of 5 there is no list at all
    assert complete_directed_cycles(directed_cycle_product(2, 3), 5) is None


def test_enumerate_deep_cycle_without_recursion():
    # Johnson's search walks 3000 vertices deep before closing the cycle
    cycles = complete_directed_cycles(cycle_digraph(3000), max_count=1)
    assert cycles is not None
    assert [c.vertices for c in cycles] == [tuple(range(3000))]


def test_enumerate_refuses_unbounded_large():
    with pytest.raises(ValueError, match="capped"):
        complete_directed_cycles(toroidal_gadget(3, verify=False))


# --- cycle graph construction ------------------------------------------------

def test_single_cycle_graph_is_isolated_vertex():
    cg = complete_cycle_graph(cycle_digraph(4))
    assert cg.order == 1 and cg.graph.edge_count == 0


def test_disjoint_triangles_are_isolated():
    D = Digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    cg = complete_cycle_graph(D)
    assert cg.order == 2 and cg.graph.edge_count == 0


def test_cycle_graph_connected_for_strong_hosts():
    for D in (four_cycle_chain(3), directed_cycle_product(2, 4),
              toroidal_gadget(1)):
        cg = complete_cycle_graph(D)
        assert cg.graph.is_strongly_connected()


def test_dump_format():
    cg = complete_cycle_graph(cycle_digraph(3))
    text = dump_cycle_graph(cg)
    assert text.splitlines()[0] == "cycles 1 truncated 0"
    assert text.splitlines()[1] == "0 1 2"


# sha256 of dump_cycle_graph(complete_cycle_graph(D)), recorded while the cycle
# graph was still built from a materialised edge list
DUMP_DIGESTS = {
    "C2xC8": ("d0ac3f908e8bb406376ed55372f72c75"
              "4bcbac1d016a4c59b3178e5da179472d"),
    "C3xC4": ("1ea1d6b900b5709e601597c59fd0423e"
              "4418734b18143d31f5990fd5b3b99538"),
    "toroidal(1)": ("3897a34dca155e8677fa9bc152923db2"
                    "c62fa56b982621c431537afb09506622"),
    "chain(3)": ("0adf3ae32a26203b9bd2ccdc8498d7fa"
                 "30aad7f9fc830c5cb913f34a0cf0d63c"),
}


@pytest.mark.parametrize("name, build", [
    ("C2xC8", lambda: directed_cycle_product(2, 8)),
    ("C3xC4", lambda: directed_cycle_product(3, 4)),
    ("toroidal(1)", lambda: toroidal_gadget(1)),
    ("chain(3)", lambda: four_cycle_chain(3)),
])
def test_cycle_graph_dump_matches_recorded_digest(name, build):
    text = dump_cycle_graph(complete_cycle_graph(build()))
    assert hashlib.sha256(text.encode()).hexdigest() == DUMP_DIGESTS[name]


def test_diameter_check_directed_cycle():
    report = cycle_graph_diameter_check(cycle_digraph(6))
    # single vertex: diameter 0; the floor (n-1)/n - 1 is negative
    assert report["cycle_graph_diameter"] == 0
    assert report["floor_holds"]


def test_diameter_check_toroidal_and_product():
    for D in (toroidal_gadget(1), directed_cycle_product(2, 3)):
        report = cycle_graph_diameter_check(D)
        assert report["complete"] and report["connected"]
        assert report["floor_holds"]


def test_diameter_check_unknown_when_truncated():
    report = cycle_graph_diameter_check(directed_cycle_product(2, 3),
                                        max_count=3)
    assert report == {"complete": False, "verdict": "UNKNOWN"}


def test_diameter_check_skips_the_cycle_graph_when_truncated(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("cycle graph built for a truncated enumeration")

    monkeypatch.setattr(cyclegraph, "build_cycle_graph", refuse)
    report = cycle_graph_diameter_check(directed_cycle_product(8, 8),
                                        max_count=50)
    assert report == {"complete": False, "verdict": "UNKNOWN"}


# --- stitching ----------------------------------------------------------------

def test_stitch_triangle_ring():
    D = triangle_ring(4)
    cg = complete_cycle_graph(D)
    triangles = [i for i, c in enumerate(cg.cycles) if c.length == 3]
    order = [triangles[0]]
    while len(order) < 4:
        nxt = [j for j in triangles
               if j not in order and cg.graph.has_edge(order[-1], j)]
        order.append(nxt[0])
    stitched = stitch_directed_cycle(D, cg, order)
    assert stitched.length >= 4


def test_stitch_rejects_short_and_chorded_input():
    D = triangle_ring(4)
    cg = complete_cycle_graph(D)
    with pytest.raises(StitchError, match=">= 4"):
        stitch_directed_cycle(D, cg, [0, 1, 2])
    five = triangle_ring(5)
    cg5 = complete_cycle_graph(five)
    tri = [i for i, c in enumerate(cg5.cycles) if c.length == 3]
    # five triangles in ring order, then swap two to break adjacency
    order = [tri[0]]
    while len(order) < 5:
        nxt = [j for j in tri
               if j not in order and cg5.graph.has_edge(order[-1], j)]
        order.append(nxt[0])
    broken = [order[0], order[2], order[1], order[3], order[4]]
    with pytest.raises(StitchError):
        stitch_directed_cycle(five, cg5, broken)


def test_cycle_graph_masks_are_the_cycle_vertex_sets():
    for D in (triangle_ring(5), directed_cycle_product(2, 4),
              four_cycle_chain(2)):
        cycles = complete_directed_cycles(D)
        cg = build_cycle_graph(D, cycles)
        want = tuple(sum(1 << v for v in c.vertices) for c in cycles)
        assert cg.masks == want
        assert CycleGraph(cg.cycles, cg.graph).masks == want


def _pairwise_induced_check(graph, seq):
    """The induced-cycle check pair by pair through ``_first_bad_pair``:
    the StitchError text it raises, or None."""
    k = len(seq)
    if k < 4:
        return f"need an induced cycle of length >= 4, got {k}"
    if len(set(seq)) != k:
        return "index sequence repeats a cycle"
    bad = _first_bad_pair(graph, seq, closed=True)
    if bad is None:
        return None
    i, j = bad
    if graph.has_edge(seq[i], seq[j]):
        return f"chord between positions {i},{j}"
    return f"positions {i},{j} not adjacent"


@st.composite
def graphs_with_sequences(draw):
    """A random graph on at most 9 vertices, with a sequence of its
    vertices: mostly a cycle of distinct ones whose consecutive pairs are
    made edges, and random chords."""
    n = draw(st.integers(min_value=1, max_value=9))
    seq = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                        max_size=n + 1))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    if draw(st.booleans()):
        edges += [(u, v) for u, v in zip(seq, seq[1:] + seq[:1]) if u != v]
    return Graph(n, edges), seq


@settings(max_examples=400, deadline=None)
@given(graphs_with_sequences())
@example((undirected_cycle(5), [0, 1, 2, 3, 4]))             # induced
@example((Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
          [0, 1, 2, 3]))                                     # a chord
@example((Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
          [0, 1, 2, 3, 4]))                                  # not closed
def test_induced_check_by_masks_raises_the_pairwise_text(case):
    graph, seq = case
    want = _pairwise_induced_check(graph, seq)
    if want is None:
        _verify_induced_cycle(graph, seq)
    else:
        with pytest.raises(StitchError) as err:
            _verify_induced_cycle(graph, seq)
        assert str(err.value) == want


def test_stitch_every_induced_cycle_of_toroidal():
    D = toroidal_gadget(1)
    cg = complete_cycle_graph(D)
    found, exact = induced_cycles(cg.graph, min_len=4, budget=10 ** 7)
    assert exact and found
    for seq in found:
        stitched = stitch_directed_cycle(D, cg, list(seq))
        assert stitched.length >= len(seq)


# --- lifting and near transitivity --------------------------------------------

def test_identity_lifts_to_identity():
    D = directed_cycle_product(2, 3)
    cg = complete_cycle_graph(D)
    ident = AutomorphismFamily(6, (tuple(range(6)),))
    lifted = lift_automorphisms(D, ident, cg)
    assert lifted.permutations[0] == tuple(range(cg.order))


def test_rotation_lifts_to_identity_on_single_vertex():
    D = cycle_digraph(5)
    cg = complete_cycle_graph(D)
    fam = AutomorphismFamily(5, (tuple((i + 1) % 5 for i in range(5)),))
    lifted = lift_automorphisms(D, fam, cg)
    assert lifted.permutations[0] == (0,)


def test_toroidal_translations_lift_preserving_edges():
    D = toroidal_gadget(1)
    cg = complete_cycle_graph(D)
    fam = toroidal_translations(1)
    lifted = lift_automorphisms(D, fam, cg)  # validate_digraph runs inside
    assert len(lifted) == len(fam)


def test_lift_over_part_of_the_cycles_is_refused():
    spec = product_cayley_spec(2, 3)
    D = directed_cycle_product(2, 3)
    cycles = complete_directed_cycles(D)
    # the first 4 cycles: every translation maps one of them outside
    cg = build_cycle_graph(D, cycles[:4])
    with pytest.raises(EnumerationIncomplete, match="image cycle missing"):
        lift_automorphisms(D, left_translations(spec), cg)


def test_near_transitivity():
    G = undirected_cycle(7)
    assert is_nearly_transitive(G, rotations(7))
    edgeless = Graph(2, [])
    ident = AutomorphismFamily(2, (tuple(range(2)),))
    assert not is_nearly_transitive(edgeless, ident)


def test_lifted_family_is_nearly_transitive_on_toroidal():
    D = toroidal_gadget(1)
    cg = complete_cycle_graph(D)
    lifted = lift_automorphisms(D, toroidal_translations(1), cg)
    assert is_nearly_transitive(cg.graph, lifted)


# --- symmetric induced-cycle extraction ----------------------------------------

def test_symmetry_cycle_on_c50(monkeypatch):
    monkeypatch.setattr(cyclegraph, "PATH_BUDGET", 50_000)
    G = undirected_cycle(50)
    cycle, report = induced_cycle_via_symmetry(G, rotations(50))
    assert len(cycle) == 50          # the only induced cycle
    assert report["floor_holds"]     # 50 >= 25 - 17
    if report["mode"] == "construction":
        deco = report["decomposition"]
        assert len(deco.S) == 26 and deco.w == deco.P[-1]


def test_geodesic_tail_search_with_a_zero_budget_returns_the_seed():
    G = undirected_cycle(50)
    seed = G.diameter_path()                 # 26 vertices, diameter 25
    q = (25 - 5 + 1) // 2
    path = _longest_induced_path_with_geodesic_tail(G, q, seed, budget=0)
    assert path == list(seed)


def test_symmetry_cycle_falls_back_under_tiny_budget(monkeypatch):
    monkeypatch.setattr(cyclegraph, "PATH_BUDGET", 5)
    G = undirected_cycle(44)
    cycle, report = induced_cycle_via_symmetry(G, rotations(44))
    assert len(cycle) == 44
    assert report["floor_holds"]


def test_symmetry_cycle_on_a_cycle_deeper_than_the_recursion_limit(
        monkeypatch):
    monkeypatch.setattr(cyclegraph, "PATH_BUDGET", 5000)
    G = undirected_cycle(1100)
    cycle, report = induced_cycle_via_symmetry(G, rotations(1100))
    assert len(cycle) == 1100 and report["floor_holds"]


def test_symmetry_cycle_rejects_small_diameter():
    with pytest.raises(ValueError, match="diameter"):
        induced_cycle_via_symmetry(undirected_cycle(6), rotations(6))


def test_symmetry_cycle_rejects_weak_family():
    G = undirected_cycle(44)
    ident = AutomorphismFamily(44, (tuple(range(44)),))
    with pytest.raises(ValueError, match="near transitivity"):
        induced_cycle_via_symmetry(G, ident)


# --- pipeline -------------------------------------------------------------------

def test_pipeline_directed_cycle_returns_whole_cycle():
    for n in (5, 9, 17):
        best, report = pipeline_n13(cycle_digraph(n))
        assert best.length == n
        expected_branch = "small" if (n - 1) ** 3 <= n ** 2 else "large"
        assert report["branch"] == expected_branch


def test_pipeline_toroidal_matches_exact_circumference():
    D = toroidal_gadget(1)
    best, report = pipeline_n13(D, toroidal_translations(1))
    assert report["branch"] == "small"      # diameter 4: 64 <= 144
    exact = brute_longest_cycle(D).best.length
    assert best.length >= 4
    assert best.length <= exact
    assert report["result_length"] == best.length


def test_pipeline_c3xc3():
    D = directed_cycle_product(3, 3)
    fam = left_translations(product_cayley_spec(3, 3))
    best, report = pipeline_n13(D, fam)
    assert report["branch"] == "small"      # 4^3 = 64 <= 81
    assert best.length >= 3                 # ceil(alpha*n/3) with alpha >= 1/12


def test_pipeline_large_branch_uses_cycle_graph():
    D = cycle_digraph(12)   # diameter 11: 1331 > 144
    best, report = pipeline_n13(D)
    assert report["branch"] == "large"
    assert best.length == 12
    assert report["circumference"] == 12


def test_pipeline_large_branch_stitches():
    # C2 x C8: diameter 8, 512 > 256, and its cycle graph holds induced
    # 4-cycles (two column digons plus the two row cycles)
    D = directed_cycle_product(2, 8)
    fam = left_translations(product_cayley_spec(2, 8))
    best, report = pipeline_n13(D, fam)
    assert report["branch"] == "large"
    assert report["induced_available"]
    assert report["stitched_length"] >= 4
    exact = brute_longest_cycle(D).best.length
    assert best.length == report["circumference"] == exact


def test_pipeline_rejects_disconnected():
    with pytest.raises(ValueError, match="strongly connected"):
        pipeline_n13(Digraph(3, [(0, 1), (1, 2)]))


def test_pipeline_partial_when_enumeration_truncated():
    D = cycle_digraph(12)
    best, report = pipeline_n13(D, max_cycles=0)
    assert report["branch"] == "large" and report["partial"]
    assert best.length == 12    # the descendant search still delivers
