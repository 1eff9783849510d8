"""Cross-module properties on randomized instances.

These are the heavy correctness checks: the constructive algorithms run on
arbitrary (not hand-picked) hosts and must agree with the independent
oracles or meet the floors they claim.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vtcycles.automorphisms import (automorphism_family_by_search,
                                    find_automorphism, is_vertex_transitive)
from vtcycles.digraph import (INF, UNKNOWN, Digraph, DirectedCycle, Graph,
                              _fill, adjacency_masks, bitset_bfs, iter_bits,
                              reacher, shift_classes)
from vtcycles.gadgets import is_strongly_k_connected
from vtcycles.longcycle import dfs_long_cycle, expansion_exact
from vtcycles.oracles import (brute_longest_cycle,
                              brute_longest_induced_cycle, induced_cycles)
from vtcycles.cyclegraph import (build_cycle_graph, complete_directed_cycles,
                                 stitch_directed_cycle)

from _independent import (_naive_distances, dfs_all_cycles,
                          dfs_cycles_in_order, naive_graph_distances,
                          naive_graph_diameter, preserves_arc_set,
                          subset_induced_cycles)


@st.composite
def strong_digraphs(draw, max_n=8):
    """Random digraph over a forced spanning cycle: strongly connected."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    ring = [(i, (i + 1) % n) for i in range(n)]
    return Digraph(n, ring + extra)


@st.composite
def strong_cores(draw, max_n=7):
    """The strong component of vertex 0 in a random digraph: strongly
    connected, but with no spanning cycle forced on it."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    D = Digraph(n, arcs)
    forward = D.bfs_distances(0)
    backward = D.bfs_distances(0, reverse=True)
    core = [v for v in range(n) if forward[v] != INF and backward[v] != INF]
    return D.induced_subdigraph(core)[0]


@st.composite
def copies_with_extra_arcs(draw, max_n=6):
    """c relabelled copies of a random digraph on m vertices (c = 1 gives
    any digraph) plus up to two extra arcs, with m*c <= max_n, and two of
    its vertices: hosts with many look-alike vertices, transitive or not."""
    m = draw(st.integers(min_value=1, max_value=max_n))
    c = draw(st.integers(min_value=1, max_value=max_n // m))
    n = m * c
    piece = draw(st.sets(st.sampled_from(
        [(u, v) for u in range(m) for v in range(m) if u != v]))) if m > 1 else set()
    arcs = [(u + i * m, v + i * m) for i in range(c) for u, v in piece]
    arcs += [(u, v) for u, v in draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2))
        if u != v]
    relabel = draw(st.permutations(range(n)))
    D = Digraph(n, [(relabel[u], relabel[v]) for u, v in arcs])
    return D, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))


@settings(max_examples=300, deadline=None)
@given(copies_with_extra_arcs())
# 3 -> 0 must not send 1 to 1: only the in-arc 0 -> 1 rules that out
@example((Digraph(4, [(0, 1), (3, 2)]), 3, 0))
def test_find_automorphism_matches_every_permutation(case):
    """A map s -> t is found exactly when some permutation taking s to t
    preserves the arc set, and every map found does."""
    D, s, t = case
    exists = any(preserves_arc_set(D, perm)
                 for perm in permutations(range(D.n)) if perm[s] == t)
    image = find_automorphism(D, s, t)
    assert image is not UNKNOWN
    assert (image is not None) == exists
    if image is not None:
        assert image[s] == t and preserves_arc_set(D, image)


@settings(max_examples=60, deadline=None)
@given(strong_cores())
def test_longest_cycle_matches_plain_dfs_circumference(D):
    res = brute_longest_cycle(D)
    assert res.exact
    longest = max((len(c) for c in dfs_all_cycles(D)), default=0)
    assert (res.best.length if res.best else 0) == longest


@settings(max_examples=40, deadline=None)
@given(strong_digraphs())
def test_cycle_enumeration_matches_plain_dfs(D):
    cycles = complete_directed_cycles(D)
    assert cycles is not None
    assert {c.vertices for c in cycles} == dfs_all_cycles(D)


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return Graph(n, edges)


@settings(max_examples=60, deadline=None)
@given(graphs(), st.integers(min_value=3, max_value=6))
def test_induced_cycle_enumeration_matches_subset_scan(G, min_len):
    mine, exact = induced_cycles(G, min_len)
    assert exact and len(set(mine)) == len(mine)
    assert ({frozenset(c) for c in mine}
            == {s for s in subset_induced_cycles(G) if len(s) >= min_len})


@settings(max_examples=80, deadline=None)
@given(graphs(), st.one_of(st.none(), st.integers(min_value=1, max_value=300)))
def test_longest_induced_cycle_is_the_first_longest_listed(G, budget):
    # the same budget truncates the list and the best-cycle walk alike
    listed, exact = induced_cycles(G, 3, budget)
    res = brute_longest_induced_cycle(G, budget)
    assert res.best == max(listed, key=len, default=None)
    assert res.exact == exact
    full = brute_longest_induced_cycle(G)
    assert res.expansions == (full.expansions if exact else budget + 1)
    # a truncated list is a prefix of the complete one
    assert listed == induced_cycles(G)[0][:len(listed)]


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=12))
def test_graph_diameter_matches_naive_bfs(G):
    naive = naive_graph_diameter(G)
    assert G.diameter() == (INF if naive is None else naive)
    path = G.diameter_path()
    if naive is None or G.n == 0:
        assert path is None
        return
    # the lexicographically first pair at the diameter, joined by a geodesic
    dist = [naive_graph_distances(G, s) for s in range(G.n)]
    pair = min((s, t) for s in range(G.n) for t in range(G.n)
               if dist[s][t] == naive)
    assert (path[0], path[-1]) == pair and len(path) - 1 == naive
    assert all(G.has_edge(u, v) for u, v in zip(path, path[1:]))


def test_graph_diameter_edge_cases():
    assert (Graph(0, []).diameter(), Graph(0, []).diameter_path()) == (0, None)
    assert (Graph(1, []).diameter(), Graph(1, []).diameter_path()) == (0, [0])
    two = Graph(2, [])
    assert (two.diameter(), two.diameter_path()) == (INF, None)
    split = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert (split.diameter(), split.diameter_path()) == (INF, None)


# --- the bitset layer against the code it replaced -------------------------

@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bitset_bfs_matches_naive_bfs_inside_allowed(data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    rows = data.draw(st.lists(st.lists(st.integers(0, n - 1), max_size=n, unique=True),
                              min_size=n, max_size=n))
    start = data.draw(st.integers(0, n - 1))
    allowed = data.draw(st.integers(0, (1 << n) - 1)) | (1 << start)
    inside = [[w for w in row if allowed >> w & 1] if allowed >> v & 1 else []
              for v, row in enumerate(rows)]
    dist = _naive_distances(inside, start)
    depth = max(d for d in dist if d is not None)
    reached, levels, last = bitset_bfs(adjacency_masks(rows), start, allowed)
    assert set(iter_bits(reached)) == {v for v, d in enumerate(dist) if d is not None}
    assert levels == depth
    assert (last & -last).bit_length() - 1 == dist.index(depth)
    if allowed == (1 << n) - 1:  # the default confines nothing
        assert bitset_bfs(adjacency_masks(rows), start) == (reached, levels, last)
    # the directed rows with their transposed masks: wide levels step
    # bottom up, and every level stays what the top-down run found
    inn = adjacency_masks([[u for u in range(n) if v in rows[u]] for v in range(n)])
    assert bitset_bfs(adjacency_masks(rows), start, allowed, inn) == (reached, levels, last)


def _top_down_farthest_pair(G):
    """``Graph._farthest_pair`` with no bottom-up step: ``bitset_bfs``
    without in-neighbor masks."""
    best, pair = 0, None
    for s in range(G.n):
        reached, ecc, last = bitset_bfs(G.masks, s)
        if reached != (1 << G.n) - 1:
            return INF, None
        if ecc > best or pair is None:
            best, pair = ecc, (s, (last & -last).bit_length() - 1)
    return best, pair


@st.composite
def connected_or_split_graphs(draw, max_n=24):
    """A random graph over a random spanning tree, or one with every edge
    across a cut at k (0 < k < n) dropped."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        edges += [(order[i], order[draw(st.integers(0, i - 1))])
                  for i in range(1, n)]
    else:
        k = draw(st.integers(min_value=1, max_value=n - 1))
        edges = [(u, v) for u, v in edges if (u < k) == (v < k)]
    return Graph(n, edges)


@settings(max_examples=150, deadline=None)
@given(connected_or_split_graphs())
def test_graph_diameter_matches_a_top_down_only_run(G):
    best, pair = _top_down_farthest_pair(G)
    assert G.diameter() == best
    assert G.diameter_path() == (None if pair is None else G.shortest_path(*pair))


class _CountedSweeps(tuple):
    """Shift classes that count how often a fill sweeps over them."""

    def __iter__(self):
        self.sweeps += 1
        return super().__iter__()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bitset_bfs_by_shift_classes_matches_the_masks_only_run(data):
    """Arbitrary rows (self-loops included), or the arcs of a few offsets
    less a few dropped ones: few classes for many vertices, so ``reacher``
    fills.  One sweep closes a single class, and its check sweep adds
    nothing."""
    if data.draw(st.booleans()):
        n = data.draw(st.integers(min_value=1, max_value=12))
        rows = data.draw(st.lists(st.lists(st.integers(0, n - 1), max_size=n,
                                           unique=True),
                                  min_size=n, max_size=n))
    else:
        n = data.draw(st.integers(min_value=1, max_value=48))
        offsets = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                     max_size=3, unique=True))
        dropped = data.draw(st.sets(st.integers(0, 3 * n - 1), max_size=n // 4))
        rows = [[(v + d) % n for i, d in enumerate(offsets)
                 if v + i * n not in dropped] for v in range(n)]
    classes = shift_classes(rows)
    assert len(classes) <= n
    assert ({(v, (v + d) % n) for d, sources in classes for v in iter_bits(sources)}
            == {(v, w) for v, row in enumerate(rows) for w in row})
    start = data.draw(st.integers(0, n - 1))
    allowed = data.draw(st.one_of(st.just(-1), st.integers(0, (1 << n) - 1))) | (1 << start)
    reached = bitset_bfs(adjacency_masks(rows), start, allowed)[0]
    assert _fill(classes, n, start, allowed) == reached
    reach = reacher(rows)
    assert reach(start, allowed) == reached
    fills = len(classes) * n.bit_length() <= n
    assert reach.route == (f"fill over {len(classes)} shift classes" if fills
                           else "bitset BFS")
    for d, sources in classes:
        one = _CountedSweeps([(d, sources)])
        one.sweeps = 0
        masks = [1 << (v + d) % n if sources >> v & 1 else 0 for v in range(n)]
        assert _fill(one, n, start, allowed) == bitset_bfs(masks, start, allowed)[0]
        assert one.sweeps <= 2


def test_bitset_bfs_rotates_the_wide_levels_of_a_cayley_host():
    """Z_40<1,7>: two classes, so ``reacher`` fills by them, and the
    doubling rounds close in a few sweeps what the masks-only run reaches
    level by level, with and without two vertices cut out."""
    rows = [((v + 1) % 40, (v + 7) % 40) for v in range(40)]
    classes = shift_classes(rows)
    assert classes == ((1, (1 << 40) - 1), (7, (1 << 40) - 1))
    assert reacher(rows).route == "fill over 2 shift classes"
    masks = adjacency_masks(rows)
    for allowed in (-1, ~(1 << 5 | 1 << 12)):
        counted = _CountedSweeps(classes)
        counted.sweeps = 0
        reached, levels, _ = bitset_bfs(masks, 0, allowed)
        assert _fill(counted, 40, 0, allowed) == reached
        assert reacher(rows)(0, allowed) == reached
        assert counted.sweeps < levels
    assert bitset_bfs(masks, 0)[0] == (1 << 40) - 1


@st.composite
def small_digraphs(draw, max_n=9):
    """Random digraph, over a spanning cycle half the time."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    if draw(st.booleans()):
        arcs += [(i, (i + 1) % n) for i in range(n) if n > 1]
    return Digraph(n, arcs)


def strongly_k_connected_by_definition(D, k):
    """More than k vertices, and strongly connected after removing any set
    of fewer than k of them, each remainder rebuilt as its own digraph."""
    return D.n > k and all(
        D.induced_subdigraph(set(range(D.n)) - set(removed))[0].is_strongly_connected()
        for r in range(k) for removed in combinations(range(D.n), r))


@settings(max_examples=150, deadline=None)
@given(small_digraphs(), st.integers(min_value=1, max_value=3))
def test_strong_k_connectivity_matches_the_definition(D, k):
    assert is_strongly_k_connected(D, k) == strongly_k_connected_by_definition(D, k)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_graph_adjacency_matches_a_set_and_sort_rebuild(data):
    n = data.draw(st.integers(min_value=0, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=40)) if pairs else []
    seen = {frozenset(e) for e in edges}
    rebuilt = tuple(tuple(sorted(w for e in seen if v in e for w in e if w != v))
                    for v in range(n))
    assert Graph(n, edges).adj == rebuilt
    assert Graph(n, iter(edges)).adj == rebuilt   # any iterable of pairs
    with pytest.raises(ValueError, match="out of range"):
        Graph(n, edges + [(n, 0)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(n, edges + [(0, -1)])
    if n:
        with pytest.raises(ValueError, match="loop"):
            Graph(n, edges + [(n - 1, n - 1)])
    # the mask entry point checks each mask's range and loop bit
    masks = adjacency_masks(rebuilt)
    assert Graph.from_masks(masks).adj == rebuilt
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_masks(masks + [1 << (n + 1)])   # n + 1 masks, bit n + 1
    if n:
        v = data.draw(st.integers(0, n - 1))
        with pytest.raises(ValueError, match="loop"):
            Graph.from_masks(masks[:v] + [masks[v] | 1 << v] + masks[v + 1:])


@settings(max_examples=30, deadline=None)
@given(strong_digraphs(max_n=7))
def test_descendant_search_meets_exact_expansion_floor(D):
    # the long-cycle floor alpha*n/3 holds for every expander, hand-picked
    # or not; the internal set-size assertions double as the proof check
    alpha = expansion_exact(D).alpha_lower
    assert alpha > 0  # strong connectivity forces a positive ratio
    res = dfs_long_cycle(D, alpha=alpha)
    assert 3 * res.cycle.length * alpha.denominator >= alpha.numerator * D.n


@st.composite
def circulants_and_digraphs(draw, max_n=8):
    """A circulant (arcs x -> x+s mod n for s in a random connection set)
    or an arbitrary random digraph."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    if draw(st.booleans()):
        shifts = draw(st.sets(st.integers(min_value=1, max_value=max(1, n - 1))))
        return Digraph(n, [(x, (x + s) % n) for x in range(n) for s in shifts
                           if s % n])
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return Digraph(n, draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
                   if pairs else [])


@settings(max_examples=150, deadline=None)
@given(circulants_and_digraphs(),
       st.sampled_from((None, 1, 2, 3, 5, 8, 13, 30, 100)))
def test_family_by_search_matches_transitivity_verdict(D, budget):
    verdict = is_vertex_transitive(D, budget=budget)
    fam = automorphism_family_by_search(D, budget=budget)
    if verdict is UNKNOWN or verdict is False:
        assert fam is (UNKNOWN if verdict is UNKNOWN else None)
        return
    assert verdict is True and len(fam) == D.n
    for u, perm in enumerate(fam.permutations):
        assert perm[0] == u
        assert preserves_arc_set(D, perm)


@settings(max_examples=60, deadline=None)
@given(strong_digraphs(), st.integers(min_value=0, max_value=200))
def test_cycle_graph_matches_pairwise_intersection(D, cap):
    # a prefix of the listing keeps the all-pairs rebuild small on dense hosts
    cycles = [DirectedCycle(c) for c in dfs_cycles_in_order(D)[:cap]]
    sets = [c.vertex_set() for c in cycles]
    rows = tuple(tuple(j for j, other in enumerate(sets) if j != i and mine & other)
                 for i, mine in enumerate(sets))
    graph = build_cycle_graph(D, cycles).graph
    assert graph.adj == rows
    assert graph.masks == tuple(adjacency_masks(rows))


def test_stitching_survives_a_random_host_sweep():
    rng = random.Random(0)
    checked = 0
    for _ in range(60):
        n = rng.randint(4, 9)
        arcs = {(i, (i + 1) % n) for i in range(n)}
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                arcs.add((u, v))
        D = Digraph(n, arcs)
        cycles = complete_directed_cycles(D, max_count=3000)
        if cycles is None or len(cycles) > 400:
            continue
        cg = build_cycle_graph(D, cycles)
        found, exact = induced_cycles(cg.graph, min_len=4, budget=10 ** 6)
        if not exact:
            continue
        for seq in found:
            stitched = stitch_directed_cycle(D, cg, list(seq))
            assert stitched.length >= len(seq)
            checked += 1
    assert checked > 50  # the sweep must actually exercise the stitcher
