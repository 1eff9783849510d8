"""``Graph`` as the symmetric ``Digraph``, automorphism validation on it,
and the order of Johnson's cycle enumeration, each checked against a
definition the package does not share."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtcycles.cyclegraph import complete_directed_cycles
from vtcycles.digraph import Digraph, Graph, adjacency_masks
from vtcycles.groups import AutomorphismFamily

from _independent import dfs_cycles_in_order, preserves_edge_set


def _edge_lists(data, max_n):
    """n and a list of pairs u != v, with repeats and both orientations."""
    n = data.draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=40)) if pairs else []
    return n, edges


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_graph_agrees_with_the_digraph_of_both_orientations(data):
    n, edges = _edge_lists(data, 12)
    G = Graph(n, edges)
    D = Digraph(n, edges + [(v, u) for u, v in edges])
    assert isinstance(G, Digraph)
    assert G.out == G.inn == G.adj == D.out == D.inn
    assert all(G.has_edge(u, v) == D.has_arc(u, v)
               for u in range(n) for v in range(n))
    for s in range(n):
        assert G.bfs_distances(s) == D.bfs_distances(s)
        assert all(G.shortest_path(s, t) == D.shortest_path(s, t)
                   for t in range(n))
    assert G.is_strongly_connected() == D.is_strongly_connected()
    assert G.diameter() == D.directed_diameter()
    assert G.diameter_path() == D.diameter_path()
    assert G == D and hash(G) == hash(D)
    # the same graph handed over as the neighbor masks of its rows
    H = Graph.from_masks(adjacency_masks(D.out))
    assert H.masks == G.masks and H.adj == G.adj
    assert list(H.arcs()) == list(G.arcs()) and H.edge_count == G.edge_count
    assert H.is_strongly_connected() == G.is_strongly_connected()
    assert (H.diameter(), H.diameter_path()) == (G.diameter(), G.diameter_path())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_validation_on_a_graph_matches_the_edge_set_test(data):
    n, edges = _edge_lists(data, 7)
    perm = data.draw(st.permutations(range(n)))
    if data.draw(st.booleans()):
        # close the edges under perm, so that it preserves them
        closed = {frozenset(e) for e in edges}
        while True:
            images = {frozenset(perm[x] for x in e) for e in closed}
            if images <= closed:
                break
            closed |= images
        edges = [tuple(e) for e in closed]
    G = Graph(n, edges)
    fam = AutomorphismFamily(n, (perm,))
    if preserves_edge_set(n, edges, perm):
        fam.validate_digraph(G)
    else:
        with pytest.raises(ValueError, match="does not preserve arc"):
            fam.validate_digraph(G)


@st.composite
def digraphs(draw, max_n=8):
    """Arbitrary digraph on at most max_n vertices, not necessarily
    strongly connected."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return Digraph(n, arcs)


@settings(max_examples=150, deadline=None)
@given(digraphs(), st.integers(min_value=0, max_value=40))
def test_cycle_enumeration_order_matches_rooted_dfs(D, k):
    listed = dfs_cycles_in_order(D)
    assert [c.vertices for c in complete_directed_cycles(D)] == listed
    capped = complete_directed_cycles(D, k)
    if len(listed) > k:
        assert capped is None
    else:
        assert [c.vertices for c in capped] == listed
