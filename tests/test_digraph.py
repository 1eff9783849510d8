import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtcycles.digraph import (EXACT_DEFAULT_MAX, Budget, Digraph, INF,
                              cartesian_product, directed_cycle,
                              directed_path, read_edge_list, to_dot,
                              write_edge_list)
from vtcycles.gadgets import complete_bidirected, cycle_digraph

from _independent import naive_diameter


def digon():
    return Digraph(2, [(0, 1), (1, 0)])


def triangle():
    return Digraph(3, [(0, 1), (1, 2), (2, 0)])


def test_budget_over_n_items_is_uncapped_only_up_to_the_exact_cap():
    assert EXACT_DEFAULT_MAX == 20
    assert Budget.over(20).cap is None
    assert Budget.over(21, 5).cap == 5
    with pytest.raises(ValueError, match="n=21 needs an explicit budget"):
        Budget.over(21)


def test_build_digon_and_triangle():
    d = digon()
    assert d.n == 2 and d.arc_count == 2
    t = triangle()
    assert t.out == ((1,), (2,), (0,))
    assert t.inn == ((2,), (0,), (1,))


def test_build_rejects_self_loop_and_range():
    with pytest.raises(ValueError, match="self-loop"):
        Digraph(1, [(0, 0)])
    with pytest.raises(ValueError, match="out of range"):
        Digraph(2, [(0, 5)])


def test_build_deduplicates():
    d = Digraph(3, [(0, 1), (0, 1), (1, 0)])
    assert d.arc_count == 2


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=30))))
def test_build_matches_the_sorted_arc_set(case):
    n, arcs = case
    bad = next(((u, v) for u, v in arcs
                if not (0 <= u < n and 0 <= v < n) or u == v), None)
    if bad is not None:
        u, v = bad
        message = (f"self-loop at vertex {u}" if 0 <= u < n and u == v
                   else f"arc ({u},{v}) out of range for n={n}")
        with pytest.raises(ValueError) as err:
            Digraph(n, arcs)
        assert str(err.value) == message
        return
    unique = sorted(set(arcs))
    D = Digraph(n, arcs + arcs[::2])   # with repeats
    assert D.out == tuple(tuple(v for a, v in unique if a == u)
                          for u in range(n))
    assert D.inn == tuple(tuple(u for u, b in unique if b == v)
                          for v in range(n))


def test_neighborhoods_triangle():
    t = triangle()
    assert t.out_neighborhood({0}) == {1}
    assert t.in_neighborhood({0}) == {2}


def test_neighborhood_of_everything_is_empty():
    t = triangle()
    assert t.out_neighborhood({0, 1, 2}) == frozenset()


def test_neighborhood_c6_quarter_ratio():
    c6 = cycle_digraph(6)
    U = {0, 1, 2, 3}
    assert c6.out_neighborhood(U) == {4}
    assert c6.in_neighborhood(U) == {5}


def test_neighborhood_rejects_out_of_range():
    with pytest.raises(ValueError):
        triangle().out_neighborhood({7})


def test_bfs_cn_distances():
    c5 = cycle_digraph(5)
    assert c5.bfs_distances(0) == [0, 1, 2, 3, 4]


def test_bfs_digon_and_disjoint_triangles():
    assert digon().bfs_distances(0) == [0, 1]
    two = Digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    dist = two.bfs_distances(0)
    assert dist[3] == INF and dist[4] == INF and dist[5] == INF


def test_diameter_cycle_and_complete():
    assert cycle_digraph(7).directed_diameter() == 6
    assert complete_bidirected(5).directed_diameter() == 1


def test_diameter_c4_product_c4_against_naive_bfs():
    D = cartesian_product(cycle_digraph(4), cycle_digraph(4))
    assert naive_diameter(D) == 6
    assert D.directed_diameter() == 6


def test_strong_connectivity_and_regularity():
    assert cycle_digraph(4).is_strongly_connected()
    assert cycle_digraph(4).regularity() == 1
    path = Digraph(3, [(0, 1), (1, 2)])
    assert not path.is_strongly_connected()
    assert path.regularity() is None


def test_diameter_infinite_iff_not_strongly_connected():
    path = Digraph(3, [(0, 1), (1, 2)])
    assert path.directed_diameter() == INF


def test_product_c2_c2():
    D = cartesian_product(cycle_digraph(2), cycle_digraph(2))
    assert D.n == 4 and D.arc_count == 8
    assert D.regularity() == 2
    # (0,0)->(1,0)->(1,1)->(0,1)->(0,0) under the flattening a*2+b
    directed_cycle(D, [0, 2, 3, 1])


def test_product_arc_count_formula():
    D1, D2 = cycle_digraph(3), cycle_digraph(5)
    D = cartesian_product(D1, D2)
    assert D.arc_count == D1.n * D2.arc_count + D2.n * D1.arc_count


def test_product_c2_c3_degrees():
    D = cartesian_product(cycle_digraph(2), cycle_digraph(3))
    assert all(len(D.out[v]) == 2 for v in range(6))


def test_underlying_graph():
    assert digon().underlying_graph().edge_count == 1
    tri = triangle().underlying_graph()
    assert tri.edge_count == 3
    D = cartesian_product(cycle_digraph(2), cycle_digraph(3))
    assert D.underlying_graph().edge_count == 9


def test_edge_list_roundtrip():
    D = cartesian_product(cycle_digraph(2), cycle_digraph(3))
    assert read_edge_list(write_edge_list(D)) == D


def test_edge_list_comments_and_errors():
    D = read_edge_list("# comment\n2 2\n0 1\n1 0\n")
    assert D == digon()
    with pytest.raises(ValueError, match="expected two integers"):
        read_edge_list("2 1\n0 1 2\n")
    with pytest.raises(ValueError, match="declares"):
        read_edge_list("2 2\n0 1\n")
    with pytest.raises(ValueError, match="header"):
        read_edge_list("# nothing here\n")


def test_dot_collapses_digons():
    text = to_dot(digon())
    assert "0 -> 1 [dir=both];" in text
    text = to_dot(triangle())
    assert "0 -> 1;" in text and "2 -> 0;" in text


def test_path_and_cycle_validation():
    t = triangle()
    assert directed_path(t, [0, 1, 2]).length == 2
    assert directed_cycle(t, [1, 2, 0]).vertices == (0, 1, 2)
    with pytest.raises(ValueError, match="not an arc"):
        directed_path(t, [0, 2])
    with pytest.raises(ValueError, match="repeats"):
        directed_path(t, [0, 1, 2, 0])
    with pytest.raises(ValueError, match="at least 2"):
        directed_cycle(t, [0])


# --- property tests ---------------------------------------------------------

@st.composite
def digraphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return Digraph(n, arcs)


@given(digraphs())
def test_transpose_consistency(D):
    for u in range(D.n):
        for v in D.out[u]:
            assert u in D.inn[v]
    for v in range(D.n):
        for u in D.inn[v]:
            assert D.has_arc(u, v)


@given(digraphs(), st.data())
def test_external_neighborhood_disjoint_and_bounded(D, data):
    members = data.draw(st.sets(st.integers(min_value=0, max_value=D.n - 1)))
    np = D.out_neighborhood(members)
    nm = D.in_neighborhood(members)
    assert not (np & set(members)) and not (nm & set(members))
    assert len(np) + len(members) <= D.n


@given(digraphs())
def test_diameter_finite_iff_strongly_connected(D):
    assert (D.directed_diameter() != INF) == D.is_strongly_connected()


@settings(max_examples=40)
@given(digraphs(max_n=5), digraphs(max_n=5))
def test_product_commutes_up_to_relabeling(D1, D2):
    P = cartesian_product(D1, D2)
    Q = cartesian_product(D2, D1)
    # (u1,u2) -> (u2,u1): index u1*n2+u2 maps to u2*n1+u1
    remap = lambda i: (i % D2.n) * D1.n + (i // D2.n)
    assert {(remap(u), remap(v)) for u, v in P.arcs()} == set(Q.arcs())


@settings(max_examples=20)
@given(digraphs(max_n=4), digraphs(max_n=4), digraphs(max_n=4))
def test_product_associates_up_to_relabeling(D1, D2, D3):
    left = cartesian_product(cartesian_product(D1, D2), D3)
    right = cartesian_product(D1, cartesian_product(D2, D3))
    # both flatten ((u1,u2),u3) and (u1,(u2,u3)) to u1*n2*n3 + u2*n3 + u3
    assert left == right
