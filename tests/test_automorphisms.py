from vtcycles.automorphisms import (automorphism_family_by_search,
                                    find_automorphism, is_vertex_transitive,
                                    refine_colors)
from vtcycles.digraph import Digraph, UNKNOWN
from vtcycles.gadgets import (cycle_digraph, directed_cycle_product,
                              four_cycle_chain, toroidal_gadget)


def test_directed_cycles_are_transitive():
    for n in (2, 3, 5, 8):
        assert is_vertex_transitive(cycle_digraph(n)) is True


def test_path_digraph_is_not_transitive():
    path = Digraph(3, [(0, 1), (1, 2)])
    assert is_vertex_transitive(path) is False
    colors = refine_colors(path)
    assert len(set(colors)) > 1  # degree classes split immediately


def test_product_matches_translation_certificate():
    D = directed_cycle_product(2, 3)
    assert is_vertex_transitive(D) is True


def test_chain_gadget_is_not_transitive():
    assert is_vertex_transitive(four_cycle_chain(2)) is False


def test_toroidal_gadget_is_transitive():
    assert is_vertex_transitive(toroidal_gadget(1)) is True


def test_budget_exhaustion_returns_unknown():
    D = directed_cycle_product(3, 3)
    assert is_vertex_transitive(D, budget=1) is UNKNOWN


def test_find_automorphism_deeper_than_the_recursion_limit():
    image = find_automorphism(cycle_digraph(1100), 0, 1)
    assert image == [(v + 1) % 1100 for v in range(1100)]


def test_find_automorphism_respects_colors():
    path = Digraph(3, [(0, 1), (1, 2)])
    assert find_automorphism(path, 0, 1) is None
    rot = find_automorphism(cycle_digraph(5), 0, 2)
    assert rot == [2, 3, 4, 0, 1]


def test_family_by_search_is_validated():
    D = cycle_digraph(6)
    fam = automorphism_family_by_search(D)
    assert fam is not None and fam.is_transitive()
    assert automorphism_family_by_search(four_cycle_chain(2)) is None
