import hashlib

from vtcycles.automorphisms import (automorphism_family_by_search,
                                    find_automorphism, is_vertex_transitive,
                                    refine_colors)
from vtcycles.digraph import Digraph, UNKNOWN
from vtcycles.gadgets import (complete_bidirected, cycle_digraph,
                              directed_cycle_product, four_cycle_chain,
                              toroidal_gadget)
from vtcycles.groups import (CayleySpec, cayley_digraph, cyclic_group,
                             dihedral_group)


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


# is_vertex_transitive verdicts recorded before the search and the Cayley
# certificate shared one orbit closure: one letter per budget in BUDGETS,
# T(rue), F(alse) or U(NKNOWN).
BUDGETS = (None, 1, 2, 3, 5, 8, 13, 30, 100)
RECORDED_VERDICTS = {
    "C2": "TUTTTTTTT",
    "C3": "TUUUTTTTT",
    "C5": "TUUUUTTTT",
    "C8": "TUUUUUUTT",
    "C3xC3": "TUUUUUUUT",
    "C2xC4": "TUUUUUUUT",
    "C3xC4": "TUUUUUUUT",
    "toroidal(1)": "TUUUUUUUU",
    "toroidal(2)": "TUUUUUUUU",
    "chain(2)": "FUUUUUUFF",
    "K5": "TUUUUUUTT",
    "D5<r,s>": "TUUUUUUUT",
    "Z12<2,3>": "TUUUUUUUT",
}


def _recorded_hosts():
    return {
        "C2": cycle_digraph(2), "C3": cycle_digraph(3),
        "C5": cycle_digraph(5), "C8": cycle_digraph(8),
        "C3xC3": directed_cycle_product(3, 3),
        "C2xC4": directed_cycle_product(2, 4),
        "C3xC4": directed_cycle_product(3, 4),
        "toroidal(1)": toroidal_gadget(1), "toroidal(2)": toroidal_gadget(2),
        "chain(2)": four_cycle_chain(2), "K5": complete_bidirected(5),
        "D5<r,s>": cayley_digraph(CayleySpec(dihedral_group(5), (1, 5))),
        "Z12<2,3>": cayley_digraph(CayleySpec(cyclic_group(12), (2, 3))),
    }


def _letter(verdict):
    return "U" if verdict is UNKNOWN else ("T" if verdict else "F")


def test_transitivity_verdicts_match_recorded_table():
    for name, D in _recorded_hosts().items():
        got = "".join(_letter(is_vertex_transitive(D, budget=b))
                      for b in BUDGETS)
        assert got == RECORDED_VERDICTS[name], name


def test_family_by_search_is_unknown_exactly_where_the_verdict_is():
    D = directed_cycle_product(3, 3)
    assert automorphism_family_by_search(D, budget=30) is UNKNOWN
    fam = automorphism_family_by_search(D, budget=100)
    assert fam is not UNKNOWN and fam.is_transitive()
    assert [p[0] for p in fam.permutations] == list(range(D.n))


# sha256 of repr(automorphism_family_by_search(D, budget).permutations) at
# budgets None and 100, recorded while the search closed its orbit again
# after every generator it found.
RECORDED_FAMILIES = {
    "C3xC4": ("16f63672c1282e23a82f12165ca4caadc308195be475961347cdbd4f614dac66",
              "16f63672c1282e23a82f12165ca4caadc308195be475961347cdbd4f614dac66"),
    "toroidal(2)": ("f4e1875bb035600baddffdba6e79b3e8428b6f20fcb45ac79114c2417980f650",
                    "UNKNOWN"),
    "K5": ("d80f3ef656904acdf5f35d47ca7d8670def97dc396823aba8e135a6d49b0c0b6",
           "d80f3ef656904acdf5f35d47ca7d8670def97dc396823aba8e135a6d49b0c0b6"),
    "C12xC12": ("3afa7a6c00120c9ae2d2f689e2aef0f0b564a85018b5259b7b413932ef30de06",
                "UNKNOWN"),
    "D5<r,s>": ("2cdd5a9027f9cbac3ffc9545c2bece85b5196554f35c97ab1554787b131fe1c2",
                "2cdd5a9027f9cbac3ffc9545c2bece85b5196554f35c97ab1554787b131fe1c2"),
    "Z12<2,3>": ("1b99427c98027f981e00b83b90a565e76a6f15c796f3314111c741782aac4057",
                 "1b99427c98027f981e00b83b90a565e76a6f15c796f3314111c741782aac4057"),
}


def test_family_by_search_members_match_recorded_digests():
    hosts = _recorded_hosts()
    hosts["C12xC12"] = directed_cycle_product(12, 12)
    for name, recorded in RECORDED_FAMILIES.items():
        got = []
        for budget in (None, 100):
            fam = automorphism_family_by_search(hosts[name], budget)
            got.append("UNKNOWN" if fam is UNKNOWN else hashlib.sha256(
                repr(fam.permutations).encode()).hexdigest())
        assert tuple(got) == recorded, name
