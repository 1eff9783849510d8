"""The one-BFS diameter of ``pipeline_n13`` against the all-pairs sweep it
replaces, and ``AutomorphismFamily.certifies``, which guards it."""

import logging

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vtcycles import groups
from vtcycles.automorphisms import automorphism_family_by_search
from vtcycles.cyclegraph import pipeline_n13
from vtcycles.digraph import Digraph
from vtcycles.gadgets import (complete_bidirected, directed_cycle_product,
                              toroidal_gadget)
from vtcycles.groups import (AutomorphismFamily, CayleySpec, cayley_digraph,
                             cyclic_group, dihedral_group, direct_product,
                             left_translations)

MAX_ORDER = 24
FACTORS = {"cyclic": (cyclic_group, 1), "dihedral": (dihedral_group, 2)}


@st.composite
def factor(draw, max_order):
    """A cyclic or dihedral group of order at most max_order (>= 1)."""
    kinds = [k for k, (_, scale) in FACTORS.items() if scale <= max_order]
    make, scale = FACTORS[draw(st.sampled_from(kinds))]
    return make(draw(st.integers(min_value=1, max_value=max_order // scale)))


@st.composite
def generated_cayley_specs(draw):
    """A cyclic, dihedral or direct-product group of order 2..24 and 1-3
    non-identity elements that generate it."""
    if draw(st.booleans()):
        g = draw(factor(MAX_ORDER))
    else:
        g1 = draw(factor(MAX_ORDER // 2))
        g = direct_product(g1, draw(factor(MAX_ORDER // g1.order)))
    assume(g.order >= 2)
    element = st.integers(min_value=0, max_value=g.order - 1).filter(
        lambda a: a != g.identity)
    gens = draw(st.lists(element, min_size=1, max_size=3, unique=True))
    try:
        return CayleySpec(g, tuple(gens))
    except ValueError:  # the drawn elements generate a proper subgroup
        assume(False)


@settings(max_examples=120, deadline=None)
@given(generated_cayley_specs())
def test_certified_eccentricity_matches_the_all_pairs_sweep(spec):
    D = cayley_digraph(spec)
    fam = left_translations(spec)
    assert fam.certifies(D)
    assert max(D.bfs_distances(0)) == D.directed_diameter()
    swept = AutomorphismFamily(fam.n, fam.permutations)
    assert not swept.certifies(D)
    assert pipeline_n13(D, fam, max_cycles=50) == \
        pipeline_n13(D, swept, max_cycles=50)


def test_search_families_certify_their_hosts():
    for D in (toroidal_gadget(1), directed_cycle_product(3, 3),
              complete_bidirected(5)):
        fam = automorphism_family_by_search(D)
        assert fam.generators
        assert fam.certifies(D)


def _z12_1_7():
    spec = CayleySpec(cyclic_group(12), (1, 7))
    return cayley_digraph(spec), left_translations(spec)


def test_family_without_generators_does_not_certify():
    D, fam = _z12_1_7()
    assert not AutomorphismFamily(fam.n, fam.permutations).certifies(D)


def test_family_of_another_order_does_not_certify():
    _, fam = _z12_1_7()
    other = cayley_digraph(CayleySpec(cyclic_group(13), (1, 7)))
    assert not fam.certifies(other)


def test_generator_that_breaks_an_arc_does_not_certify():
    D, fam = _z12_1_7()
    swap = (1, 0) + tuple(range(2, 12))
    assert not D.has_arc(swap[0], swap[1])  # the image of arc 0 -> 1
    # the rotation would reach every vertex; the swap spoils the certificate
    bad = AutomorphismFamily(12, fam.permutations, (fam.permutations[1], swap))
    assert not bad.certifies(D)


def test_generators_that_miss_vertices_do_not_certify():
    g = direct_product(cyclic_group(2), cyclic_group(4))
    D = cayley_digraph(CayleySpec(g, (4, 1)))  # (1,0) and (0,1): C2 x C4
    fam = left_translations(CayleySpec(g, (4, 1)))
    assert fam.certifies(D)
    only_01 = AutomorphismFamily(8, fam.permutations, (g.mult[1],))
    only_01.validate_digraph(D)  # (0,1) preserves D, but its orbit is C4
    assert not only_01.certifies(D)


def test_pipeline_logs_which_diameter_route_ran(caplog):
    D, fam = _z12_1_7()
    with caplog.at_level(logging.INFO, logger="vtc"):
        certified = pipeline_n13(D, fam)
        # Z12<1,7> takes the large branch, whose enumeration logs a line
        assert caplog.messages == [
            "pipeline_n13: diameter is the eccentricity of vertex 0 "
            "(2 certified generators)",
            "pipeline_n13: 96 cycles, complete"]
        caplog.clear()
        swept = pipeline_n13(D, None)
        assert caplog.messages == ["pipeline_n13: diameter by all-pairs sweep",
                                   "pipeline_n13: 96 cycles, complete"]
    assert certified == swept


def test_cayley_pipeline_certifies_its_host_once(monkeypatch):
    """``left_translations`` certifies Z2000<1,7> with one arc check, and
    building the host runs the one strong-connectivity check (two BFS);
    ``pipeline_n13`` then reuses both and adds only the BFS from vertex 0."""
    calls = {"_check_arcs": 0, "bfs_distances": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(groups, "_check_arcs",
                        counted("_check_arcs", groups._check_arcs))
    monkeypatch.setattr(Digraph, "bfs_distances",
                        counted("bfs_distances", Digraph.bfs_distances))
    spec = CayleySpec(cyclic_group(2000), (1, 7))
    fam = left_translations(spec)
    assert calls == {"_check_arcs": 1, "bfs_distances": 2}
    D = cayley_digraph(spec)
    assert D.is_strongly_connected() and fam.certifies(D)
    _, report = pipeline_n13(D, fam, max_cycles=1000)
    assert report["partial"] and report["result_length"] == 860
    assert calls == {"_check_arcs": 1, "bfs_distances": 3}


def test_certified_digraph_is_remembered_only_after_it_passes():
    D, fam = _z12_1_7()
    # the 12-cycle with one chord: translation by 1 does not preserve it
    other = Digraph(12, [(v, (v + 1) % 12) for v in range(12)] + [(0, 5)])
    for _ in range(2):
        assert not fam.certifies(other)
    for _ in range(2):
        assert fam.certifies(D)
    assert not fam.certifies(other)
