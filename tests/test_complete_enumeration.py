"""``complete_directed_cycles``, the package's one full cycle enumeration,
against the plain rooted DFS listing, the callers that need every cycle,
and their ``VTC_LOG`` lines; and the walk of the cycles through vertex 0
of a certified vertex-transitive host against it."""

import hashlib
import logging
import random
from collections import Counter
from fractions import Fraction
from itertools import islice
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vtcycles import cyclegraph, groups
from vtcycles.cyclegraph import (_cycles_through_0, complete_directed_cycles,
                                 cycle_graph_diameter_check, pipeline_n13)
from vtcycles.digraph import Digraph
from vtcycles.gadgets import (cycle_digraph, directed_cycle_product,
                              four_cycle_chain, product_cayley_spec)
from vtcycles.groups import (CayleySpec, cayley_digraph, cyclic_group,
                             dihedral_group, left_translations)
from vtcycles.verify import product_pairs, stitch_hosts, suite_divisibility

from _independent import dfs_cycles_in_order


@st.composite
def digraphs(draw, max_n=8):
    """An arbitrary digraph on at most max_n vertices, and whether it was
    drawn with cycles through at least two roots (least vertices of a
    cycle): then a digon on each of two drawn roots joins the random arcs."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    two_roots = n >= 3 and draw(st.booleans())
    if two_roots:
        first = draw(st.integers(min_value=0, max_value=n - 3))
        second = draw(st.integers(min_value=first + 1, max_value=n - 2))
        for root in (first, second):
            arcs += [(root, n - 1), (n - 1, root)]
    return Digraph(n, arcs), two_roots


@settings(max_examples=300, deadline=None)
@given(digraphs(), st.none() | st.integers(min_value=0, max_value=40))
def test_complete_cycles_match_rooted_dfs_or_are_none(drawn, k):
    D, two_roots = drawn
    listed = dfs_cycles_in_order(D)
    if two_roots:
        assert len({c[0] for c in listed}) >= 2
    cycles = complete_directed_cycles(D, k)
    if k is not None and len(listed) > k:
        assert cycles is None
    else:
        assert [c.vertices for c in cycles] == listed


def _random_digraph(rng):
    """1 to 12 vertices, each arc present with one drawn chance below 1/2."""
    n = rng.randint(1, 12)
    p = rng.random() / 2
    return Digraph(n, [(u, v) for u in range(n) for v in range(n)
                       if u != v and rng.random() < p])


def test_johnson_yields_match_recorded_digest():
    """Every (closed, path) yield of the walk, up to 5000 per host, on 300
    seeded random digraphs, the products of order at most 20 and the
    stitch hosts, pinned by one SHA-256: which vertices a root resets
    must not change what its walk yields."""
    hosts = [_random_digraph(random.Random(seed)) for seed in range(300)]
    hosts += [directed_cycle_product(a, b) for a, b in product_pairs(20)]
    hosts += [D for _, D in stitch_hosts()]
    digest = hashlib.sha256()
    for D in hosts:
        for closed, path in islice(cyclegraph._johnson(D), 5000):
            digest.update(f"{closed} {path}\n".encode())
    assert digest.hexdigest() == (
        "adeff52b81c80ed92cafa3b9d498184456d2b6c7c938a6b9188a7a3e4c28937b")


def test_complete_cycles_of_a_deep_cycle():
    # the one cycle closes 3000 vertices deep; cap 0 is already exceeded
    cycles = complete_directed_cycles(cycle_digraph(3000), 1)
    assert [c.vertices for c in cycles] == [tuple(range(3000))]
    assert complete_directed_cycles(cycle_digraph(3000), 0) is None


def test_complete_cycles_record_vertices_past_two_bytes():
    # both digons close at root 0, so cap 1 records (0, 65536) before the
    # second one stops the walk
    D = Digraph(65538, [(0, 65536), (65536, 0), (0, 65537), (65537, 0)])
    assert complete_directed_cycles(D, 1) is None


def test_complete_cycles_share_one_int_per_vertex():
    # the 300-cycle and the chord's 150-cycle share vertices 150..299
    D = Digraph(300, [(v, (v + 1) % 300) for v in range(300)] + [(299, 150)])
    cycles = complete_directed_cycles(D, 2)
    assert [c.vertices for c in cycles] == [tuple(range(300)),
                                            tuple(range(150, 300))]
    assert len({id(v) for c in cycles for v in c.vertices if v == 260}) == 1


def test_complete_cycles_build_no_cycle_past_the_cap(monkeypatch):
    built = []
    build = cyclegraph.DirectedCycle

    def counting(vertices):
        built.append(vertices)
        return build(vertices)

    monkeypatch.setattr(cyclegraph, "DirectedCycle", counting)
    D = directed_cycle_product(2, 3)    # 11 cycles
    assert complete_directed_cycles(D, 10) is None
    assert built == []
    assert len(complete_directed_cycles(D, 11)) == 11
    assert len(built) == 11


def test_pipeline_without_a_cycle_cap():
    # n = 12 enumerates under the unbounded guard; n = 25 is refused by it
    # and falls back to the descendant search, flagged partial
    _, small = pipeline_n13(cycle_digraph(12), max_cycles=None)
    assert small == {
        "n": 12, "directed_diameter": 11, "branch": "large",
        "branch_test": "11^3 > 12^2", "partial": False, "cycle_count": 1,
        "circumference": 12, "cycle_graph_diameter": 0,
        "induced_mode": "oracle", "induced_available": False,
        "result_length": 12, "floor_constant": "1/9"}
    _, large = pipeline_n13(cycle_digraph(25), max_cycles=None)
    assert large == {
        "n": 25, "directed_diameter": 24, "branch": "large",
        "branch_test": "24^3 > 25^2", "partial": True,
        "dfs_cycle_length": 25, "result_length": 25, "floor_constant": "1/9"}


def test_pipeline_logs_whether_its_enumeration_completed(caplog):
    sweep = "pipeline_n13: diameter by all-pairs sweep"
    with caplog.at_level(logging.INFO, logger="vtc"):
        pipeline_n13(cycle_digraph(12), max_cycles=None)
        assert caplog.messages == [sweep, "pipeline_n13: 1 cycles, complete"]
        caplog.clear()
        _, report = pipeline_n13(directed_cycle_product(2, 8), max_cycles=1)
        assert report["partial"]
        assert caplog.messages == [
            sweep, "pipeline_n13: more than 1 cycles; none built",
            "dfs_long_cycle: 5 extensions, 7 reach sets by fill over "
            "3 shift classes"]
        caplog.clear()
        pipeline_n13(cycle_digraph(25), max_cycles=None)
        assert caplog.messages == [
            sweep, "pipeline_n13: unbounded enumeration is capped at n=20; "
            "pass max_count; none built",
            "dfs_long_cycle: 8 extensions, 9 reach sets by fill over "
            "1 shift classes"]


def test_cycle_graph_check_logs_whether_its_enumeration_completed(caplog):
    with caplog.at_level(logging.INFO, logger="vtc"):
        assert cycle_graph_diameter_check(cycle_digraph(5))["complete"]
        assert caplog.messages == [
            "cycle_graph_diameter_check: 1 cycles, complete"]
        caplog.clear()
        report = cycle_graph_diameter_check(directed_cycle_product(2, 8),
                                            max_count=1)
        assert report == {"complete": False, "verdict": "UNKNOWN"}
        assert caplog.messages == [
            "cycle_graph_diameter_check: more than 1 cycles; none built"]


@st.composite
def certified_cayley_specs(draw, max_n=16):
    """A Cayley spec on at most max_n elements: a cyclic group with one to
    three generators, a product of two cycles, or a dihedral group with two
    generators."""
    kind = draw(st.sampled_from(("cyclic", "product", "dihedral")))
    if kind == "product":
        n1 = draw(st.integers(2, max_n // 2))
        return product_cayley_spec(n1, draw(st.integers(2, max_n // n1)))
    if kind == "cyclic":
        n = draw(st.integers(2, max_n))
        gens = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=3,
                             unique=True))
        assume(gcd(n, *gens) == 1)
        return CayleySpec(cyclic_group(n), tuple(gens))
    m = draw(st.integers(2, max_n // 2))
    gens = draw(st.lists(st.integers(1, 2 * m - 1), min_size=2, max_size=2,
                         unique=True))
    try:
        return CayleySpec(dihedral_group(m), tuple(gens))
    except ValueError:   # the two do not generate D_m
        assume(False)


@settings(max_examples=120, deadline=None)
@given(certified_cayley_specs())
def test_cycles_through_0_give_the_circumference_and_every_count(spec):
    D = cayley_digraph(spec)
    through0 = _cycles_through_0(D, left_translations(spec))
    cycles = complete_directed_cycles(D)
    # canonical rotations start at their least vertex
    assert through0 == [c.vertices for c in cycles if c.vertices[0] == 0]
    at0 = Counter(map(len, through0))
    full = Counter(c.length for c in cycles)
    assert max(at0) == max(full)
    assert {L: Fraction(D.n * c0, L) for L, c0 in at0.items()} == full


def test_cycles_through_0_refuse_a_family_that_does_not_certify_the_host():
    D = four_cycle_chain(3)    # 12 vertices, not vertex-transitive
    rotations = left_translations(CayleySpec(cyclic_group(12), (1,)))
    assert not rotations.certifies(D)
    # here the root-0 census would read 20 cycles against the true 19
    at0 = Counter(len(path) for _, path in cyclegraph._johnson(D, 1))
    assert sum(Fraction(D.n * c0, L) for L, c0 in at0.items()) == 20
    assert len(complete_directed_cycles(D)) == 19
    with pytest.raises(ValueError, match="certify"):
        _cycles_through_0(D, rotations)


def test_cycles_through_0_keep_the_exact_cap_on_certified_hosts():
    spec = product_cayley_spec(3, 7)    # 21 vertices
    D = cayley_digraph(spec)
    assert left_translations(spec).certifies(D)
    with pytest.raises(ValueError, match="n=21"):
        _cycles_through_0(D, left_translations(spec))


def test_divisibility_certifies_each_product_once(monkeypatch):
    # one arc check per product, on the digraph the walk runs on
    hosts = []
    check_arcs = groups._check_arcs

    def counting(D, maps):
        hosts.append(D.n)
        check_arcs(D, maps)

    monkeypatch.setattr(groups, "_check_arcs", counting)
    assert suite_divisibility(12).ok
    assert hosts == [n1 * n2 for n1, n2 in product_pairs(12)]
