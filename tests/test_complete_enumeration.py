"""``complete_directed_cycles``, the package's one full cycle enumeration,
against the plain rooted DFS listing, the callers that need every cycle,
and their ``VTC_LOG`` lines; the walk of the cycles through vertex 0 of
a certified vertex-transitive host against it; and the orbit count of
those cycles that stops a capped walk on a certified Cayley host."""

import hashlib
import logging
import random
from collections import Counter
from fractions import Fraction
from itertools import islice
from math import gcd
from operator import eq

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vtcycles import cyclegraph, groups
from vtcycles.automorphisms import automorphism_family_by_search
from vtcycles.cyclegraph import (_circuits_through_0, _cycles_through_0,
                                 complete_directed_cycles,
                                 cycle_graph_diameter_check, pipeline_n13)
from vtcycles.digraph import Digraph
from vtcycles.gadgets import (cycle_digraph, directed_cycle_product,
                              four_cycle_chain, product_cayley_spec)
from vtcycles.groups import (AutomorphismFamily, CayleySpec, cayley_digraph,
                             cyclic_group, dihedral_group, left_translations)
from vtcycles.verify import (_arc_type_stream, product_pairs, stitch_hosts,
                             suite_divisibility)

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


@settings(max_examples=150, deadline=None)
@given(certified_cayley_specs())
@example(CayleySpec(cyclic_group(12), (1, 5)))   # 0, 1, ..., 11 is one cycle
def test_orbit_count_of_the_cycles_through_0_is_the_cycle_count(spec):
    D = cayley_digraph(spec)
    family = left_translations(spec)
    cycles = [c.vertices for c in complete_directed_cycles(D)]
    orbits = cyclegraph._OrbitCount(D, spec.group)
    for keep, path in cyclegraph._johnson(D, 1):
        total = orbits.add(keep, path)
    assert total == len(cycles)
    # the orbit count stops the walk past the cap, and changes no answer
    for cap in (0, len(cycles) // 2, len(cycles) - 1, len(cycles),
                len(cycles) + 1):
        capped = complete_directed_cycles(D, cap, family)
        if cap < len(cycles):
            assert capped is None
        else:
            assert [c.vertices for c in capped] == cycles


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="abc", min_size=1, max_size=12))
def test_least_rotation_of_a_primitive_word_is_the_least_of_all(text):
    word = text[:(text + text).find(text, 1)]
    rotations = [word[i:] + word[:i] for i in range(len(word))]
    assert cyclegraph._least_rotation(word, min(word)) == min(rotations)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="abc", min_size=1, max_size=8),
       st.integers(min_value=1, max_value=6))
def test_least_period_by_divisors_is_the_doubled_word_search(root, k):
    word = root * k
    period = cyclegraph._least_period(word, cyclegraph._divisors(len(word)))
    assert period == (word + word).find(word, 1)


@pytest.fixture
def no_orbit_count(monkeypatch):
    def refused(D, group):
        raise AssertionError("the orbit count ran")

    monkeypatch.setattr(cyclegraph, "_OrbitCount", refused)


def test_cycles_through_0_refuse_a_family_that_does_not_certify_the_host(
        no_orbit_count):
    D = four_cycle_chain(3)    # 12 vertices, not vertex-transitive
    rotations = left_translations(CayleySpec(cyclic_group(12), (1,)))
    assert not rotations.certifies(D)
    # here the root-0 census would read 20 cycles against the true 19,
    # and the orbit count of the labels v - u mod 12 would read 60
    at0 = Counter(len(path) for _, path in cyclegraph._johnson(D, 1))
    assert sum(Fraction(D.n * c0, L) for L, c0 in at0.items()) == 20
    cycles = complete_directed_cycles(D)
    assert len(cycles) == 19
    with pytest.raises(ValueError, match="certify"):
        _cycles_through_0(D, rotations)
    assert complete_directed_cycles(D, 18, rotations) is None
    assert complete_directed_cycles(D, 19, rotations) == cycles


def test_orbit_count_needs_the_translations_of_the_family_group(
        no_orbit_count):
    D = directed_cycle_product(2, 3)    # 11 cycles
    cycles = complete_directed_cycles(D)
    # the automorphism search keeps no group
    searched = automorphism_family_by_search(D)
    assert searched.group is None and searched.certifies(D)
    assert complete_directed_cycles(D, 11, searched) == cycles
    # generators that are translations of Z2 x Z3 certify D, but the
    # translations of Z6 they are paired with are not automorphisms of D:
    # its labels v - u mod 6 would count 27 cycles
    product = left_translations(product_cayley_spec(2, 3))
    paired = AutomorphismFamily(6, generators=product.generators,
                                group=cyclic_group(6))
    assert paired.certifies(D)
    assert complete_directed_cycles(D, 11, paired) == cycles


def test_orbit_count_logs_the_necklaces_that_proved_the_cap(caplog):
    # the first cycle through 0, (0, 1, ..., 7), has 2 translates: past 1
    spec = product_cayley_spec(2, 8)
    with caplog.at_level(logging.INFO, logger="vtc"):
        _, report = pipeline_n13(cayley_digraph(spec), left_translations(spec),
                                 max_cycles=1)
    assert report["partial"]
    assert caplog.messages == [
        "pipeline_n13: diameter is the eccentricity of vertex 0 "
        "(2 certified generators)",
        "complete_directed_cycles: more than 1 cycles by the orbits of "
        "1 necklaces through vertex 0, after 1 circuits",
        "pipeline_n13: more than 1 cycles; none built",
        "dfs_long_cycle: 5 extensions, 7 reach sets by fill over "
        "3 shift classes"]


def test_cycles_through_0_keep_the_exact_cap_on_certified_hosts():
    spec = product_cayley_spec(3, 7)    # 21 vertices
    D = cayley_digraph(spec)
    assert left_translations(spec).certifies(D)
    with pytest.raises(ValueError, match="n=21"):
        _cycles_through_0(D, left_translations(spec))


def _arc_type_counts(succ1, verts) -> tuple:
    """How many arcs u -> v of the closed vertex sequence have v =
    ``succ1[u]``, and how many do not, counted over the whole sequence."""
    t1 = sum(map(eq, map(succ1.__getitem__, verts), verts[1:] + verts[:1]))
    return t1, len(verts) - t1


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=5),
       st.integers(min_value=2, max_value=5))
@example(2, 2)   # its third circuit, (0, 2), shares only vertex 0: keep 1
def test_arc_types_from_the_shared_prefix_are_those_of_each_circuit(n1, n2):
    assume(n1 * n2 <= 16)
    D = directed_cycle_product(n1, n2)
    family = left_translations(product_cayley_spec(n1, n2))
    keeps = [keep for keep, _ in _circuits_through_0(D, family)]
    assert keeps[0] == 0 and 1 in keeps
    circuits = _cycles_through_0(D, family)
    # the (1,0)- and the (0,1)-successor of (a, b) = a*n2 + b
    for succ in ([(u + n2) % D.n for u in range(D.n)],
                 [u - u % n2 + (u + 1) % n2 for u in range(D.n)]):
        stream = list(_arc_type_stream(succ, _circuits_through_0(D, family)))
        assert stream == [(len(c), _arc_type_counts(succ, c)[0])
                          for c in circuits]


def test_circuits_through_0_check_the_host_before_the_walk():
    D = four_cycle_chain(3)
    rotations = left_translations(CayleySpec(cyclic_group(12), (1,)))
    with pytest.raises(ValueError, match="certify"):
        _circuits_through_0(D, rotations)   # raised without a next()
    spec = product_cayley_spec(3, 7)
    with pytest.raises(ValueError, match="n=21"):
        _circuits_through_0(cayley_digraph(spec), left_translations(spec))


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
