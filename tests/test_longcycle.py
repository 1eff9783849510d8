import hashlib
import json
import logging
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtcycles.digraph import Digraph
from vtcycles.gadgets import (complete_bidirected, cycle_digraph,
                              directed_cycle_product, product_cayley_spec,
                              toroidal_cayley_spec, toroidal_gadget)
from vtcycles.groups import (AutomorphismFamily, CayleySpec, cayley_digraph,
                             cyclic_group, left_translations)
from vtcycles.longcycle import (ExpansionReport, dfs_long_cycle,
                                expansion_check_transitive_bound,
                                expansion_exact, expansion_sampled, long_path)
from vtcycles.oracles import brute_longest_path
from vtcycles.verify import small_cayley_corpus

from _independent import subset_expansion_minimum
from test_complete_enumeration import certified_cayley_specs


def test_expansion_complete_bidirected_k6():
    rep = expansion_exact(complete_bidirected(6))
    assert rep.exact
    assert rep.alpha_lower == Fraction(1, 2)
    assert rep.witness_set == {0, 1, 2, 3}  # ratio (6-4)/4


def test_expansion_directed_c6():
    rep = expansion_exact(cycle_digraph(6))
    assert rep.alpha_lower == Fraction(1, 4)
    assert rep.witness_set == {0, 1, 2, 3}


def test_expansion_digon():
    rep = expansion_exact(cycle_digraph(2))
    assert rep.alpha_lower == Fraction(1, 1)


def test_expansion_refuses_large_instances():
    with pytest.raises(ValueError, match="capped"):
        expansion_exact(complete_bidirected(21))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=10),
       st.sampled_from((0.0, 0.05, 0.15, 0.3, 0.5, 0.7, 0.9, 1.0)),
       st.randoms(use_true_random=False))
def test_expansion_matches_subset_oracle(n, density, rng):
    """The whole report, witness included, against the frozenset oracle.
    Empty, sparse and complete digraphs are where many subsets tie."""
    arcs = [(u, v) for u in range(n) for v in range(n)
            if u != v and rng.random() < density]
    D = Digraph(n, arcs)
    alpha, witness = subset_expansion_minimum(D)
    rep = expansion_exact(D)
    assert (rep.alpha_lower, rep.witness_set) == (alpha, witness)


@settings(max_examples=80, deadline=None)
@given(certified_cayley_specs(max_n=12))
def test_certified_expansion_matches_subset_oracle(spec):
    """The scan of the subsets through vertex 0 that the left translations
    allow gives the whole report of the scan of every subset."""
    D = cayley_digraph(spec)
    rep = expansion_exact(D, left_translations(spec))
    assert (rep.alpha_lower, rep.witness_set) == subset_expansion_minimum(D)


def test_certified_expansion_keeps_the_cap():
    spec = CayleySpec(cyclic_group(21), (1,))
    with pytest.raises(ValueError, match="capped"):
        expansion_exact(cayley_digraph(spec), left_translations(spec))


def test_expansion_ignores_a_family_that_does_not_certify():
    """Bidirected star with centre 0: every minimizer is a set of leaves,
    so a scan of the subsets through 0 would be wrong.  Neither family
    certifies it: the rotation of Z7 moves arcs, and the leaf rotation
    keeps them but fixes 0."""
    star = Digraph(7, [(0, v) for v in range(1, 7)]
                   + [(v, 0) for v in range(1, 7)])
    rotations = left_translations(CayleySpec(cyclic_group(7), (1,)))
    leaf_turn = AutomorphismFamily(7, generators=[(0, 2, 3, 4, 5, 6, 1)])
    expected = ExpansionReport(Fraction(1, 4), frozenset({1, 2, 3, 4}), True)
    assert subset_expansion_minimum(star) == (expected.alpha_lower,
                                              expected.witness_set)
    assert expansion_exact(star) == expected
    for family in (rotations, leaf_turn):
        assert not family.certifies(star)
        assert expansion_exact(star, family) == expected


@pytest.mark.parametrize("D, alpha, witness", [
    (Digraph(20, []), Fraction(0), {0}),
    (complete_bidirected(20), Fraction(7, 13), set(range(13))),
], ids=["empty20", "complete20"])
def test_expansion_at_the_cap_is_exact_and_small(D, alpha, witness):
    """n = 20: every subset ties on the empty digraph, and on K20 the best
    size is the largest allowed one.  The scan holds a few 2^20-bit lanes,
    not tables with 2^20 entries."""
    tracemalloc.start()
    try:
        rep = expansion_exact(D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep == ExpansionReport(alpha, frozenset(witness), True)
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_sampled_expansion_upper_bounds_exact():
    D = directed_cycle_product(2, 4)
    exact = expansion_exact(D).alpha_lower
    sampled = expansion_sampled(D, seed=0).alpha_lower
    assert sampled >= exact
    assert not expansion_sampled(D).exact
    # same seed, same certificate
    again = expansion_sampled(D, seed=0)
    assert again.alpha_lower == sampled
    assert expansion_sampled(D, seed=0).witness_set == again.witness_set


def test_transitive_bound_holds_on_certified_inputs():
    # 1/4 >= 1/15 for the directed 6-cycle
    assert expansion_check_transitive_bound(cycle_digraph(6))
    assert expansion_check_transitive_bound(directed_cycle_product(2, 3))


def test_transitive_bound_can_fail_without_transitivity():
    # bidirected star on 13 vertices: diameter 2, but an 8-leaf set has
    # boundary ratio 1/8 < 1/6
    star = Digraph(13, [(0, v) for v in range(1, 13)]
                   + [(v, 0) for v in range(1, 13)])
    assert not expansion_check_transitive_bound(star)


def test_dfs_long_cycle_on_directed_cycle_returns_everything():
    for n in (2, 3, 5, 9, 12):
        res = dfs_long_cycle(cycle_digraph(n))
        assert res.cycle.length == n


def test_dfs_long_cycle_meets_guarantee_on_k9():
    res = dfs_long_cycle(complete_bidirected(9), alpha=Fraction(1, 2))
    assert res.guarantee == Fraction(3, 2)
    assert res.cycle.length >= 2  # ceil of the guarantee


def test_dfs_long_cycle_c3xc3_with_exact_alpha():
    D = directed_cycle_product(3, 3)
    alpha = expansion_exact(D).alpha_lower
    res = dfs_long_cycle(D, alpha=alpha)
    floor = -(-alpha.numerator * D.n // (3 * alpha.denominator))
    assert res.cycle.length >= floor


def test_dfs_long_cycle_requires_strong_connectivity():
    with pytest.raises(ValueError, match="strongly connected"):
        dfs_long_cycle(Digraph(3, [(0, 1), (1, 2)]))


def test_dfs_long_cycle_runs_clean_on_corpus():
    # internal set-size assertions raise on violation, so finishing is the test
    for _name, spec in small_cayley_corpus():
        D = cayley_digraph(spec)
        res = dfs_long_cycle(D, alpha=Fraction(1, 3 * D.directed_diameter()))
        assert res.meets_guarantee()


@pytest.mark.parametrize("spec, length, steps, digest", [
    (CayleySpec(cyclic_group(500), (1, 7)), 218, 166,
     "cede30a59fc2c24d0503e8155c41df581e0c07f3240e2c98bd0e86d490f8d97a"),
    (product_cayley_spec(12, 12), 60, 48,
     "047593a2f7aee06b976aa32abf24d842f58c9300121c4f9a7aa24bdb0ec2b0eb"),
    (toroidal_cayley_spec(10), 58, 28,
     "d68953005501f692928b87fa55275b99fd0e9885550465dd5c6a5aaea7d2d259"),
], ids=["Z500<1,7>", "C12xC12", "toroidal(10)"])
def test_dfs_long_cycle_on_cayley_hosts_matches_recorded_digests(spec, length,
                                                                 steps, digest):
    """The cycle and every extension choice, pinned by the SHA-256 of
    their JSON, so that no change to the BFS kernel can move them."""
    res = dfs_long_cycle(cayley_digraph(spec))
    text = json.dumps({"cycle": list(res.cycle.vertices), "trace": list(res.trace)},
                      sort_keys=True)
    assert (res.cycle.length, len(res.trace) - 1) == (length, steps)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _random_strong_digraph(rng):
    """3 to 40 vertices: a Hamilton cycle through a shuffled vertex order
    plus up to 3n random arcs."""
    n = rng.randint(3, 40)
    order = list(range(n))
    rng.shuffle(order)
    arcs = {(order[i - 1], order[i]) for i in range(n)}
    for _ in range(rng.randint(0, 3 * n)):
        arcs.add(tuple(rng.sample(range(n), 2)))
    return Digraph(n, arcs)


def test_dfs_long_cycle_on_random_strong_digraphs_matches_recorded_digest():
    """The cycle and trace on 200 seeded random hosts, pinned by one
    SHA-256, so that the stop step's descendant sets, taken from the last
    round of extension tests, can never drift from a fresh BFS."""
    digest = hashlib.sha256()
    for seed in range(200):
        res = dfs_long_cycle(_random_strong_digraph(random.Random(seed)))
        digest.update(json.dumps({"cycle": list(res.cycle.vertices),
                                  "trace": list(res.trace)},
                                 sort_keys=True).encode())
    assert digest.hexdigest() == (
        "1f0dc6eb676c8c7c9cfcc9329145232161096b5c3eac12c10b547a0d2fe1f5c6")


def test_dfs_long_cycle_logs_its_bfs_work(caplog):
    """C6 x C6 has three shift classes: offsets 1 and 6, and -5 where the
    second coordinate wraps.  The complete digraph on 4 vertices has three
    classes of 4 vertices, too many to fill by."""
    with caplog.at_level(logging.INFO, logger="vtc"):
        res = dfs_long_cycle(cayley_digraph(product_cayley_spec(6, 6)))
        dfs_long_cycle(complete_bidirected(4))
    assert len(res.trace) - 1 == 12
    assert caplog.messages == [
        "dfs_long_cycle: 12 extensions, 14 reach sets by fill over "
        "3 shift classes",
        "dfs_long_cycle: 1 extensions, 3 reach sets by bitset BFS"]


def test_long_path_on_directed_cycle():
    path = long_path(cycle_digraph(8), certified_transitive=True)
    assert path.length == 7


def test_long_path_c4xc4_reaches_diameter():
    D = directed_cycle_product(4, 4)
    path = long_path(D, certified_transitive=True)
    assert path.length >= 6  # the directed diameter
    assert path.length >= 1  # floor(sqrt(16)/3)


def test_long_path_toroidal_cross_checked():
    D = toroidal_gadget(1)
    path = long_path(D, certified_transitive=True)
    exact = brute_longest_path(D).best.length
    assert path.length <= exact
    assert path.length >= 1


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.data())
def test_dfs_long_cycle_valid_on_random_strong_digraphs(n, data):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    extra = data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    ring = [(i, (i + 1) % n) for i in range(n)]  # forces strong connectivity
    D = Digraph(n, ring + extra)
    res = dfs_long_cycle(D)
    assert 2 <= res.cycle.length <= n
