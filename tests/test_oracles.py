import functools
import hashlib

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vtcycles.cyclegraph import build_cycle_graph, complete_directed_cycles
from vtcycles.digraph import Budget, Digraph, Graph, UNKNOWN
from vtcycles.gadgets import (complete_bidirected, cycle_digraph,
                              directed_cycle_product, four_cycle_chain,
                              toroidal_gadget)
from vtcycles.oracles import (ALT_CYCLES_MAX, _hamiltonian_dp,
                              _induced_closures, alternating_hamiltonian,
                              brute_hamiltonian,
                              brute_longest_cycle, brute_longest_induced_cycle,
                              brute_longest_path, find_path_of_length,
                              induced_cycles, longest_cycles_pairwise_intersect,
                              max_disjoint_cycles)
from vtcycles.verify import product_pairs

from _independent import permutation_hamiltonian, subset_induced_cycles


def test_hamiltonian_c2xc2():
    cyc = brute_hamiltonian(directed_cycle_product(2, 2))
    assert cyc is not None and cyc.length == 4


def test_hamiltonian_c2xc3_absent():
    assert brute_hamiltonian(directed_cycle_product(2, 3)) is None


def test_hamiltonian_digon_and_cycle():
    assert brute_hamiltonian(cycle_digraph(2)).length == 2
    assert brute_hamiltonian(cycle_digraph(9)).length == 9


def test_hamiltonian_backtracking_branch():
    # n = 25 exceeds the DP cap, so the budgeted backtracking runs
    D = cycle_digraph(25)
    assert brute_hamiltonian(D, budget=10 ** 5).length == 25
    # C5 x C6 is not Hamiltonian (gcd 1); a tiny budget cannot prove that
    big = directed_cycle_product(5, 6)
    assert brute_hamiltonian(big, budget=50) is UNKNOWN


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.data())
def test_hamiltonian_agrees_with_permutation_oracle(n, data):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    D = Digraph(n, arcs)
    assert (brute_hamiltonian(D) is not None) == permutation_hamiltonian(D)


def _two_in_two_out(sigma, tau):
    """Repair two permutations into fixed-point-free ones with
    sigma(v) != tau(v) everywhere, by swapping entries; None when tau's
    repair finds no swap.  Their arcs v -> sigma(v), v -> tau(v) make a
    2-in-2-out digraph."""
    n = len(sigma)
    sigma, tau = list(sigma), list(tau)
    for i in range(n):
        if sigma[i] == i:   # the swap leaves neither entry fixed
            j = (i + 1) % n
            sigma[i], sigma[j] = sigma[j], sigma[i]
    bad = lambda i, x: x in (i, sigma[i])
    for i in range(n):
        if bad(i, tau[i]):
            j = next((j for j in range(n)
                      if not bad(i, tau[j]) and not bad(j, tau[i])), None)
            if j is None:
                return None
            tau[i], tau[j] = tau[j], tau[i]
    return Digraph(n, [(v, w) for v in range(n) for w in (sigma[v], tau[v])])


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=3, max_value=16).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_alternating_hamiltonian_agrees_with_the_dp(perms):
    D = _two_in_two_out(*perms)
    assume(D is not None)
    assert all(len(D.out[v]) == len(D.inn[v]) == 2 for v in range(D.n))
    cycle = alternating_hamiltonian(D)
    assert cycle is not UNKNOWN
    assert (cycle is None) == (_hamiltonian_dp(D) is None)
    # a returned cycle was built by directed_cycle, which checks every arc
    assert cycle is None or cycle.length == D.n
    if D.n <= 8:
        assert (cycle is not None) == permutation_hamiltonian(D)


def test_alternating_hamiltonian_on_the_products_table():
    for n1, n2 in product_pairs(24):
        D = directed_cycle_product(n1, n2)
        cycle = alternating_hamiltonian(D)
        assert (cycle is None) == (_hamiltonian_dp(D) is None), (n1, n2)
        assert cycle is None or cycle.length == D.n


def test_alternating_hamiltonian_undecided_off_its_class_or_past_its_cap():
    # not 2-in-2-out: vertex 0 has in-degree 3 below
    lopsided = Digraph(4, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 3),
                           (3, 0), (3, 1)])
    for D in (cycle_digraph(5), complete_bidirected(5), lopsided,
              Digraph(0, [])):
        assert alternating_hamiltonian(D) is UNKNOWN
    # C_k x C_k has gcd(k, k) = k alternating cycles
    k = ALT_CYCLES_MAX
    assert alternating_hamiltonian(directed_cycle_product(k + 1, k + 1)) is UNKNOWN
    assert alternating_hamiltonian(directed_cycle_product(k, 2)).length == 2 * k


def test_longest_cycle_c5():
    res = brute_longest_cycle(cycle_digraph(5))
    assert res.exact and res.best.length == 5  # perimeter gap 0


def test_longest_cycle_chain_is_four():
    res = brute_longest_cycle(four_cycle_chain(2))
    assert res.exact and res.best.length == 4


def test_longest_cycle_c2xc3_matches_enumeration():
    from vtcycles.cyclegraph import complete_directed_cycles

    D = directed_cycle_product(2, 3)
    res = brute_longest_cycle(D)
    cycles = complete_directed_cycles(D)
    assert cycles is not None
    assert res.exact
    # only arc-count patterns 2,3,5 are possible here; gap is 1, not 0
    assert res.best.length == max(c.length for c in cycles) == 5
    assert D.n - res.best.length == 1


def test_longest_cycle_budget_gives_inexact():
    res = brute_longest_cycle(complete_bidirected(8), budget=10)
    assert not res.exact


def test_longest_path_cycle_digraph():
    res = brute_longest_path(cycle_digraph(6))
    assert res.exact and res.best.length == 5


def test_longest_path_grows_with_chain_size():
    short = brute_longest_path(four_cycle_chain(2)).best.length
    long_ = brute_longest_path(four_cycle_chain(4)).best.length
    assert long_ > short
    assert short == 7 and long_ == 15  # chains have Hamilton paths


def test_find_path_of_length():
    D = four_cycle_chain(3)
    assert find_path_of_length(D, 3).length >= 3
    assert find_path_of_length(cycle_digraph(4), 9) is None


PETERSEN = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7),
            (3, 8), (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]


def test_induced_cycles_on_undirected_cycle():
    G = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    cycles, exact = induced_cycles(G)
    assert exact and len(cycles) == 1 and len(cycles[0]) == 5


def test_induced_cycles_match_subset_oracle():
    # Petersen graph: all induced cycles found two independent ways
    G = Graph(10, PETERSEN)
    mine, exact = induced_cycles(G)
    assert exact
    assert {frozenset(c) for c in mine} == subset_induced_cycles(G)
    best = brute_longest_induced_cycle(G)
    assert best.exact and len(best.best) == max(len(c) for c in mine)


def test_induced_cycles_need_budget_beyond_cap():
    G = Graph(25, [(i, (i + 1) % 25) for i in range(25)])
    with pytest.raises(ValueError, match="budget"):
        induced_cycles(G)
    cycles, exact = induced_cycles(G, budget=10 ** 6)
    assert exact and len(cycles) == 1


def test_max_disjoint_cycles_chain():
    from vtcycles.cyclegraph import complete_directed_cycles

    D = four_cycle_chain(3)
    cycles = complete_directed_cycles(D)
    four = [c for c in cycles if c.length == 4]
    count, exact = max_disjoint_cycles(four)
    assert exact and count == 3


def test_pairwise_intersection_question():
    assert longest_cycles_pairwise_intersect(cycle_digraph(6)) is True
    assert longest_cycles_pairwise_intersect(four_cycle_chain(3)) is False
    # both Hamilton cycles of C2xC2 share every vertex
    assert longest_cycles_pairwise_intersect(directed_cycle_product(2, 2)) is True


def test_hamiltonian_iff_circumference_is_n():
    for D in (cycle_digraph(5), directed_cycle_product(2, 2),
              directed_cycle_product(2, 3), directed_cycle_product(2, 4),
              four_cycle_chain(2), complete_bidirected(5)):
        ham = brute_hamiltonian(D) is not None
        res = brute_longest_cycle(D)
        assert res.exact
        assert ham == (res.best.length == D.n)


# --- the iterative search core ----------------------------------------------

PARITY_HOSTS = {
    "C25": lambda: cycle_digraph(25),
    "C5xC6": lambda: directed_cycle_product(5, 6),
    "K8": lambda: complete_bidirected(8),
    "chain4": lambda: four_cycle_chain(4),
}
C25 = tuple(range(25))
K8 = tuple(range(8))
P56_CYCLE = (0, 1, 2, 3, 4, 5, 11, 6, 7, 8, 9, 10, 16, 17, 12, 13, 14, 15,
             21, 22, 23, 18, 19, 20, 26, 27, 28, 29, 24)
P56_PATH = P56_CYCLE + (25,)
CHAIN4_PATH = (0, 1, 3, 5, 2, 4, 6, 8, 7, 9, 11, 13, 10, 12, 14, 15)

# Recorded from the recursive backtrackers that the shared iterative walk
# replaced.  Columns: host, budget, brute_longest_cycle and
# brute_longest_path as (vertices, exact, expansions), then
# find_path_of_length(D, n - 1).
SEARCH_PARITY = [
    ("C25", 10, (None, False, 11), (C25[:10], False, 11), UNKNOWN),
    ("C25", 50, (C25, False, 51), (C25, False, 51), C25),
    ("C5xC6", 10, (P56_CYCLE[:6], False, 11), (P56_PATH[:10], False, 11),
     UNKNOWN),
    ("C5xC6", 50, (P56_CYCLE, False, 51), (P56_PATH, False, 51), P56_PATH),
    ("K8", None, (K8, True, 16072), (K8, True, 109600), K8),
    ("K8", 10, (K8, False, 11), (K8, False, 11), K8),
    ("K8", 50, (K8, False, 51), (K8, False, 51), K8),
    ("chain4", None, ((0, 2, 1, 3), True, 644), (CHAIN4_PATH, True, 2180),
     CHAIN4_PATH),
    ("chain4", 10, ((0, 1, 3), False, 11), (CHAIN4_PATH[:10], False, 11),
     UNKNOWN),
    ("chain4", 50, ((0, 1, 3), False, 51), (CHAIN4_PATH, False, 51),
     CHAIN4_PATH),
]

# brute_hamiltonian's backtracking branch (25 <= n <= 40), same origin.
HAMILTON_PARITY = [
    ("C25", 10, UNKNOWN),
    ("C25", 50, C25),
    ("C5xC6", 10, UNKNOWN),
    ("C5xC6", 50, UNKNOWN),
]


def _vertices(found):
    return found if found is None or found is UNKNOWN else found.vertices


@pytest.mark.parametrize("host,budget,cycle,path,long_path", SEARCH_PARITY,
                         ids=[f"{h}-{b}" for h, b, *_ in SEARCH_PARITY])
def test_path_searches_match_recorded_results(host, budget, cycle, path,
                                              long_path):
    D = PARITY_HOSTS[host]()
    res = brute_longest_cycle(D, budget=budget)
    assert (_vertices(res.best), res.exact, res.expansions) == cycle
    res = brute_longest_path(D, budget=budget)
    assert (_vertices(res.best), res.exact, res.expansions) == path
    assert _vertices(find_path_of_length(D, D.n - 1, budget=budget)) == long_path


@pytest.mark.parametrize("host,budget,cycle", HAMILTON_PARITY,
                         ids=[f"{h}-{b}" for h, b, _ in HAMILTON_PARITY])
def test_hamiltonian_backtracking_matches_recorded_results(host, budget, cycle):
    D = PARITY_HOSTS[host]()
    assert _vertices(brute_hamiltonian(D, budget=budget)) == cycle


def test_deep_path_searches_stop_at_the_budget():
    # thousands of vertices deep: the budget ends the walk, not recursion
    found = find_path_of_length(cycle_digraph(5000), 4999, budget=10 ** 4)
    assert found.vertices == tuple(range(5000))
    res = brute_longest_path(cycle_digraph(3000), budget=10 ** 4)
    assert res.best.vertices == tuple(range(3000))
    assert not res.exact and res.expansions == 10 ** 4 + 1


def test_deep_induced_cycle_and_packing_searches():
    G = Graph(3000, [(i, (i + 1) % 3000) for i in range(3000)])
    cycles, exact = induced_cycles(G, budget=10 ** 4)
    assert cycles == [tuple(range(3000))] and not exact
    digons = [(2 * i, 2 * i + 1) for i in range(1500)]
    assert max_disjoint_cycles(digons, budget=10 ** 4) == (1500, False)


def _bidirected_k25_with_a_digon():
    # K25 on 0..24, both ways, and the digon 0 <-> 25: vertex 25 has one
    # neighbour, so there is no Hamilton cycle and no 26-arc path, and a
    # walk over the simple paths has no end in sight
    arcs = [(u, v) for u in range(25) for v in range(25) if u != v]
    return Digraph(26, arcs + [(0, 25), (25, 0)])


def test_backtracking_past_the_exact_cap_needs_a_budget():
    D = _bidirected_k25_with_a_digon()
    with pytest.raises(ValueError, match="n=26 needs an explicit budget"):
        brute_hamiltonian(D)
    with pytest.raises(ValueError, match="n=26 needs an explicit budget"):
        find_path_of_length(D, 26)
    assert brute_hamiltonian(D, budget=10 ** 6) is UNKNOWN
    assert find_path_of_length(D, 26, budget=10 ** 6) is None


def test_packing_past_the_exact_cap_needs_a_budget():
    cycles = complete_directed_cycles(four_cycle_chain(12), max_count=10 ** 6)
    four = [c for c in cycles if c.length == 4]
    assert len(four) == 67
    with pytest.raises(ValueError, match="n=67 needs an explicit budget"):
        max_disjoint_cycles(four)
    # n counts distinct vertex sets: 20 of them run uncapped, 21 do not
    digons = [(2 * i, 2 * i + 1) for i in range(20)]
    assert max_disjoint_cycles(digons + [(v, u) for u, v in digons]) == (20, True)
    with pytest.raises(ValueError, match="n=21 needs an explicit budget"):
        max_disjoint_cycles(digons + [(40, 41)])


def test_longest_induced_cycle_reports_its_expansions():
    petersen = Graph(10, PETERSEN)
    full = brute_longest_induced_cycle(petersen)
    assert full.exact and full.expansions > 0
    cut = brute_longest_induced_cycle(petersen, budget=20)
    assert not cut.exact and cut.expansions == 21


# --- the induced-cycle oracle ------------------------------------------------

def _cycle_graph(D):
    return build_cycle_graph(D, complete_directed_cycles(D, 10 ** 6)).graph


INDUCED_HOSTS = {
    "petersen": lambda: Graph(10, PETERSEN),
    "C5": lambda: Graph(5, [(i, (i + 1) % 5) for i in range(5)]),
    "K4": lambda: Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
    "toroidal1": lambda: _cycle_graph(toroidal_gadget(1)),  # 58 cycles
    "C2xC8": lambda: _cycle_graph(directed_cycle_product(2, 8)),  # 264 cycles
    "C3xC7": lambda: _cycle_graph(directed_cycle_product(3, 7)),  # 2,299 cycles
}


@functools.cache
def _induced_host(name):
    return INDUCED_HOSTS[name]()  # graphs are immutable, so shared safely


def _digest(cycles):
    return hashlib.sha256(repr(cycles).encode()).hexdigest()[:16]


# Recorded from the enumerate-then-scan oracle that the closure walk
# replaced.  induced_cycles columns: host, min_len, budget, list length,
# digest of the list, exact.  brute_longest_induced_cycle columns: host,
# budget, best, exact, expansions.  Budget None only where n <= 20.  The
# C3xC7 rows were recorded from the walk that still entered every dead
# start one by one, before runs of them were charged in one step.
INDUCED_PARITY = [
    ('petersen', 3, None, 22, '973f69f8ef5053c3', True),
    ('petersen', 3, 1, 0, '4f53cda18c2baa0c', False),
    ('petersen', 3, 2, 0, '4f53cda18c2baa0c', False),
    ('petersen', 3, 9, 6, '59123c72d38db6e3', False),
    ('petersen', 3, 40, 14, '96d8e99695fc09b6', False),
    ('petersen', 3, 1000, 22, '973f69f8ef5053c3', True),
    ('petersen', 3, 20000, 22, '973f69f8ef5053c3', True),
    ('petersen', 3, 2000000, 22, '973f69f8ef5053c3', True),
    ('petersen', 6, None, 10, '2e418546a860d7e1', True),
    ('petersen', 6, 1, 0, '4f53cda18c2baa0c', False),
    ('petersen', 6, 2, 0, '4f53cda18c2baa0c', False),
    ('petersen', 6, 9, 3, 'b207de00fe511c88', False),
    ('petersen', 6, 40, 7, 'cd3f419cacbd17e9', False),
    ('petersen', 6, 1000, 10, '2e418546a860d7e1', True),
    ('petersen', 6, 20000, 10, '2e418546a860d7e1', True),
    ('petersen', 6, 2000000, 10, '2e418546a860d7e1', True),
    ('C5', 3, None, 1, '6557cfec0cc67165', True),
    ('C5', 3, 1, 0, '4f53cda18c2baa0c', False),
    ('C5', 3, 2, 0, '4f53cda18c2baa0c', False),
    ('C5', 3, 9, 1, '6557cfec0cc67165', False),
    ('C5', 3, 40, 1, '6557cfec0cc67165', True),
    ('C5', 3, 1000, 1, '6557cfec0cc67165', True),
    ('C5', 3, 20000, 1, '6557cfec0cc67165', True),
    ('C5', 3, 2000000, 1, '6557cfec0cc67165', True),
    ('C5', 6, None, 0, '4f53cda18c2baa0c', True),
    ('C5', 6, 1, 0, '4f53cda18c2baa0c', False),
    ('C5', 6, 2, 0, '4f53cda18c2baa0c', False),
    ('C5', 6, 9, 0, '4f53cda18c2baa0c', False),
    ('C5', 6, 40, 0, '4f53cda18c2baa0c', True),
    ('C5', 6, 1000, 0, '4f53cda18c2baa0c', True),
    ('C5', 6, 20000, 0, '4f53cda18c2baa0c', True),
    ('C5', 6, 2000000, 0, '4f53cda18c2baa0c', True),
    ('K4', 3, None, 4, '8871c4d2529855c2', True),
    ('K4', 3, 1, 2, '83050f3c0e9c8e4f', False),
    ('K4', 3, 2, 3, '52e5c9742129b1bc', False),
    ('K4', 3, 9, 4, '8871c4d2529855c2', True),
    ('K4', 3, 40, 4, '8871c4d2529855c2', True),
    ('K4', 3, 1000, 4, '8871c4d2529855c2', True),
    ('K4', 3, 20000, 4, '8871c4d2529855c2', True),
    ('K4', 3, 2000000, 4, '8871c4d2529855c2', True),
    ('K4', 4, None, 0, '4f53cda18c2baa0c', True),
    ('K4', 4, 1, 0, '4f53cda18c2baa0c', False),
    ('K4', 4, 2, 0, '4f53cda18c2baa0c', False),
    ('K4', 4, 9, 0, '4f53cda18c2baa0c', True),
    ('K4', 4, 40, 0, '4f53cda18c2baa0c', True),
    ('K4', 4, 1000, 0, '4f53cda18c2baa0c', True),
    ('K4', 4, 20000, 0, '4f53cda18c2baa0c', True),
    ('K4', 4, 2000000, 0, '4f53cda18c2baa0c', True),
    ('toroidal1', 3, 1, 49, '58129b4c409134b5', False),
    ('toroidal1', 3, 2, 49, '58129b4c409134b5', False),
    ('toroidal1', 3, 9, 97, '4c3ed0b2ae39c984', False),
    ('toroidal1', 3, 40, 198, '21e66f61f38e62fe', False),
    ('toroidal1', 3, 1000, 6797, '05e426bc4abc23f7', False),
    ('toroidal1', 3, 20000, 28374, '0970730edd351bb7', True),
    ('toroidal1', 3, 2000000, 28374, '0970730edd351bb7', True),
    ('toroidal1', 5, 1, 0, '4f53cda18c2baa0c', False),
    ('toroidal1', 5, 2, 0, '4f53cda18c2baa0c', False),
    ('toroidal1', 5, 9, 0, '4f53cda18c2baa0c', False),
    ('toroidal1', 5, 40, 9, '4b94926403a89f24', False),
    ('toroidal1', 5, 1000, 164, 'ebb4739f14505402', False),
    ('toroidal1', 5, 20000, 313, 'dddc2c0c49d37723', True),
    ('toroidal1', 5, 2000000, 313, 'dddc2c0c49d37723', True),
    ('C2xC8', 4, 1, 0, '4f53cda18c2baa0c', False),
    ('C2xC8', 4, 2, 0, '4f53cda18c2baa0c', False),
    ('C2xC8', 4, 9, 0, '4f53cda18c2baa0c', False),
    ('C2xC8', 4, 40, 0, '4f53cda18c2baa0c', False),
    ('C2xC8', 4, 1000, 28, '5757204ed0fa5de5', False),
    ('C2xC8', 4, 20000, 28, '5757204ed0fa5de5', False),
    ('C2xC8', 4, 2000000, 28, '5757204ed0fa5de5', True),
    ('C3xC7', 4, 1000, 16, 'daa89ca85aefadbb', False),
    ('C3xC7', 4, 100000, 84, 'f32ab576aedf914f', False),
    ('C3xC7', 4, 2000000, 692, '774cc8f6a7e66c81', False),
]
LONGEST_PARITY = [
    ('petersen', None, (0, 1, 2, 3, 8, 5), True, 100),
    ('petersen', 1, None, False, 2),
    ('petersen', 2, None, False, 3),
    ('petersen', 9, (0, 1, 2, 3, 8, 5), False, 10),
    ('petersen', 40, (0, 1, 2, 3, 8, 5), False, 41),
    ('petersen', 1000, (0, 1, 2, 3, 8, 5), True, 100),
    ('petersen', 20000, (0, 1, 2, 3, 8, 5), True, 100),
    ('petersen', 2000000, (0, 1, 2, 3, 8, 5), True, 100),
    ('C5', None, (0, 1, 2, 3, 4), True, 12),
    ('C5', 1, None, False, 2),
    ('C5', 2, None, False, 3),
    ('C5', 9, (0, 1, 2, 3, 4), False, 10),
    ('C5', 40, (0, 1, 2, 3, 4), True, 12),
    ('C5', 1000, (0, 1, 2, 3, 4), True, 12),
    ('C5', 20000, (0, 1, 2, 3, 4), True, 12),
    ('C5', 2000000, (0, 1, 2, 3, 4), True, 12),
    ('K4', None, (0, 1, 2), True, 6),
    ('K4', 1, (0, 1, 2), False, 2),
    ('K4', 2, (0, 1, 2), False, 3),
    ('K4', 9, (0, 1, 2), True, 6),
    ('K4', 40, (0, 1, 2), True, 6),
    ('K4', 1000, (0, 1, 2), True, 6),
    ('K4', 20000, (0, 1, 2), True, 6),
    ('K4', 2000000, (0, 1, 2), True, 6),
    ('toroidal1', 1, (0, 1, 2), False, 2),
    ('toroidal1', 2, (0, 1, 2), False, 3),
    ('toroidal1', 9, (0, 1, 2), False, 10),
    ('toroidal1', 40, (0, 4, 55, 51, 50), False, 41),
    ('toroidal1', 1000, (0, 23, 57, 54, 51, 48), False, 1001),
    ('toroidal1', 20000, (0, 23, 57, 54, 51, 48), True, 3506),
    ('toroidal1', 2000000, (0, 23, 57, 54, 51, 48), True, 3506),
    ('C2xC8', 1, (0, 1, 2), False, 2),
    ('C2xC8', 2, (0, 1, 2), False, 3),
    ('C2xC8', 9, (0, 1, 2), False, 10),
    ('C2xC8', 40, (0, 1, 2), False, 41),
    ('C2xC8', 1000, (0, 128, 263, 225), False, 1001),
    ('C2xC8', 20000, (0, 128, 263, 225), False, 20001),
    ('C2xC8', 2000000, (0, 128, 263, 225), True, 36166),
    ('C3xC7', 1000, (0, 74, 2297, 2244), False, 1001),
    ('C3xC7', 100000, (0, 74, 2297, 2244), False, 100001),
    ('C3xC7', 2000000, (0, 74, 2297, 2244), False, 2000001),
]


@pytest.mark.parametrize("host,min_len,budget,count,digest,exact",
                         INDUCED_PARITY,
                         ids=[f"{h}-{m}-{b}" for h, m, b, *_ in INDUCED_PARITY])
def test_induced_cycles_match_recorded_results(host, min_len, budget, count,
                                               digest, exact):
    cycles, found_exact = induced_cycles(_induced_host(host), min_len, budget)
    assert (len(cycles), _digest(cycles), found_exact) == (count, digest, exact)


@pytest.mark.parametrize("host,budget,best,exact,expansions", LONGEST_PARITY,
                         ids=[f"{h}-{b}" for h, b, *_ in LONGEST_PARITY])
def test_longest_induced_cycle_matches_recorded_results(host, budget, best,
                                                        exact, expansions):
    res = brute_longest_induced_cycle(_induced_host(host), budget)
    assert (res.best, res.exact, res.expansions) == (best, exact, expansions)


def _reference_closures(G, min_len, spent):
    """The induced-cycle walk as it was before dead starts were handled
    inline: every start builds its path, opens a frame and is charged on
    its own."""
    adj_masks = G.masks
    for root in range(G.n):
        above = -1 << (root + 1)
        root_adj = adj_masks[root]
        starts = root_adj & above
        while starts:
            wb = starts & -starts
            starts ^= wb
            if not spent.spend():
                return
            closing = root_adj & (-1 << wb.bit_length())
            path = [root]
            frames = []
            visited, blocked = 1 << root, 0
            while wb:
                path.append(wb.bit_length() - 1)
                visited |= wb
                cand = adj_masks[path[-1]] & above & ~visited & ~blocked
                close = cand & closing if len(path) >= min_len - 1 else 0
                frames.append([cand & ~root_adj, close, visited, blocked])
                wb = 0
                while frames and not wb:
                    frame = frames[-1]
                    ext, close = frame[0], frame[1]
                    if ext:
                        wb = ext & -ext
                        below = close & (wb - 1)
                        if below:
                            yield path, below
                        frame[0], frame[1] = ext ^ wb, close ^ below
                    else:
                        if close:
                            yield path, close
                        frames.pop()
                        path.pop()
                if wb:
                    if not spent.spend():
                        return
                    visited = frame[2]
                    blocked = frame[3] | (adj_masks[path[-1]] & ~wb)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph(n, [])
    return Graph(n, draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))


@st.composite
def dense_graphs(draw):
    """Every pair but at most 30% of them is an edge, as in the cycle
    graphs: most path starts are dead, and a small budget runs out inside
    a run of them."""
    n = draw(st.integers(4, 18))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    missing = set(draw(st.lists(st.sampled_from(pairs),
                                max_size=3 * len(pairs) // 10)))
    return Graph(n, [p for p in pairs if p not in missing])


WALK_GRAPHS = st.one_of(small_graphs(), dense_graphs())
WALK_BUDGETS = st.one_of(st.sampled_from((5, 40, 10 ** 6)), st.integers(1, 300))


@settings(max_examples=400, deadline=None)
@given(WALK_GRAPHS, st.integers(3, 5), WALK_BUDGETS)
def test_induced_walk_matches_the_walk_with_a_frame_per_start(G, min_len,
                                                              budget):
    walks = []
    for walk in (_induced_closures, _reference_closures):
        spent = Budget(budget)
        yields = [(tuple(path), closers)
                  for path, closers in walk(G, min_len, spent)]
        walks.append((yields, spent.used))
    assert walks[0] == walks[1]


@settings(max_examples=300, deadline=None)
@given(WALK_GRAPHS, st.one_of(st.none(), WALK_BUDGETS))
def test_longest_induced_cycle_matches_a_scan_of_the_reference_walk(G,
                                                                    budget):
    # the reference walk yields every closer: the first longest is kept
    spent = Budget(budget)
    best = None
    for path, closers in _reference_closures(G, 3, spent):
        if best is None or len(path) + 1 > len(best):
            best = tuple(path) + ((closers & -closers).bit_length() - 1,)
    res = brute_longest_induced_cycle(G, budget)
    assert (res.best, res.exact, res.expansions) == (best, not spent.exhausted,
                                                     spent.used)
