import pytest

from vtcycles.gadgets import (GadgetVerificationError, cycle_digraph,
                              directed_cycle_product, four_cycle_chain,
                              is_strongly_k_connected, toroidal_gadget,
                              toroidal_translations)
from vtcycles.oracles import (alternating_hamiltonian, brute_hamiltonian,
                              brute_longest_cycle, brute_longest_path,
                              max_disjoint_cycles)
from vtcycles.verify import suite_toroidal
from vtcycles.cyclegraph import complete_directed_cycles


def test_cycle_digraph_bounds():
    with pytest.raises(ValueError):
        cycle_digraph(1)
    assert cycle_digraph(2).arc_count == 2


def test_product_requires_order_two():
    with pytest.raises(ValueError):
        directed_cycle_product(1, 5)


def test_product_2_3_not_hamiltonian():
    # gcd(2,3) = 1 fails the necessity condition; the oracle agrees
    assert brute_hamiltonian(directed_cycle_product(2, 3)) is None


def test_huge_product_size_arithmetic_only():
    # the (880, 8736) witness instance is never materialized; its size is
    # plain arithmetic
    assert 880 * 8736 == 7_687_680


def test_chain_verified_constructor():
    for k in (1, 2, 3):
        D = four_cycle_chain(k)
        assert D.n == 4 * k
        assert D.regularity() == 2


def test_chain_longest_cycle_exactly_four():
    res = brute_longest_cycle(four_cycle_chain(1))
    assert res.exact and res.best.length == 4


def test_chain_three_disjoint_four_cycles_at_k3():
    cycles = complete_directed_cycles(four_cycle_chain(3))
    assert cycles is not None
    four = [c for c in cycles if c.length == 4]
    count, exact = max_disjoint_cycles(four)
    assert exact and count >= 3


def test_chain_path_grows():
    p2 = brute_longest_path(four_cycle_chain(2)).best.length
    p4 = brute_longest_path(four_cycle_chain(4)).best.length
    assert p4 > p2


def test_chain_strong_two_connectivity():
    assert is_strongly_k_connected(four_cycle_chain(2), 2)
    assert not is_strongly_k_connected(cycle_digraph(5), 2)


def test_chain_rejects_zero_blocks():
    with pytest.raises(ValueError):
        four_cycle_chain(0)


def test_toroidal_sizes():
    assert toroidal_gadget(1).n == 12
    assert toroidal_gadget(3, verify=False).n == 28  # 8n+4 at n = 3


def test_toroidal_not_hamiltonian_small():
    for n in (1, 2):
        assert brute_hamiltonian(toroidal_gadget(n, verify=False)) is None


@pytest.mark.parametrize("n", [1, 2, 3, 10, 50])
def test_toroidal_not_hamiltonian_at_any_n(n):
    D = toroidal_gadget(n)   # verify=True runs the alternating-cycle oracle
    assert alternating_hamiltonian(D) is None


def test_toroidal_suite_certifies_every_n():
    result = suite_toroidal(10)
    assert result.ok and len(result.rows) == 10
    assert not any(row["hamiltonian"] for row in result.rows)


def test_toroidal_transitive_certificate():
    fam = toroidal_translations(1)
    assert len(fam) == 12 and fam.is_transitive()


def test_toroidal_regular():
    assert toroidal_gadget(2).regularity() == 2


def test_toroidal_rejects_bad_parameter():
    with pytest.raises(ValueError):
        toroidal_gadget(0)


def test_verification_error_is_loud():
    # sanity: the verified and unverified constructions are identical,
    # so verification cannot be producing a different digraph
    assert four_cycle_chain(2) == four_cycle_chain(2, verify=False)
    assert isinstance(GadgetVerificationError("x"), RuntimeError)
