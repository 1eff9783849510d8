"""Explicit digraph families: directed cycles, cycle products, the chained
gadget whose longest directed cycles stay at length four, and its toroidal
wrap-around variant.

Every generator post-verifies its advertised properties with the exact
oracles before returning; a verification failure means a generator bug and
raises, it is never silently ignored.
"""

from __future__ import annotations

from .digraph import Digraph, cartesian_product, reacher
from .groups import (AutomorphismFamily, CayleySpec, cayley_digraph,
                     cyclic_group, direct_product, left_translations,
                     product_element)
from .oracles import alternating_hamiltonian, find_path_of_length


class GadgetVerificationError(RuntimeError):
    """A generated instance failed its own property oracle suite."""


def cycle_digraph(n: int) -> Digraph:
    """The directed cycle on n >= 2 vertices (a digon when n = 2)."""
    if n < 2:
        raise ValueError("directed cycle needs at least 2 vertices")
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bidirected(n: int) -> Digraph:
    if n < 2:
        raise ValueError("need at least 2 vertices")
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def directed_cycle_product(n1: int, n2: int) -> Digraph:
    """Cartesian product of two directed cycles; 2-regular and vertex
    transitive by construction (it is a Cayley digraph of Z_n1 x Z_n2)."""
    if n1 < 2 or n2 < 2:
        raise ValueError("cycle factors need at least 2 vertices")
    D = cartesian_product(cycle_digraph(n1), cycle_digraph(n2))
    assert D.regularity() == 2
    return D


def product_cayley_spec(n1: int, n2: int) -> CayleySpec:
    """The Cayley presentation of the cycle product: Z_n1 x Z_n2 with
    generators (1,0) and (0,1).  Its digraph has arc set identical to
    directed_cycle_product(n1, n2) under the lexicographic vertex order."""
    group = direct_product(cyclic_group(n1), cyclic_group(n2))
    gens = (product_element(n2, (1, 0)), product_element(n2, (0, 1)))
    return CayleySpec(group, gens)


# --- the four-cycle chain ----------------------------------------------------

def four_cycle_chain(k: int, verify: bool = True) -> Digraph:
    """A 2-regular strongly 2-connected digraph made of k blocks of four
    vertices whose longest directed cycle has length exactly four, while
    the longest directed path grows with k.

    Construction: columns of paired vertices x_i, y_i for i < 2k; each
    consecutive column pair carries the directed 4-cycle
    x_i -> x_{i+1} -> y_i -> y_{i+1} -> x_i, and the two end columns are
    closed with digons x <-> y.  Post-verified on every call: 2-regular,
    strongly 2-connected, longest directed cycle exactly 4 (by complete
    cycle enumeration), and a directed path of length at least k exists.
    """
    if k < 1:
        raise ValueError("need at least one block")
    m = 2 * k
    arcs = []
    x = lambda i: 2 * i
    y = lambda i: 2 * i + 1
    for i in range(m - 1):
        arcs += [(x(i), x(i + 1)), (x(i + 1), y(i)),
                 (y(i), y(i + 1)), (y(i + 1), x(i))]
    arcs += [(x(0), y(0)), (y(0), x(0)),
             (x(m - 1), y(m - 1)), (y(m - 1), x(m - 1))]
    D = Digraph(4 * k, arcs)
    if verify:
        _verify_chain(D, k)
    return D


def _verify_chain(D: Digraph, k: int) -> None:
    from .cyclegraph import complete_directed_cycles

    if D.regularity() != 2:
        raise GadgetVerificationError("chain is not 2-regular")
    if not is_strongly_k_connected(D, 2):
        raise GadgetVerificationError("chain is not strongly 2-connected")
    cycles = complete_directed_cycles(D, 10 ** 6)
    if cycles is None:
        raise GadgetVerificationError("cycle enumeration truncated")
    longest = max(c.length for c in cycles)
    if longest != 4:
        raise GadgetVerificationError(
            f"longest directed cycle is {longest}, expected 4")
    if find_path_of_length(D, k, budget=10 ** 7) is None:
        raise GadgetVerificationError(f"no directed path of length {k} found")


def is_strongly_k_connected(D: Digraph, k: int) -> bool:
    """Strong connectivity after removing any set of fewer than k vertices
    (checked exhaustively; only sensible for tiny k)."""
    if D.n <= k:
        return False
    if not D.is_strongly_connected():
        return False
    if k >= 2:
        from itertools import combinations

        forward, backward = reacher(D.out), reacher(D.inn)
        for removed in combinations(range(D.n), k - 1):
            allowed = (1 << D.n) - 1 - sum(1 << v for v in removed)
            start = (allowed & -allowed).bit_length() - 1
            if (forward(start, allowed) != allowed
                    or backward(start, allowed) != allowed):
                return False
    return True


# --- the toroidal variant ----------------------------------------------------

def toroidal_cayley_spec(n: int) -> CayleySpec:
    """Cayley presentation of the wrap-around chain on 8n+4 vertices:
    Z_{4n+2} x Z_2 with generators (1,0) and (-1,1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    m = 4 * n + 2
    group = direct_product(cyclic_group(m), cyclic_group(2))
    gens = (product_element(2, (1, 0)), product_element(2, (m - 1, 1)))
    return CayleySpec(group, gens)


def toroidal_gadget(n: int, verify: bool = True) -> Digraph:
    """Wrap-around variant of the chain on exactly 8n+4 vertices: the end
    digons are gone and every backward arc wraps around the torus.

    Vertex-transitive by construction (it is a Cayley digraph; the left
    translations are re-validated on every call) and post-verified
    non-Hamiltonian at every n by the alternating-cycle oracle: the
    digraph is 2-in-2-out with two alternating cycles, so all four of its
    cycle covers are walked.
    """
    spec = toroidal_cayley_spec(n)
    D = cayley_digraph(spec)
    if verify:
        if D.n != 8 * n + 4:
            raise GadgetVerificationError(f"vertex count {D.n} != {8 * n + 4}")
        try:
            left_translations(spec)
        except ValueError as err:
            raise GadgetVerificationError(f"translations: {err}") from err
        if alternating_hamiltonian(D) is not None:
            raise GadgetVerificationError(
                "toroidal gadget is not certified non-Hamiltonian")
    return D


def toroidal_translations(n: int) -> AutomorphismFamily:
    return left_translations(toroidal_cayley_spec(n))
