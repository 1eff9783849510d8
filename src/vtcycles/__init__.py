"""Long directed cycles in vertex-transitive digraphs.

Constructions (Cayley digraphs, cycle products, gadget families), the
expansion and cycle-graph machinery for finding long directed cycles, the
arithmetic of prime-partitionable perimeter-gap witnesses, and the exact
brute-force oracles everything is validated against.
"""

from .digraph import (Digraph, DirectedCycle, DirectedPath, Graph, INF,
                      UNKNOWN, cartesian_product, directed_cycle,
                      directed_path, read_edge_list, to_dot, write_edge_list)
from .groups import (AutomorphismFamily, CayleySpec, FormulaGroup,
                     GroupAxiomError, GroupTable, cayley_digraph, cyclic_group,
                     dihedral_group, direct_product, group_from_table,
                     left_translations)
from .automorphisms import is_vertex_transitive
from .gadgets import (cycle_digraph, complete_bidirected,
                      directed_cycle_product, four_cycle_chain,
                      toroidal_gadget)
from .longcycle import (CycleSearchResult, ExpansionReport, dfs_long_cycle,
                        expansion_check_transitive_bound, expansion_exact,
                        expansion_sampled, long_path)
from .oracles import (SearchResult, alternating_hamiltonian,
                      brute_hamiltonian, brute_longest_cycle,
                      brute_longest_path, brute_longest_induced_cycle,
                      longest_cycles_pairwise_intersect)
from .cyclegraph import (CycleGraph, build_cycle_graph,
                         complete_directed_cycles, cycle_graph_diameter_check,
                         induced_cycle_via_symmetry, is_nearly_transitive,
                         lift_automorphisms, pipeline_n13,
                         stitch_directed_cycle)
from .numbergap import (MotohashiPair, SplitCheck, WitnessCertificate,
                        divisibility_gap_bound, motohashi_pairs,
                        perimeter_gap_table, prime_partitionable_check,
                        primes_below, search_prime_partitionable,
                        trotter_erdos_necessary, witness_from_prime_pair)

__version__ = "0.1.0"
