import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vtcycles.digraph import Digraph
from vtcycles.gadgets import (cycle_digraph, directed_cycle_product,
                              product_cayley_spec, toroidal_cayley_spec)
from vtcycles.groups import (AutomorphismFamily, CayleySpec, GroupAxiomError,
                             GroupTable, cayley_digraph, cyclic_group,
                             dihedral_group, direct_product, format_cayley_spec,
                             group_from_table, left_translations,
                             parse_cayley_spec, schreier_vector)

from _independent import (cyclic_table, dihedral_table,
                          left_translation_certificate, product_table)


def test_trivial_group():
    g = cyclic_group(1)
    assert g.order == 1 and g.identity == 0


def test_cyclic_group_structure():
    g = cyclic_group(6)
    assert g.mul(4, 5) == 3
    assert g.inv(2) == 4
    assert g.element_order(2) == 3


def test_product_isomorphic_to_z6_by_order_multiset():
    z6 = cyclic_group(6)
    z2z3 = direct_product(cyclic_group(2), cyclic_group(3))
    assert z2z3.order_multiset() == z6.order_multiset() == (1, 2, 3, 3, 6, 6)
    # explicit isomorphism k -> (k mod 2, k mod 3), flattened as pairs
    iso = [(k % 2) * 3 + (k % 3) for k in range(6)]
    assert sorted(iso) == list(range(6))
    for a in range(6):
        for b in range(6):
            assert iso[z6.mul(a, b)] == z2z3.mul(iso[a], iso[b])


def test_group_from_table_validates():
    ok = group_from_table([[0, 1], [1, 0]])
    assert ok.identity == 0
    with pytest.raises(GroupAxiomError, match="associativity.*witness"):
        # closed, has identity 0 and inverses, but not associative
        group_from_table([
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ])
    with pytest.raises(GroupAxiomError, match="closure"):
        group_from_table([[0, 1], [1, 7]])
    with pytest.raises(GroupAxiomError, match="identity"):
        group_from_table([[1, 1], [1, 1]])


def test_dihedral_group():
    d4 = dihedral_group(4)
    assert d4.order == 8
    assert d4.order_multiset() == (1, 2, 2, 2, 2, 2, 4, 4)
    # s r s = r^{-1}
    r, s = 1, 4
    assert d4.mul(d4.mul(s, r), s) == d4.inv(r)


def test_cayley_single_generator_is_directed_cycle():
    spec = CayleySpec(cyclic_group(7), (1,))
    assert cayley_digraph(spec) == cycle_digraph(7)


def test_cayley_product_identification():
    # arc-set equality under the canonical index bijection (here: identity)
    spec = product_cayley_spec(2, 3)
    assert cayley_digraph(spec) == directed_cycle_product(2, 3)


def test_cayley_rejects_non_generating_set():
    with pytest.raises(ValueError, match="generate"):
        CayleySpec(cyclic_group(4), (2,))


def test_cayley_rejects_non_generating_set_with_its_orbit_size():
    with pytest.raises(ValueError) as err:
        CayleySpec(cyclic_group(8), (2,))
    assert str(err.value) == "generators (2,) generate only 4 of 8 elements"


def test_cayley_rejects_identity_generator():
    with pytest.raises(ValueError, match="identity"):
        CayleySpec(cyclic_group(4), (0, 1))


def test_left_translations_basics():
    spec = CayleySpec(cyclic_group(3), (1,))
    fam = left_translations(spec)
    assert len(fam) == 3
    rot = fam.permutations[1]          # translation by 1
    assert (rot[0], rot[1]) == (1, 2)  # arc (0,1) maps to (1,2)
    assert fam.is_transitive()


def test_left_translations_product_size_and_inverse():
    spec = product_cayley_spec(2, 3)
    fam = left_translations(spec)
    assert len(fam) == 6
    g = spec.group
    for h in range(6):
        fwd = fam.permutations[h]
        back = fam.permutations[g.inv(h)]
        assert [back[fwd[x]] for x in range(6)] == list(range(6))


def test_automorphism_family_rejects_non_automorphism():
    tri = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    swap = AutomorphismFamily(3, ((1, 0, 2),))
    with pytest.raises(ValueError, match="preserve"):
        swap.validate_digraph(tri)


def test_cayley_spec_text_roundtrip():
    text = format_cayley_spec("product", [2, 3], [3, 1])
    assert text == "product 2 3\n(1,0),(0,1)\n"
    spec = parse_cayley_spec(text)
    assert spec.group.order == 6 and spec.generators == (1, 3)
    spec2 = parse_cayley_spec("cyclic 8\n1,3\n")
    assert spec2.generators == (1, 3)
    with pytest.raises(ValueError, match="two non-comment lines"):
        parse_cayley_spec("cyclic 8\n")


def test_group_table_requires_factory_validation():
    # a direct GroupTable build skips validation on purpose; the factory
    # result must round-trip through it unchanged
    g = cyclic_group(4)
    same = GroupTable(g.order, g.mult, g.identity, g.inverse)
    assert same.mult == g.mult


def test_sampled_associativity_above_exact_cap():
    # order 300 exceeds the cubic-check cap; the sampled path must accept
    # a genuine group table
    n = 300
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    g = group_from_table(table)
    assert g.order == n and g.identity == 0


def test_parse_dihedral_group():
    from vtcycles.groups import parse_group

    g = parse_group("dihedral 5")
    assert g.order == 10
    with pytest.raises(ValueError, match="unrecognized"):
        parse_group("quaternion 8")


def test_left_translations_are_the_table_rows():
    from vtcycles.gadgets import toroidal_cayley_spec

    specs = [CayleySpec(cyclic_group(12), (2, 3)),
             CayleySpec(cyclic_group(20), (1, 7)),
             product_cayley_spec(3, 4),
             CayleySpec(dihedral_group(5), (1, 5)),
             toroidal_cayley_spec(1), toroidal_cayley_spec(3)]
    for spec in specs:
        g, n = spec.group, spec.group.order
        rows = tuple(tuple(g.mult[h][x] for x in range(n)) for h in range(n))
        assert left_translations(spec).permutations == rows


# Raw tables of loops (a two-sided identity 0 and inverses, but not
# associative) that bypass group_from_table.  In the first, a generator's
# row breaks an arc.  In the others the generator rows are automorphisms
# but some other row is not their product; in the last, every row still
# preserves the arcs, so only the product check rejects it.
LOOPS = [
    (((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1),
      (4, 3, 1, 2, 0)), (1, 2)),
    (((0, 1, 2, 3, 4, 5), (1, 0, 3, 2, 5, 4), (2, 3, 4, 5, 0, 1),
      (3, 2, 5, 4, 1, 0), (4, 5, 0, 1, 3, 2), (5, 4, 1, 0, 2, 3)), (3,)),
    (((0, 1, 2, 3, 4, 5), (1, 5, 4, 2, 3, 0), (2, 4, 5, 1, 0, 3),
      (3, 2, 1, 0, 5, 4), (4, 3, 0, 5, 2, 1), (5, 0, 3, 4, 1, 2)), (4, 5)),
]


@pytest.mark.parametrize("table, gens", LOOPS)
def test_left_translations_reject_a_non_associative_loop(table, gens):
    n = len(table)
    inverse = tuple(next(b for b in range(n) if table[a][b] == 0)
                    for a in range(n))
    spec = CayleySpec(GroupTable(n, table, 0, inverse), gens)
    with pytest.raises(ValueError):
        left_translations(spec)


# Raw tables that exactly one check rejects.  In the loop, every row is the
# product the orbit builds and every column is a permutation, but the row of
# generator 1 breaks an arc.  In the rotated Z3 table the declared identity's
# row is not the identity map; all else holds.
ONE_CHECK = [
    (((0, 1, 2, 3, 4, 5), (1, 0, 4, 2, 5, 3), (2, 3, 0, 5, 1, 4),
      (3, 2, 5, 4, 0, 1), (4, 5, 1, 0, 3, 2), (5, 4, 3, 1, 2, 0)), (1, 4),
     "does not preserve arc"),
    (((1, 2, 0), (2, 0, 1), (0, 1, 2)), (1,), "row 0 is not a product"),
]


@pytest.mark.parametrize("table, gens, message", ONE_CHECK)
def test_left_translations_reject_what_only_one_check_catches(table, gens,
                                                               message):
    n = len(table)
    spec = CayleySpec(GroupTable(n, table, 0, tuple(range(n))), gens)
    assert not left_translation_certificate(table, 0, gens)
    with pytest.raises(ValueError, match=message):
        left_translations(spec)


def test_left_translations_reject_an_intransitive_table():
    # Every row is the product of the generator rows that the orbit closure
    # builds, yet h -> h*2 is not onto ({2, 2, 1}): the transitivity check
    # raises ValueError, so it also runs under python -O.
    table = ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    spec = CayleySpec(GroupTable(3, table, 0, (0, 1, 1)), (1, 2))
    with pytest.raises(ValueError, match="not transitive"):
        left_translations(spec)


def test_direct_product_matches_pair_arithmetic():
    factors = ([cyclic_group(n) for n in range(1, 13)]
               + [dihedral_group(m) for m in range(1, 7)])
    for g1 in factors:
        for g2 in factors:
            pairs = [(a1, a2) for a1 in range(g1.order) for a2 in range(g2.order)]
            index = {pair: i for i, pair in enumerate(pairs)}
            g = direct_product(g1, g2)
            assert g.order == len(pairs)
            assert g.mult == tuple(
                tuple(index[(g1.mult[a1][b1], g2.mult[a2][b2])] for b1, b2 in pairs)
                for a1, a2 in pairs)
            assert g.inverse == tuple(index[(g1.inverse[a1], g2.inverse[a2])]
                                      for a1, a2 in pairs)
            assert g.identity == index[(g1.identity, g2.identity)]
            assert g.name == f"{g1.name}x{g2.name}"


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.permutations(range(n)), max_size=4))))
@example((0, []))
@example((0, [[]]))
@example((3, []))
def test_is_transitive_matches_the_per_vertex_definition(case):
    n, perms = case
    full = frozenset(range(n))
    expected = all(frozenset(p[u] for p in perms) == full for u in range(n))
    assert AutomorphismFamily(n, perms).is_transitive() == expected


GROUPS = {"cyclic": cyclic_group, "dihedral": dihedral_group,
          "product": lambda a, b: direct_product(cyclic_group(a), cyclic_group(b))}


@st.composite
def perturbed_cayley_inputs(draw):
    """A small group, 0-2 swaps of two entries inside random rows of its
    table, and 1-2 random generators."""
    kind = draw(st.sampled_from(sorted(GROUPS)))
    if kind == "product":
        a = draw(st.integers(min_value=1, max_value=6))
        params = (a, draw(st.integers(min_value=1, max_value=12 // a)))
    else:
        params = (draw(st.integers(min_value=1,
                                   max_value=12 if kind == "cyclic" else 6)),)
    n = GROUPS[kind](*params).order
    point = st.integers(min_value=0, max_value=n - 1)
    swaps = draw(st.lists(st.tuples(point, point, point), max_size=2))
    gens = draw(st.lists(point, min_size=1, max_size=2))
    return kind, params, tuple(swaps), tuple(gens)


def test_left_translations_match_the_certificate_definition():
    verdicts = set()

    @settings(max_examples=300, deadline=None)
    @given(perturbed_cayley_inputs())
    @example(("cyclic", (5,), (), (1,)))
    @example(("cyclic", (5,), ((2, 3, 4),), (1,)))
    def check(case):
        kind, params, swaps, gens = case
        g = GROUPS[kind](*params)
        rows = [list(row) for row in g.mult]
        for r, i, j in swaps:
            rows[r][i], rows[r][j] = rows[r][j], rows[r][i]
        table = tuple(tuple(row) for row in rows)
        try:
            spec = CayleySpec(GroupTable(g.order, table, g.identity, g.inverse),
                              gens)
            cayley_digraph(spec)
        except (ValueError, AssertionError):
            return  # not a Cayley digraph input at all
        expected = left_translation_certificate(table, g.identity, gens)
        try:
            fam = left_translations(spec)
        except ValueError:
            fam = None
        assert (fam is not None) == expected
        if fam is not None:
            assert fam.permutations == table
        verdicts.add(expected)

    check()
    assert verdicts == {True, False}


# --- named groups: formulas against tables ---------------------------------

def _named_factor(draw, max_order):
    """(group, independent table) of a cyclic group of order at most
    min(30, max_order) or a dihedral group of order at most max_order."""
    if max_order >= 2 and draw(st.booleans()):
        m = draw(st.integers(min_value=1, max_value=min(15, max_order // 2)))
        return dihedral_group(m), dihedral_table(m)
    n = draw(st.integers(min_value=1, max_value=min(30, max_order)))
    return cyclic_group(n), cyclic_table(n)


@st.composite
def named_groups_with_tables(draw):
    """Z_n (n = 1-30), D_m (m = 1-15) or a product of two of them of order
    at most 60, with its table built by _independent."""
    if draw(st.booleans()):
        return _named_factor(draw, 30)
    g1, t1 = _named_factor(draw, 30)
    g2, t2 = _named_factor(draw, 60 // g1.order)
    return direct_product(g1, g2), product_table(t1, t2)


def _generating_set(g, candidates):
    """The candidates that lie outside the subgroup generated by those
    taken before them."""
    gens, reached = [], {g.identity}
    for a in candidates:
        if a not in reached:
            gens.append(a)
            columns = [[g.mul(x, s) for x in range(g.order)] for s in gens]
            reached = schreier_vector(columns, g.identity)
    return gens


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_formula_groups_match_their_tables(data):
    g, raw = data.draw(named_groups_with_tables())
    n = g.order
    table = group_from_table(raw)
    assert g.identity == table.identity
    assert all(g.mul(a, b) == table.mul(a, b) for a in range(n) for b in range(n))
    assert all(g.inv(a) == table.inv(a) for a in range(n))
    assert all(g.element_order(a) == table.element_order(a) for a in range(n))
    assert g.mult == table.mult and g.inverse == table.inverse
    if n == 1:
        return  # no generator: the identity is rejected
    order = data.draw(st.permutations(range(n)))
    spec = CayleySpec(g, tuple(_generating_set(g, order)))
    fam = left_translations(spec)
    assert len(fam) == n and fam.certifies(cayley_digraph(spec))
    transitive = fam.is_transitive()
    assert "permutations" not in vars(fam)  # none of the above built them
    assert fam.permutations == table.mult
    full = frozenset(range(n))
    assert transitive == all(frozenset(p[u] for p in fam.permutations) == full
                             for u in range(n))


def test_product_with_a_raw_factor_keeps_a_checked_table():
    raw = GroupTable(2, ((0, 1), (1, 0)), 0, (0, 1))
    g = direct_product(raw, cyclic_group(3))
    assert isinstance(g, GroupTable)
    assert g.mult == direct_product(cyclic_group(2), cyclic_group(3)).mult


def test_cayley_hosts_at_scale_build_no_quadratic_object():
    # The multiplication table of Z_50000 alone would hold 2.5*10^9 entries.
    tracemalloc.start()
    try:
        for make in (lambda: CayleySpec(cyclic_group(50_000), (1, 7)),
                     lambda: toroidal_cayley_spec(600)):
            spec = make()
            D = cayley_digraph(spec)
            fam = left_translations(spec)
            assert fam.certifies(D) and len(fam) == D.n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"
