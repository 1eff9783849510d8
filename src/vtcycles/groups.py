"""Finite groups, Cayley digraphs, and the left-translation automorphism
families that certify vertex transitivity through a Schreier vector
(:func:`schreier_vector`).

Group elements are plain ids into a canonical ordering; there is no symbolic
group theory here because everything downstream only needs multiplication
and inversion.  The named groups (cyclic, dihedral and their direct
products) multiply and invert by formula and build no table, so a Cayley
host of order n and its transitivity certificate cost O(n*|S|) for a
generating set S.  A raw multiplication table (:func:`group_from_table`,
or a bare :class:`GroupTable`) keeps its table, and
:func:`left_translations` checks its rows and columns.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Callable

from .digraph import Digraph

ASSOC_EXACT_LIMIT = 256     # O(order^3) associativity check up to here
ASSOC_SAMPLES = 10_000      # sampled triples above, fixed seed


class GroupAxiomError(ValueError):
    """A raw table violates a group axiom; carries a witness."""


class Group:
    """A finite group on the ids 0..order-1, with ``identity``, ``mul``,
    ``inv`` and ``row(a)``, the left translation x -> a*x as a tuple."""

    def element_order(self, a: int) -> int:
        x = a
        k = 1
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    def order_multiset(self) -> tuple:
        """Sorted element orders; a cheap isomorphism invariant."""
        return tuple(sorted(self.element_order(a) for a in range(self.order)))


@dataclass(frozen=True)
class GroupTable(Group):
    """Finite group: order, multiplication table, identity, inverses.

    Construct through :func:`group_from_table` so the axioms are actually
    checked.  A bare ``GroupTable`` skips them; :func:`left_translations`
    still checks its rows and columns.
    """

    order: int
    mult: tuple
    identity: int
    inverse: tuple
    name: str = field(default="group", compare=False)

    def mul(self, a: int, b: int) -> int:
        return self.mult[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def row(self, a: int) -> tuple:
        return self.mult[a]


@dataclass(frozen=True, eq=False)
class FormulaGroup(Group):
    """A named group whose ``mul``, ``inv`` and ``row`` are formulas on the
    element ids.  Its ``mult`` and ``inverse`` tables are built on first
    read; only a product with a raw table reads them."""

    order: int
    identity: int
    mul: Callable
    inv: Callable
    row: Callable
    name: str

    @cached_property
    def mult(self) -> tuple:
        return tuple(map(self.row, range(self.order)))

    @cached_property
    def inverse(self) -> tuple:
        return tuple(map(self.inv, range(self.order)))


def group_from_table(raw) -> GroupTable:
    """Validate a raw multiplication table and wrap it as a GroupTable.

    Closure, identity and inverse laws are checked exactly.  Associativity
    is exact up to order 256 and sampled (10^4 fixed-seed triples) above
    that, since the full check is cubic.  Violations raise
    :class:`GroupAxiomError` with a witness.
    """
    mult = tuple(tuple(row) for row in raw)
    n = len(mult)
    if n == 0:
        raise GroupAxiomError("empty table")
    for a, row in enumerate(mult):
        if len(row) != n:
            raise GroupAxiomError(f"row {a} has length {len(row)}, expected {n}")
        for b, c in enumerate(row):
            if not (0 <= c < n):
                raise GroupAxiomError(f"closure fails: table[{a}][{b}] = {c}")

    identity = None
    for e in range(n):
        if all(mult[e][a] == a and mult[a][e] == a for a in range(n)):
            identity = e
            break
    if identity is None:
        raise GroupAxiomError("no identity element")

    inverse = [None] * n
    for a in range(n):
        for b in range(n):
            if mult[a][b] == identity and mult[b][a] == identity:
                inverse[a] = b
                break
        if inverse[a] is None:
            raise GroupAxiomError(f"element {a} has no inverse")

    if n <= ASSOC_EXACT_LIMIT:
        triples = ((a, b, c) for a in range(n) for b in range(n) for c in range(n))
    else:
        rng = random.Random(0)
        triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n))
                   for _ in range(ASSOC_SAMPLES))
    for a, b, c in triples:
        if mult[mult[a][b]][c] != mult[a][mult[b][c]]:
            raise GroupAxiomError(f"associativity fails at witness ({a},{b},{c})")

    return GroupTable(n, mult, identity, tuple(inverse))


def cyclic_group(n: int) -> FormulaGroup:
    if n < 1:
        raise ValueError("cyclic group order must be at least 1")
    return FormulaGroup(n, 0, lambda a, b: (a + b) % n, lambda a: -a % n,
                        lambda a: tuple(range(a, n)) + tuple(range(a)), f"Z{n}")


def direct_product(g1: Group, g2: Group) -> Group:
    """Direct product with lexicographic pair ordering: (a,b) -> a*|G2|+b.

    A formula group when both factors are; otherwise its table is built
    and returned as a :class:`GroupTable`, so that a raw factor stays
    subject to the row checks of :func:`left_translations`."""
    n2 = g2.order

    def mul(a, b):
        a1, a2 = divmod(a, n2)
        b1, b2 = divmod(b, n2)
        return g1.mul(a1, b1) * n2 + g2.mul(a2, b2)

    def inv(a):
        a1, a2 = divmod(a, n2)
        return g1.inv(a1) * n2 + g2.inv(a2)

    def row(a):
        a1, a2 = divmod(a, n2)
        return tuple(c1 * n2 + c2 for c1 in g1.row(a1) for c2 in g2.row(a2))

    g = FormulaGroup(g1.order * n2, g1.identity * n2 + g2.identity,
                     mul, inv, row, f"{g1.name}x{g2.name}")
    if isinstance(g1, FormulaGroup) and isinstance(g2, FormulaGroup):
        return g
    return GroupTable(g.order, g.mult, g.identity, g.inverse, g.name)


def dihedral_group(m: int) -> FormulaGroup:
    """Dihedral group of order 2m; ids 0..m-1 are rotations r^i, ids
    m..2m-1 are reflections s*r^i."""
    if m < 1:
        raise ValueError("dihedral parameter must be at least 1")
    n = 2 * m

    def mul(a, b):
        e1, i1 = divmod(a, m)
        e2, i2 = divmod(b, m)
        # s^e1 r^i1 * s^e2 r^i2 = s^(e1+e2) r^(i2-i1) when e2=1, else r^(i1+i2)
        if e2 == 0:
            return e1 * m + (i1 + i2) % m
        return (e1 ^ 1) * m + (i2 - i1) % m

    def inv(a):
        return a if a >= m else -a % m  # reflections are involutions

    return FormulaGroup(n, 0, mul, inv,
                        lambda a: tuple(mul(a, b) for b in range(n)), f"D{m}")


def product_element(n2: int, pair) -> int:
    """Id of element (a, b) of a product group whose right factor has order n2."""
    a, b = pair
    return a * n2 + b


# --- Cayley digraphs ------------------------------------------------------

@dataclass(frozen=True)
class CayleySpec:
    """A group plus a generating set; the certified source of transitivity.

    The identity is rejected as a generator (it would create self-loops),
    and the set must generate the whole group: the orbit of the identity
    under right multiplication by the generators must be all of it.
    """

    group: Group
    generators: tuple

    def __post_init__(self):
        gens = tuple(sorted(set(self.generators)))
        object.__setattr__(self, "generators", gens)
        g = self.group
        if not gens:
            raise ValueError("empty generator set")
        for s in gens:
            if not (0 <= s < g.order):
                raise ValueError(f"generator {s} out of range")
        if g.identity in gens:
            raise ValueError("identity generator would create self-loops")
        columns = [[g.mul(x, s) for x in range(g.order)] for s in gens]
        reached = len(schreier_vector(columns, g.identity))
        if reached != g.order:
            raise ValueError(
                f"generators {gens} generate only {reached} of "
                f"{g.order} elements")

    @cached_property
    def _digraph(self) -> Digraph:
        g = self.group
        arcs = [(x, g.mul(x, s)) for x in range(g.order) for s in self.generators]
        D = Digraph(g.order, arcs)
        assert D.regularity() == len(self.generators)
        assert D.is_strongly_connected()
        return D


def cayley_digraph(spec: CayleySpec) -> Digraph:
    """Arc x -> y iff x^{-1} y is a generator, i.e. y = x*s.

    The result is |S|-regular and strongly connected; both are asserted
    rather than assumed.  It is built once per spec, so
    :func:`left_translations` checks the digraph its caller holds.
    """
    return spec._digraph


class AutomorphismFamily:
    """Vertex permutations of some host: an explicit list of members, or
    the left translations of a formula group (``group``), x -> h*x for each
    element h, built as its rows on the first read of ``permutations``.
    ``len``, :meth:`is_transitive` and :meth:`certifies` never build them.

    Validation against a concrete host lives in :meth:`validate_digraph`,
    which also serves an undirected ``Graph`` (a symmetric digraph);
    constructors that hand out families are expected to call it.

    ``generators`` optionally keeps the few permutations the members were
    built from (the certificate of :func:`left_translations` and of the
    automorphism search).  :meth:`certifies` re-checks them against a
    given host.  Explicit members and generators are checked to be
    permutations of 0..n-1.
    """

    def __init__(self, n: int, permutations=(), generators=(), group=None):
        self.n = n
        self.generators = _permutations(n, generators)
        self.group = group
        self._certified = None   # the last digraph certifies passed
        if group is None:  # an explicit list stands in for the built rows
            self.permutations = _permutations(n, permutations)

    @cached_property
    def permutations(self) -> tuple:
        return tuple(map(self.group.row, range(self.n)))

    def __len__(self):
        return self.n if self.group is not None else len(self.permutations)

    def validate_digraph(self, D: Digraph) -> None:
        if D.n != self.n:
            raise ValueError("host size mismatch")
        _check_arcs(D, self.permutations)

    def certifies(self, D: Digraph) -> bool:
        """True iff the generators prove D vertex-transitive: there is at
        least one, each preserves every arc of D, and the orbit of vertex 0
        under them is all of D.  Then the group they generate acts
        transitively by automorphisms, whatever the members are.  Costs
        k*m ``has_arc`` calls and one Schreier vector, except for the
        digraph that passed last: the family and D are both immutable, so
        it passes again at once.  Never raises."""
        if D is self._certified:
            return True
        if not self.generators or D.n != self.n:
            return False
        try:
            _check_arcs(D, self.generators)
        except ValueError:
            return False
        if len(schreier_vector(self.generators, 0)) != self.n:
            return False
        self._certified = D
        return True

    def is_transitive(self) -> bool:
        """True iff for every ordered pair (u,v) some member maps u to v,
        i.e. every column of the members holds all n vertices.  The left
        translations of a group always are: x -> v*u^-1*x maps u to v."""
        if self.group is not None:
            return True
        if not self.permutations:
            return self.n == 0
        return all(len(set(col)) == self.n for col in zip(*self.permutations))


def _check_arcs(D: Digraph, maps) -> None:
    for p in maps:
        for u, v in D.arcs():
            if not D.has_arc(p[u], p[v]):
                raise ValueError(f"permutation does not preserve arc ({u},{v})")


def _permutations(n: int, maps) -> tuple:
    maps = tuple(tuple(p) for p in maps)
    points = list(range(n))
    for p in maps:
        if len(p) != n or sorted(p) != points:
            raise ValueError("family member is not a permutation")
    return maps


def schreier_vector(maps, root: int) -> dict:
    """Breadth-first orbit of root under maps (sequences indexed by point).

    Each point reached maps to the (point, map) pair that first reached it,
    and root maps to None.  Keys are in BFS order, so every point comes
    after its parent."""
    vector = {root: None}
    queue = [root]
    for v in queue:
        for p in maps:
            w = p[v]
            if w not in vector:
                vector[w] = (v, p)
                queue.append(w)
    return vector


def left_translations(spec: CayleySpec) -> AutomorphismFamily:
    """Left multiplication maps x -> g*x, one per group element.

    Translations by generators preserve arcs because (sx)^{-1}(sy) =
    x^{-1}y, which is checked against every arc, and their Schreier vector
    from the identity must cover the group; ``ValueError`` otherwise.  For
    a formula group that is the whole check, the one
    :meth:`AutomorphismFamily.certifies` makes: the family keeps the
    generator rows and the group, and lists its members only when they are
    read.  A raw table is trusted no further than its rows: every other row
    must be its Schreier-vector parent's row followed by that edge's
    generator, and every column must hold every element.
    """
    g = spec.group
    D = cayley_digraph(spec)
    gens = [g.row(s) for s in spec.generators]
    if isinstance(g, FormulaGroup):
        fam = AutomorphismFamily(g.order, generators=gens, group=g)
        if not fam.certifies(D):
            raise ValueError("generator translations do not certify the host")
        return fam
    AutomorphismFamily(g.order, gens).validate_digraph(D)
    vector = schreier_vector(gens, g.identity)
    if len(vector) != g.order:
        h = next(h for h in range(g.order) if h not in vector)
        raise ValueError(f"row {h} is not a product of generator rows")
    identity = tuple(range(g.order))
    for h, step in vector.items():  # parents first: composed rows are checked
        if g.mult[h] != (identity if step is None else
                         itemgetter(*g.mult[step[0]])(step[1])):
            raise ValueError(f"row {h} is not a product of generator rows")
    fam = AutomorphismFamily(g.order, g.mult, gens)
    if not fam.is_transitive():
        raise ValueError("left translations are not transitive")
    return fam


# --- CayleySpec text format -----------------------------------------------

def parse_cayley_spec(text: str) -> CayleySpec:
    """Two-line format: ``cyclic n`` / ``product n1 n2`` / ``dihedral m``,
    then a generator list such as ``1,3`` or ``(1,0),(0,1)``."""
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    if len(lines) != 2:
        raise ValueError("expected two non-comment lines: group, generators")
    group = parse_group(lines[0])
    gens = parse_generators(lines[1], group_kind=lines[0].split()[0],
                            params=[int(t) for t in lines[0].split()[1:]])
    return CayleySpec(group, tuple(gens))


def parse_group(token: str) -> Group:
    parts = token.split()
    kind = parts[0]
    args = [int(t) for t in parts[1:]]
    if kind == "cyclic" and len(args) == 1:
        return cyclic_group(args[0])
    if kind == "product" and len(args) == 2:
        return direct_product(cyclic_group(args[0]), cyclic_group(args[1]))
    if kind == "dihedral" and len(args) == 1:
        return dihedral_group(args[0])
    raise ValueError(f"unrecognized group spec {token!r}")


def parse_generators(text: str, group_kind: str, params) -> list:
    """Generator ids from ``1,3`` (cyclic, dihedral) or ``(1,0),(0,1)``
    (product: every generator a parenthesised pair, else ``ValueError``
    naming the chunk)."""
    text = text.strip()
    if group_kind == "product":
        pairs = []
        # split at the commas that lie outside parentheses
        for chunk in re.split(r",(?![^(]*\))", text.replace(" ", "")):
            pair = re.fullmatch(r"\((\d+),(\d+)\)", chunk)
            if pair is None:
                raise ValueError(
                    f"product generator {chunk!r} is not a pair like (1,0)")
            a, b = int(pair[1]), int(pair[2])
            if not (0 <= a < params[0] and 0 <= b < params[1]):
                raise ValueError(f"product generator {chunk!r} out of range")
            pairs.append((a, b))
        return [product_element(params[1], p) for p in pairs]
    return [int(t) for t in text.replace(",", " ").split()]


def format_cayley_spec(kind: str, params, generators) -> str:
    head = f"{kind} {' '.join(str(p) for p in params)}"
    if kind == "product":
        n2 = params[1]
        gens = ",".join(f"({g // n2},{g % n2})" for g in generators)
    else:
        gens = ",".join(str(g) for g in generators)
    return f"{head}\n{gens}\n"
