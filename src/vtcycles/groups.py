"""Finite groups as multiplication tables, Cayley digraphs, and the
left-translation automorphism families that certify vertex transitivity
through a Schreier vector (:func:`schreier_vector`).

Group elements are plain ids into a canonical ordering; there is no symbolic
group theory here because everything downstream only needs multiplication
and inversion.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from operator import itemgetter

from .digraph import Digraph

ASSOC_EXACT_LIMIT = 256     # O(order^3) associativity check up to here
ASSOC_SAMPLES = 10_000      # sampled triples above, fixed seed


class GroupAxiomError(ValueError):
    """A raw table violates a group axiom; carries a witness."""


@dataclass(frozen=True)
class GroupTable:
    """Finite group: order, multiplication table, identity, inverses.

    Construct through :func:`group_from_table` (or the named constructors
    below) so the axioms are actually checked.
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

    def element_order(self, a: int) -> int:
        x = a
        k = 1
        while x != self.identity:
            x = self.mult[x][a]
            k += 1
        return k

    def order_multiset(self) -> tuple:
        """Sorted element orders; a cheap isomorphism invariant."""
        return tuple(sorted(self.element_order(a) for a in range(self.order)))


def group_from_table(raw, name: str = "group") -> GroupTable:
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

    return GroupTable(n, mult, identity, tuple(inverse), name)


def cyclic_group(n: int) -> GroupTable:
    if n < 1:
        raise ValueError("cyclic group order must be at least 1")
    # Row a is the rotation of 0..n-1 by a, so the n^2 entries share n int
    # objects instead of allocating one per entry.
    elems = tuple(range(n))
    mult = tuple(elems[a:] + elems[:a] for a in range(n))
    inverse = tuple((-a) % n for a in range(n))
    return GroupTable(n, mult, 0, inverse, f"Z{n}")


def direct_product(g1: GroupTable, g2: GroupTable) -> GroupTable:
    """Direct product with lexicographic pair ordering: (a,b) -> a*|G2|+b."""
    n2 = g2.order
    mult = tuple(tuple(c1 * n2 + c2 for c1 in row1 for c2 in row2)
                 for row1 in g1.mult for row2 in g2.mult)
    inverse = tuple(i1 * n2 + i2 for i1 in g1.inverse for i2 in g2.inverse)
    return GroupTable(g1.order * n2, mult, g1.identity * n2 + g2.identity,
                      inverse, f"{g1.name}x{g2.name}")


def dihedral_group(m: int) -> GroupTable:
    """Dihedral group of order 2m; ids 0..m-1 are rotations r^i, ids
    m..2m-1 are reflections s*r^i.  Goes through the axiom checker."""
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

    table = [[mul(a, b) for b in range(n)] for a in range(n)]
    return group_from_table(table, name=f"D{m}")


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

    group: GroupTable
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
        columns = [[row[s] for row in g.mult] for s in gens]
        reached = len(schreier_vector(columns, g.identity))
        if reached != g.order:
            raise ValueError(
                f"generators {gens} generate only {reached} of "
                f"{g.order} elements")


def cayley_digraph(spec: CayleySpec) -> Digraph:
    """Arc x -> y iff x^{-1} y is a generator, i.e. y = x*s.

    The result is |S|-regular and strongly connected; both are asserted
    rather than assumed.
    """
    g = spec.group
    arcs = [(x, g.mult[x][s]) for x in range(g.order) for s in spec.generators]
    D = Digraph(g.order, arcs)
    assert D.regularity() == len(spec.generators)
    assert D.is_strongly_connected()
    return D


@dataclass(frozen=True)
class AutomorphismFamily:
    """A list of vertex permutations of some host.

    Validation against a concrete host lives in :meth:`validate_digraph`,
    which also serves an undirected ``Graph`` (a symmetric digraph);
    constructors that hand out families are expected to call it.

    ``generators`` optionally keeps the few permutations the members were
    built from (the certificate of :func:`left_translations` and of the
    automorphism search).  It takes no part in equality, hashing or repr.
    :meth:`certifies` re-checks them against a given host.
    """

    n: int
    permutations: tuple
    generators: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        perms = tuple(tuple(p) for p in self.permutations)
        gens = tuple(tuple(p) for p in self.generators)
        object.__setattr__(self, "permutations", perms)
        object.__setattr__(self, "generators", gens)
        points = list(range(self.n))
        for p in perms + gens:
            if len(p) != self.n or sorted(p) != points:
                raise ValueError("family member is not a permutation")

    def __len__(self):
        return len(self.permutations)

    def validate_digraph(self, D: Digraph) -> None:
        if D.n != self.n:
            raise ValueError("host size mismatch")
        for p in self.permutations:
            for u, v in D.arcs():
                if not D.has_arc(p[u], p[v]):
                    raise ValueError(
                        f"permutation does not preserve arc ({u},{v})")

    def certifies(self, D: Digraph) -> bool:
        """True iff the generators prove D vertex-transitive: there is at
        least one, each preserves every arc of D, and the orbit of vertex 0
        under them is all of D.  Then the group they generate acts
        transitively by automorphisms, whatever the members are.  Costs
        k*m ``has_arc`` calls and one Schreier vector; never raises."""
        if not self.generators or D.n != self.n:
            return False
        try:
            AutomorphismFamily(self.n, self.generators).validate_digraph(D)
        except ValueError:
            return False
        return len(schreier_vector(self.generators, 0)) == self.n

    def is_transitive(self) -> bool:
        """True iff for every ordered pair (u,v) some member maps u to v,
        i.e. every column of the members holds all n vertices."""
        if not self.permutations:
            return self.n == 0
        return all(len(set(col)) == self.n for col in zip(*self.permutations))


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
    x^{-1}y, which is checked against every arc.  Every other row must be
    its Schreier-vector parent's row followed by that edge's generator, and
    the family must act transitively; ``ValueError`` otherwise.
    """
    g = spec.group
    D = cayley_digraph(spec)
    gens = [g.mult[s] for s in spec.generators]
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


def parse_group(token: str) -> GroupTable:
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
