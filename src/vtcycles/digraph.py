"""Immutable digraphs, their undirected shadows, and basic structural queries.

Everything downstream (group constructions, expansion scans, cycle machinery)
consumes the one carrier type defined here, ``Digraph``, or its symmetric
case ``Graph``, whose edges are pairs of opposite arcs.  Instances never
mutate after construction, so they can be shared freely; every query is a
pure function of its arguments.  Vertex sets are plain ``frozenset``
objects, distances use ``INF`` for unreachable pairs, and undecided search
verdicts use the ``UNKNOWN`` singleton rather than ``None``.  Exhaustive
searches count their nodes against a ``Budget``; ``Budget.over`` lets one
run uncapped only over at most ``EXACT_DEFAULT_MAX`` items.

Bitset traversal goes through four helpers: ``adjacency_masks`` turns
adjacency rows into per-vertex bitmasks, ``shift_classes`` groups the arcs
v -> w by their offset (w - v) mod n, ``bitset_bfs`` runs one
level-synchronous BFS over masks, optionally inside an ``allowed`` vertex
mask and, given in-neighbor masks, direction-optimizing (a level wider
than the unreached set steps bottom up; ``Graph`` passes its own masks),
and ``reacher`` serves the searches that need only reach sets: it
fills by the shift classes when there are few of them for n, as on a
Cayley host on cyclic or product ids, and runs ``bitset_bfs`` otherwise.
``Digraph`` stays sparse (sorted tuples and a list BFS): hosts reach
thousands of vertices, where n masks of n bits each cost more than they
save.  ``Graph`` is the opposite: its neighbor masks are its state, and
its sorted adjacency tuples are derived only when something reads them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

INF = math.inf  # sentinel for unreachable distances / infinite diameter


class Unknown:
    """Verdict for searches that exhausted their budget without deciding."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNKNOWN"

    def __bool__(self):
        raise TypeError("UNKNOWN has no truth value; compare with 'is UNKNOWN'")


UNKNOWN = Unknown()

EXACT_DEFAULT_MAX = 20  # most items an exhaustive search may walk uncapped


class Budget:
    """Node budget shared by the steps of an exhaustive search.

    ``cap`` None means unbounded.  Each ``spend`` charges one node and says
    whether it stayed within the cap; the search stops at the first refused
    node, so an exhausted budget reads ``used == cap + 1``.
    """

    __slots__ = ("used", "cap")

    def __init__(self, cap=None):
        self.used = 0
        self.cap = cap

    @classmethod
    def over(cls, n: int, cap=None) -> "Budget":
        """The budget of an exhaustive search over n items; an uncapped one
        over more than ``EXACT_DEFAULT_MAX`` items raises ``ValueError``."""
        if cap is None and n > EXACT_DEFAULT_MAX:
            raise ValueError(f"n={n} needs an explicit budget")
        return cls(cap)

    def spend(self) -> bool:
        self.used += 1
        return self.cap is None or self.used <= self.cap

    def spend_many(self, k: int) -> bool:
        """Charge k nodes as k calls of ``spend`` would, stopping at the
        first refused one: past the cap ``used`` reads ``cap + 1``."""
        self.used += k
        if self.cap is None or self.used <= self.cap:
            return True
        self.used = self.cap + 1
        return False

    @property
    def exhausted(self) -> bool:
        return self.cap is not None and self.used > self.cap


def iter_bits(mask: int):
    """Indices of the set bits of ``mask``, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# --- breadth-first search over an adjacency tuple ---------------------------

def _bfs(adj, sources):
    """Distances from the nearest of ``sources`` (INF where unreachable) and
    BFS parents (-1 at sources and unreached vertices).  Sources are queued
    in the given order and each vertex keeps the first parent that reaches
    it, scanning sorted adjacency, so routes are deterministic."""
    dist = [INF] * len(adj)
    parent = [-1] * len(adj)
    q = deque()
    for s in sources:
        if not (0 <= s < len(adj)):
            raise ValueError(f"source {s} out of range")
        dist[s] = 0
        q.append(s)
    while q:
        v = q.popleft()
        for w in adj[v]:
            if dist[w] == INF:
                dist[w] = dist[v] + 1
                parent[w] = v
                q.append(w)
    return dist, parent


def shortest_route(adj, sources, target: int):
    """A shortest path from any of ``sources`` to ``target`` over the
    adjacency tuple ``adj``, as a vertex list; None if unreachable.  Ties
    break as in ``_bfs``."""
    dist, parent = _bfs(adj, sources)
    if dist[target] == INF:
        return None
    path = [target]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def adjacency_masks(rows) -> list:
    """Each adjacency row (of distinct vertex ids) as a bitmask."""
    return [sum(1 << w for w in row) for row in rows]


def shift_classes(rows) -> tuple:
    """The arcs v -> w of the adjacency ``rows`` grouped by their offset
    d = (w - v) mod n, as (d, source mask) pairs in ascending d: the source
    mask holds every v whose arc of offset d is present.  A Cayley host on
    cyclic or product ids has one class per generator, or two for a
    generator whose step wraps around in the last coordinate."""
    n = len(rows)
    sources = {}
    for v, row in enumerate(rows):
        for w in row:
            d = (w - v) % n
            sources[d] = sources.get(d, 0) | 1 << v
    return tuple(sorted(sources.items()))


def bitset_bfs(masks, start: int, allowed: int = -1, inn=None):
    """Level-synchronous BFS from ``start`` over the neighbor ``masks``,
    confined to the vertex mask ``allowed`` (which must contain ``start``).
    A top-down step ORs the level's masks and keeps the unreached vertices.
    Given the in-neighbor masks ``inn``, a level that outnumbers the
    unreached allowed vertices takes a bottom-up step instead (Beamer,
    Asanovic and Patterson, SC 2012): each such vertex joins the next level
    when its in-neighbors meet the current one.  Both steps give the same
    levels.  Returns (reached mask, number of levels after ``start``, last
    nonempty level mask)."""
    reached = level = 1 << start
    unreached = allowed & ((1 << len(masks)) - 1) & ~reached
    depth = 0
    while True:
        nxt = 0
        if inn is not None and level.bit_count() > unreached.bit_count():
            rest = unreached
            while rest:
                low = rest & -rest
                if inn[low.bit_length() - 1] & level:
                    nxt |= low
                rest ^= low
        else:
            rest = level
            while rest:
                low = rest & -rest
                nxt |= masks[low.bit_length() - 1]
                rest ^= low
            nxt &= unreached
        if not nxt:
            return reached, depth, level
        reached |= nxt
        unreached ^= nxt
        level = nxt
        depth += 1


def _fill(classes, n: int, start: int, allowed: int) -> int:
    """The vertices that ``start`` reaches inside ``allowed`` over the arcs
    of the ``shift_classes`` ``classes`` of an n-vertex digraph.  Each class
    (d, M) is closed by doubling (Kogge and Stone 1973): after k rounds,
    ``reached`` holds what it reached before the class in fewer than 2^k
    steps of d, and ``pro`` the heads whose last 2^k steps of d are all arcs
    inside ``allowed``.  The rounds stop once one adds nothing or 2^k * d is
    a multiple of n; the classes are swept until a sweep adds nothing, or
    until every vertex of ``allowed`` is reached."""
    allowed &= (1 << n) - 1
    reached, before = 1 << start, 0
    while reached != before:
        before = reached
        for d, sources in classes:
            pro = (sources << d | sources >> (n - d)) & allowed
            s = d
            while s and pro:
                gen = reached | pro & (reached << s | reached >> (n - s))
                if gen == reached:
                    break
                reached = gen
                pro &= pro << s | pro >> (n - s)
                s = 2 * s % n
            if reached == allowed:   # no class can add a vertex
                return reached
    return reached


def reacher(rows):
    """A function (start, allowed) -> the mask of vertices that ``start``
    reaches inside the vertex mask ``allowed`` over the adjacency ``rows``.
    When one sweep of ``_fill`` over the shift classes costs no more than
    expanding every vertex once (classes * bit length of n <= n), it fills
    by the classes and builds no per-vertex mask; otherwise it runs
    ``bitset_bfs`` over the rows' masks.  Its ``route`` names the choice."""
    n = len(rows)
    classes = shift_classes(rows)
    if len(classes) * n.bit_length() <= n:
        def reach(start, allowed):
            return _fill(classes, n, start, allowed)
        reach.route = f"fill over {len(classes)} shift classes"
    else:
        masks = adjacency_masks(rows)

        def reach(start, allowed):
            return bitset_bfs(masks, start, allowed)[0]
        reach.route = "bitset BFS"
    return reach


class Digraph:
    """Finite simple digraph on vertices 0..n-1 with sorted adjacency.

    Self-loops are rejected.  Digons (both u->v and v->u present) are fine
    and count as directed 2-cycles.  ``inn`` is the exact transpose of
    ``out``; both are tuples of sorted tuples, so iteration order is fixed
    and ties always break toward the lowest vertex id.
    """

    __slots__ = ("n", "out", "inn", "_strong")

    def __init__(self, n: int, arcs):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        heads = [set() for _ in range(n)]   # one set per tail
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            heads[u].add(v)
        out = tuple(tuple(sorted(vs)) for vs in heads)
        del heads   # freed before inn is built: the peak of large hosts
        inn = [[] for _ in range(n)]
        for u, vs in enumerate(out):   # ascending tails: sorted rows
            for v in vs:
                inn[v].append(u)
        self.n = n
        self.out = out
        self.inn = tuple(tuple(us) for us in inn)

    @property
    def arc_count(self) -> int:
        return sum(len(vs) for vs in self.out)

    def arcs(self):
        for u in range(self.n):
            for v in self.out[u]:
                yield (u, v)

    def has_arc(self, u: int, v: int) -> bool:
        row = self.out[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def __eq__(self, other):
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.out == other.out

    def __hash__(self):
        return hash((self.n, self.out))

    def __repr__(self):
        return f"Digraph(n={self.n}, arcs={self.arc_count})"

    def check_vertex_set(self, members) -> frozenset:
        U = frozenset(members)
        for v in U:
            if not (0 <= v < self.n):
                raise ValueError(f"vertex {v} out of range for n={self.n}")
        return U

    def out_neighborhood(self, members) -> frozenset:
        """External out-neighborhood: heads of arcs leaving ``members``."""
        return self._neighborhood(self.out, members)

    def in_neighborhood(self, members) -> frozenset:
        """External in-neighborhood: tails of arcs entering ``members``."""
        return self._neighborhood(self.inn, members)

    def _neighborhood(self, rows, members) -> frozenset:
        U = self.check_vertex_set(members)
        res = set()
        for u in U:
            res.update(rows[u])
        return frozenset(res - U)

    def bfs_distances(self, source: int, reverse: bool = False) -> list:
        """Exact directed distances from ``source``; INF where unreachable."""
        return _bfs(self.inn if reverse else self.out, (source,))[0]

    def shortest_path(self, source: int, target: int):
        """A shortest directed path as a vertex list, or None.

        Parent choice prefers the lowest vertex id, so the result is
        deterministic.
        """
        return shortest_route(self.out, (source,), target)

    def _farthest_pair(self):
        """(max distance, first pair attaining it), (INF, None) if a pair is
        unreachable, by one list BFS per source: on sparse directed hosts
        (Z2000<1,7>, C30xC30) it beat the bitset BFS of ``Graph``."""
        best, pair = 0, None
        for s in range(self.n):
            row = self.bfs_distances(s)
            far = max(row)
            if far == INF:
                return INF, None
            if far > best or pair is None:
                best, pair = far, (s, row.index(far))
        return best, pair

    def directed_diameter(self):
        """Max pairwise directed distance; INF iff not strongly connected."""
        return self._farthest_pair()[0]

    def diameter_path(self):
        """A shortest path realizing the diameter (lexicographically first
        source/target pair), or None when not strongly connected."""
        pair = self._farthest_pair()[1]
        return None if pair is None else self.shortest_path(*pair)

    def is_strongly_connected(self) -> bool:
        """Computed on the first call only: the digraph never changes."""
        try:
            return self._strong
        except AttributeError:
            self._strong = self.n <= 1 or (
                INF not in self.bfs_distances(0)
                and INF not in self.bfs_distances(0, reverse=True))
            return self._strong

    def regularity(self):
        """Common in/out degree r if the digraph is r-regular, else None."""
        if self.n == 0:
            return None
        r = len(self.out[0])
        for v in range(self.n):
            if len(self.out[v]) != r or len(self.inn[v]) != r:
                return None
        return r

    def induced_subdigraph(self, keep):
        """Sub-digraph on ``keep``; returns (digraph, old-id list)."""
        keep = sorted(self.check_vertex_set(keep))
        idx = {v: i for i, v in enumerate(keep)}
        arcs = [(idx[u], idx[v]) for u in keep for v in self.out[u] if v in idx]
        return Digraph(len(keep), arcs), keep

    def underlying_graph(self) -> "Graph":
        """Forget directions; digons collapse to a single edge."""
        return Graph(self.n, self.arcs())


class Graph(Digraph):
    """Undirected simple graph on 0..n-1: the symmetric digraph whose state
    is its neighbor bitmasks ``masks``.  ``edges`` may repeat pairs in either
    orientation.  The sorted adjacency ``adj``, both ``out`` and ``inn``, is
    built from the masks on first read."""

    __slots__ = ("masks", "_adj")

    def __init__(self, n: int, edges):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n, self.masks, self._adj = n, tuple(masks), None

    @classmethod
    def from_masks(cls, masks) -> "Graph":
        """The graph in which vertex v has neighbor mask ``masks[v]``.  Each
        mask must fit in n bits and leave out its own bit; symmetry is the
        caller's invariant and is not checked."""
        masks = tuple(masks)
        n = len(masks)
        for v, m in enumerate(masks):
            if m >> n:
                raise ValueError(f"mask of vertex {v} out of range for n={n}")
            if m >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        G = cls.__new__(cls)
        G.n, G.masks, G._adj = n, masks, None
        return G

    @property
    def adj(self) -> tuple:
        if self._adj is None:
            self._adj = tuple(tuple(iter_bits(m)) for m in self.masks)
        return self._adj

    out = inn = adj

    def has_arc(self, u: int, v: int) -> bool:
        return self.masks[u] >> v & 1 == 1

    has_edge = has_arc

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.masks) // 2

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count})"

    def _farthest_pair(self):
        """``Digraph._farthest_pair`` by one ``bitset_bfs`` per source.  The
        eccentricity is the number of levels, and the lowest vertex of the
        last level is the first one at that distance."""
        full = (1 << self.n) - 1
        best, pair = 0, None
        for s in range(self.n):
            reached, ecc, last = bitset_bfs(self.masks, s, inn=self.masks)
            if reached != full:
                return INF, None
            if ecc > best or pair is None:
                best, pair = ecc, (s, (last & -last).bit_length() - 1)
        return best, pair

    def diameter(self):
        return self._farthest_pair()[0]


@dataclass(frozen=True)
class DirectedPath:
    """Ordered distinct vertices; every consecutive pair is an arc."""

    vertices: tuple

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


@dataclass(frozen=True)
class DirectedCycle:
    """Cyclically closed distinct vertex sequence, rotated so the smallest
    vertex comes first.  Length counts arcs, which equals the vertex count;
    a digon is a valid 2-cycle."""

    vertices: tuple

    @property
    def length(self) -> int:
        return len(self.vertices)

    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices)


def directed_path(D: Digraph, vertices) -> DirectedPath:
    """Validate a vertex sequence as a directed path of ``D``."""
    vs = tuple(vertices)
    if not vs:
        raise ValueError("empty path")
    if len(set(vs)) != len(vs):
        raise ValueError("path repeats a vertex")
    for u, v in zip(vs, vs[1:]):
        if not D.has_arc(u, v):
            raise ValueError(f"({u},{v}) is not an arc")
    return DirectedPath(vs)


def canonical_rotation(vertices) -> tuple:
    vs = tuple(vertices)
    i = vs.index(min(vs))
    return vs[i:] + vs[:i]


def directed_cycle(D: Digraph, vertices) -> DirectedCycle:
    """Validate a vertex sequence as a directed cycle of ``D``."""
    vs = tuple(vertices)
    if len(vs) < 2:
        raise ValueError("a directed cycle has length at least 2")
    if len(set(vs)) != len(vs):
        raise ValueError("cycle repeats a vertex")
    for u, v in zip(vs, vs[1:] + vs[:1]):
        if not D.has_arc(u, v):
            raise ValueError(f"({u},{v}) is not an arc")
    return DirectedCycle(canonical_rotation(vs))


def cartesian_product(D1: Digraph, D2: Digraph) -> Digraph:
    """Cartesian product; vertex (u1,u2) is flattened as u1*|V(D2)|+u2.

    One coordinate stays fixed while the other moves along an arc, so the
    arc count is n1*m2 + n2*m1.
    """
    if D1.n == 0 or D2.n == 0:
        raise ValueError("product factors must be nonempty")
    n2 = D2.n
    arcs = []
    for u1 in range(D1.n):
        base = u1 * n2
        for u2 in range(n2):
            for v2 in D2.out[u2]:
                arcs.append((base + u2, base + v2))
            for v1 in D1.out[u1]:
                arcs.append((base + u2, v1 * n2 + u2))
    return Digraph(D1.n * n2, arcs)


# --- text formats ---------------------------------------------------------

def write_edge_list(D: Digraph) -> str:
    """Line 1 is ``n m``, then one ``u v`` line per arc, 0-indexed."""
    lines = [f"{D.n} {D.arc_count}"]
    lines.extend(f"{u} {v}" for u, v in D.arcs())
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Digraph:
    """Parse the edge-list format; ``#`` starts a comment line."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            rows.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"line {lineno}: expected two integers, got {raw!r}")
    if not rows:
        raise ValueError("missing header line 'n m'")
    n, m = rows[0]
    arcs = rows[1:]
    if len(arcs) != m:
        raise ValueError(f"header declares {m} arcs, found {len(arcs)}")
    return Digraph(n, arcs)


def to_dot(D: Digraph) -> str:
    """DOT export; each digon is collapsed to a single dir=both edge."""
    lines = ["digraph D {"]
    done = set()
    for u, v in D.arcs():
        if (u, v) in done:
            continue
        if D.has_arc(v, u):
            done.add((v, u))
            lines.append(f"  {min(u, v)} -> {max(u, v)} [dir=both];")
        else:
            lines.append(f"  {u} -> {v};")
        done.add((u, v))
    lines.append("}")
    return "\n".join(lines) + "\n"
