"""The cycle intersection graph and the large-diameter route to long cycles:
enumerate directed cycles, build their intersection graph, lift automorphism
families onto it, extract a long induced cycle, and stitch it back into a
long directed cycle of the host.

Cycle enumeration is exponential in general, so its one full entry point,
``complete_directed_cycles``, carries a count cap: past the cap it returns
None and builds no cycle, and every conclusion that needs the complete
cycle set is withheld.  On a host certified vertex-transitive,
``_circuits_through_0`` walks only the cycles through vertex 0.

On a certified Cayley host Cay(G, S) the cap can be proved exceeded long
before the walk reaches it.  Every cycle is a translate of one through
vertex 0, and its class of translates is fixed by its cyclic word of arc
labels u^-1 v, a necklace: a word of length L and least period p stands
for n*p/L cycles.  Summed over the distinct necklaces of the circuits
through 0 walked so far, that is a lower bound on the cycle count
(:class:`_OrbitCount`), and ``complete_directed_cycles`` returns None as
soon as it passes the cap.
"""

from __future__ import annotations

import logging
import random
from array import array
from dataclasses import dataclass, field
from fractions import Fraction

from .digraph import (EXACT_DEFAULT_MAX, Budget, Digraph, DirectedCycle,
                      Graph, INF, canonical_rotation, directed_cycle,
                      iter_bits, reacher)
from .groups import AutomorphismFamily
from .longcycle import dfs_long_cycle
from .oracles import brute_longest_induced_cycle

DEFAULT_MAX_COUNT = 10 ** 6
SPOT_CHECK_PAIRS = 100

log = logging.getLogger("vtc")


class EnumerationIncomplete(RuntimeError):
    """An operation that needs every cycle of the host met a cycle graph
    built over only some of them."""


# --- enumeration -----------------------------------------------------------

def complete_directed_cycles(D: Digraph, max_count=None,
                             family: AutomorphismFamily = None):
    """All simple directed cycles of D, canonicalized, in the order of
    Johnson's walk (roots ascending, out-neighbors sorted), or None when
    there are more than ``max_count`` (10^6 when None).

    Without ``max_count``, n > 20 raises ``ValueError``.  The walk records
    each cycle as its change from the previous one, and the cycles are
    built from that record only once the walk has ended within the cap:
    past it, none is built.

    A ``family`` of left translations of a group (``family.group``) whose
    generators are translations of that group and certify D lets the walk
    stop early: once the translation classes of the circuits through
    vertex 0 (:class:`_OrbitCount`) hold more than ``max_count`` cycles,
    it returns None there.  The answer is the same; every other family is
    ignored.
    """
    if max_count is None and D.n > EXACT_DEFAULT_MAX:
        raise ValueError(
            f"unbounded enumeration is capped at n={EXACT_DEFAULT_MAX}; "
            "pass max_count")
    cap = DEFAULT_MAX_COUNT if max_count is None else max_count
    # a class holds at most n cycles, so the orbit count needs more than
    # cap // n circuits to pass the cap: it tallies those after the first
    # cap // n, and a walk that ends before them pays nothing for it
    orbits = None
    watch = cap
    group = None if family is None else family.group
    if group is not None and family.certifies(D) and all(
            p == group.row(p[group.identity]) for p in family.generators):
        orbits = _OrbitCount(D, group)
        watch = cap // D.n
    # cycle i is the first keeps[i] vertices of cycle i - 1 followed by the
    # next sizes[i] entries of tails.  All three hold machine integers of at
    # most n, two bytes each below n = 2^16, so a walk stopped at the cap
    # has held two bytes per recorded vertex and no object
    code = "H" if D.n < 1 << 16 else "q"
    keeps, sizes, tails = array(code), array(code), array(code)
    add_keep, add_size, add_tail = keeps.append, sizes.append, tails.fromlist
    count = 0
    for keep, path in _johnson(D):
        if count >= watch:
            if count >= cap:
                return None
            if path[0]:   # past the circuits through 0: the count decides
                watch = cap
            elif orbits.add(keep, path) > cap:
                log.info("complete_directed_cycles: more than %d cycles by "
                         "the orbits of %d necklaces through vertex 0, "
                         "after %d circuits", cap, len(orbits.seen),
                         count + 1)
                return None
        count += 1
        add_keep(keep)
        add_size(len(path) - keep)
        add_tail(path[keep:])
    vertex = list(range(D.n)).__getitem__   # one int object per vertex
    path, cycles, start = [], [], 0
    for keep, size in zip(keeps, sizes):
        end = start + size
        path[keep:] = map(vertex, tails[start:end])
        start = end
        cycles.append(DirectedCycle(tuple(path)))
    return cycles


class _OrbitCount:
    """A lower bound on the cycle count of D = Cay(G, S), read off its
    circuits through vertex 0 (Witte and Gallian 1984).

    The left translations of G act regularly and keep the label u^-1 v of
    an arc u -> v, so a circuit's class of translates is fixed by its
    cyclic label word w.  The class holds n*p/L cycles, p the least period
    of w and L its length: a translate fixes the cycle iff it rotates w by
    a multiple of p.  Two circuits through 0 lie in one class iff their
    words are rotations of each other, a necklace.  ``add`` sums n*p/L over
    the necklaces it has seen; over every circuit through 0 the sum is the
    cycle count.  Only the arcs of the circuits tallied are labelled, each
    once, so no table over all n vertices is built.  Consecutive circuits
    share a prefix, so each word is the previous one's prefix followed by
    the labels of the new arcs, and p is read off it by divisors of L
    (:func:`_least_period`), without doubling it."""

    def __init__(self, D: Digraph, group):
        self.D = D
        self.group = group
        # arc u -> u*s is labelled s, one character per generator s, so
        # that words compare, rotate and search as strings; ``alphabet``
        # lists them ascending
        self.chars = {s: chr(i) for i, s in enumerate(D.out[group.identity])}
        self.alphabet = "".join(self.chars.values())
        self.labels = {}    # u * n + v -> label of the arc u -> v
        self.word = ""      # the previous circuit's label word
        self.divisors = {}  # L -> _divisors(L)
        self.seen = set()
        self.cycles = 0

    def add(self, keep: int, path) -> int:
        """Tally the circuit ``path`` from 0, whose first ``keep`` vertices
        are those of the previous circuit passed (as ``_johnson`` yields);
        returns the running sum."""
        chars, mul, inv = self.chars, self.group.mul, self.group.inv
        labels, n, word = self.labels, self.D.n, self.word
        start = keep - 1 if keep and word else 0   # the closing arc goes too
        new = []
        for u, v in zip(path[start:], path[start + 1:] + path[:1]):
            arc = u * n + v
            letter = labels.get(arc)
            if letter is None:
                letter = labels[arc] = chars[mul(inv(u), v)]
            new.append(letter)
        self.word = word = word[:start] + "".join(new)
        length = len(word)
        divisors = self.divisors.get(length)
        if divisors is None:
            divisors = self.divisors[length] = _divisors(length)
        period = _least_period(word, divisors)
        least = next(c for c in self.alphabet if c in word)
        necklace = length, _least_rotation(word[:period], least)
        if necklace not in self.seen:
            self.seen.add(necklace)
            size, rest = divmod(n * period, length)
            assert not rest, "a class size n*p/L is not an integer"
            self.cycles += size
        return self.cycles


def _divisors(length: int) -> tuple:
    """The divisors of ``length``, ascending."""
    return tuple(d for d in range(1, length + 1) if length % d == 0)


def _least_period(word: str, divisors) -> int:
    """The least p such that rotating the nonempty ``word`` by p fixes it,
    ``(word + word).find(word, 1)``, found without doubling the word from
    ``divisors``, those of L = len(word) ascending: p divides L, and for a
    divisor d of L the shift test ``word[d:] == word[:L - d]`` holds iff
    word is a power of word[:d]."""
    length = len(word)
    return next(d for d in divisors if word[d:] == word[:length - d])


def _least_rotation(word: str, least: str) -> str:
    """The least rotation of a primitive word whose least letter is
    ``least``.  It starts a longest run of the least letter, and each such
    run starts an occurrence of that run in word + word before the end of
    word, so only those are compared.  Two of them are at least one letter
    apart, so each search for the next starts past that letter."""
    doubled = word + word
    short, long = 1, len(word)   # run lengths that occur and that do not
    while long - short > 1:
        mid = (short + long) // 2
        if least * mid in doubled:
            short = mid
        else:
            long = mid
    run = least * short
    found = doubled.find(run)
    best = doubled[found:found + len(word)]
    found = doubled.find(run, found + short + 1)
    while 0 <= found < len(word):
        best = min(best, doubled[found:found + len(word)])
        found = doubled.find(run, found + short + 1)
    return best


def _log_enumeration(stage: str, cycles, max_count) -> None:
    """One ``VTC_LOG=INFO`` line on what ``complete_directed_cycles``
    returned to ``stage``."""
    if cycles is None:
        cap = DEFAULT_MAX_COUNT if max_count is None else max_count
        log.info("%s: more than %d cycles; none built", stage, cap)
    else:
        log.info("%s: %d cycles, complete", stage, len(cycles))


def _johnson(D: Digraph, stop=None):
    """Johnson's circuit enumeration (SIAM J. Comput. 1975) with an explicit
    stack: ``it`` iterates the out-neighbors of the deepest path vertex and
    ``frames`` holds the suspended iterators of the vertices above it.
    Yields each circuit as (closed, path): the live path, and the length of
    its prefix that is unchanged since the previous yield (0 at a root's
    first circuit).  The path starts at its root, the circuit's minimum
    vertex, so it is already in canonical rotation.  A vertex whose subtree
    closed a circuit is unblocked on the way back, any other one waits on
    the B-lists of its out-neighbors.  ``adj``, ``blocked`` and the B-lists
    are indexed by vertex; each root resets those of the vertices >= root
    that reach it, one backward reach set: its walk, kept inside them,
    visits exactly root's strong component.  Only a blocked neighbor is
    compared with the (blocked) root, a B-list holds each in-neighbor at
    most once, and an empty one starts no unblock cascade.  Only roots
    below ``stop`` are walked: ``stop=1`` yields the cycles through 0, and
    on a vertex-transitive host a length L then has n*c0(L)/L cycles, c0(L)
    through 0, as both sides count the (cycle, vertex) pairs."""
    n = D.n
    reach_back = reacher(D.inn)
    adj = [()] * n
    blocked = [False] * n
    blist = [[] for _ in range(n)]
    for root in range(n if stop is None else stop):
        back = reach_back(root, -1 << root)
        # when root reaches back from every vertex >= root, a row with no
        # vertex below root is kept whole
        whole = back == (1 << n) - (1 << root)
        for v in iter_bits(back):
            row = D.out[v]
            adj[v] = (row if whole and row[:1] >= (root,)
                      else tuple(w for w in row if back >> w & 1))
            blocked[v] = False
            blist[v].clear()
        if not adj[root]:
            continue
        path = [root]
        push, pop = path.append, path.pop
        frames = []
        save, resume = frames.append, frames.pop
        it = iter(adj[root])
        blocked[root] = True
        depth = 1   # len(path)
        # path[:closed] holds the vertices under which a circuit closed
        # since they were entered: a circuit closing at depth d marks
        # all of path[:d].  Being the lowest depth since the last circuit,
        # it is also the prefix that circuit shares with this one.
        closed = 0
        while True:
            for w in it:
                if blocked[w]:
                    if w == root:
                        yield closed, path
                        closed = depth
                else:
                    push(w)
                    save(it)
                    it = iter(adj[w])
                    blocked[w] = True
                    depth += 1
                    break
            else:
                if not frames:   # root's walk is over
                    break
                it = resume()
                v = pop()
                depth -= 1
                if closed > depth:
                    closed = depth
                    # unblock v and, transitively, every blocked vertex
                    # on the B-lists met
                    blocked[v] = False
                    if blist[v]:
                        todo = [v]
                        while todo:
                            u = todo.pop()
                            for w in blist[u]:
                                if blocked[w]:
                                    blocked[w] = False
                                    todo.append(w)
                            blist[u].clear()
                else:
                    for w in adj[v]:
                        waiting = blist[w]
                        if v not in waiting:
                            waiting.append(v)


def _circuits_through_0(D: Digraph, family: AutomorphismFamily):
    """Johnson's walk over the cycles through 0, ``_johnson(D, 1)``, of a
    host on at most 20 vertices that ``family`` certifies
    vertex-transitive; both are checked before the walk is returned, and
    ``ValueError`` is raised otherwise."""
    Budget.over(D.n)
    if not family.certifies(D):
        raise ValueError("family does not certify the host vertex-transitive")
    return _johnson(D, 1)


def _cycles_through_0(D: Digraph, family: AutomorphismFamily) -> list:
    """The circuits of ``_circuits_through_0`` as vertex tuples from 0, in
    walk order."""
    return [tuple(path) for _, path in _circuits_through_0(D, family)]


# --- the intersection graph -------------------------------------------------

@dataclass(frozen=True)
class CycleGraph:
    """Intersection graph over a list of cycles, as a rule the complete
    list of ``complete_directed_cycles``.

    ``graph`` is the undirected adjacency over cycle indices; two indices
    are adjacent iff the cycles share a vertex.  ``masks[i]`` is the host
    vertex set of cycle i as a bitmask; ``build_cycle_graph`` records it
    while it visits the cycles, and it is built from ``cycles`` when not
    given.
    """

    cycles: tuple
    graph: Graph
    masks: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.masks is None:
            object.__setattr__(self, "masks", tuple(
                sum(1 << v for v in c.vertices) for c in self.cycles))

    @property
    def order(self) -> int:
        return len(self.cycles)


def build_cycle_graph(D: Digraph, cycles) -> CycleGraph:
    """Intersection adjacency via per-vertex membership bitsets: cycle i's
    neighbor mask, the OR of its vertices' membership masks minus bit i,
    goes straight into ``Graph.from_masks``; no pair or edge list is built.

    A fixed-seed spot check re-tests up to 100 random pairs against direct
    set intersection on every build.
    """
    k = len(cycles)
    vert_mask = [0] * D.n
    masks = []
    for i, c in enumerate(cycles):
        bit, mask = 1 << i, 0
        for v in c.vertices:
            vert_mask[v] |= bit
            mask |= 1 << v
        masks.append(mask)

    neighbors = []
    for i, c in enumerate(cycles):
        neigh = 0
        for v in c.vertices:
            neigh |= vert_mask[v]
        neighbors.append(neigh & ~(1 << i))
    graph = Graph.from_masks(neighbors)

    rng = random.Random(0)
    if k >= 2:
        for _ in range(SPOT_CHECK_PAIRS):
            i = rng.randrange(k)
            j = rng.randrange(k)
            if i == j:
                continue
            shares = bool(cycles[i].vertex_set() & cycles[j].vertex_set())
            assert graph.has_edge(i, j) == shares, \
                f"intersection adjacency mismatch at pair ({i},{j})"

    return CycleGraph(tuple(cycles), graph, tuple(masks))


def cycle_graph_diameter_check(D: Digraph, max_count=None) -> dict:
    """Diameter of the cycle graph against the d/l - 1 floor.

    For a strongly connected host with complete enumeration the cycle graph
    is connected; the floor diam(C(D)) >= d/l - 1 is checked in exact
    integers as l*(diam+1) >= d.  Past ``max_count`` cycles the verdict is
    UNKNOWN and no cycle is built.  ``VTC_LOG=INFO`` logs which it was.
    """
    if not D.is_strongly_connected():
        raise ValueError("host must be strongly connected")
    cycles = complete_directed_cycles(D, max_count)
    _log_enumeration("cycle_graph_diameter_check", cycles, max_count)
    if cycles is None:   # no verdict, so no cycle or cycle graph is built
        return {"complete": False, "verdict": "UNKNOWN"}
    cg = build_cycle_graph(D, cycles)
    d = D.directed_diameter()
    circumference = max((c.length for c in cg.cycles), default=0)
    diam = cg.graph.diameter()
    connected = diam != INF
    holds = connected and circumference * (diam + 1) >= d
    return {
        "complete": True,
        "cycle_count": cg.order,
        "connected": connected,
        "cycle_graph_diameter": diam,
        "directed_diameter": d,
        "circumference": circumference,
        "floor_holds": holds,
    }


# --- stitching an induced cycle back into the host --------------------------

class StitchError(ValueError):
    pass


def _first_bad_pair(G: Graph, seq, closed: bool):
    """First positions i < j whose adjacency in G differs from being
    consecutive along seq (cyclically when closed), or None when seq
    induces a path (closed: a cycle)."""
    k = len(seq)
    for i in range(k):
        for j in range(i + 1, k):
            consecutive = j == i + 1 or (closed and i == 0 and j == k - 1)
            if G.has_edge(seq[i], seq[j]) != consecutive:
                return i, j
    return None


def _verify_induced_cycle(graph: Graph, seq) -> None:
    """Raise ``StitchError`` unless seq is an induced cycle of length >= 4
    of ``graph``.  Inside the vertex set of seq, each position must be
    adjacent to exactly its two cyclic neighbours, k mask compares; only
    when one fails does ``_first_bad_pair`` find the pair to report."""
    k = len(seq)
    if k < 4:
        raise StitchError(f"need an induced cycle of length >= 4, got {k}")
    if len(set(seq)) != k:
        raise StitchError("index sequence repeats a cycle")
    inside = 0
    for i in seq:
        inside |= 1 << i
    masks = graph.masks
    prev, here = seq[-2], seq[-1]
    for after in seq:
        if masks[here] & inside != (1 << prev) | (1 << after):
            break
        prev, here = here, after
    else:
        return
    bad = _first_bad_pair(graph, seq, closed=True)
    if bad is not None:
        i, j = bad
        if graph.has_edge(seq[i], seq[j]):
            raise StitchError(f"chord between positions {i},{j}")
        raise StitchError(f"positions {i},{j} not adjacent")


def _walk_until(cycle: DirectedCycle, start: int, targets: int) -> list:
    """Follow the cycle from ``start`` to the first vertex in the bitmask
    ``targets``; returns the segment including both endpoints."""
    verts = cycle.vertices
    pos = verts.index(start)
    ring = verts[pos:] + verts[:pos + 1]
    for end, v in enumerate(ring[1:], 2):
        if targets >> v & 1:
            return list(ring[:end])
    raise StitchError("walk never reached the target cycle")


def stitch_directed_cycle(D: Digraph, cg: CycleGraph, induced_seq) -> DirectedCycle:
    """Turn an induced cycle of the cycle graph into a directed host cycle
    of at least that length.

    Walks each constituent cycle from its entry vertex to the first vertex
    of the next one (ties broken by the cyclic order of the canonical
    rotation), having first picked entry vertices v1, v2 on the opening
    cycle whose connecting segment avoids both neighbors.  Membership is
    read off the vertex masks ``cg.masks`` of the cycles.  Validity and
    the length floor are asserted on every call.
    """
    seq = list(induced_seq)
    _verify_induced_cycle(cg.graph, seq)
    k = len(seq)
    cycs = [cg.cycles[i] for i in seq]
    first, last = cycs[0], cycs[-1]
    second_mask, last_mask = cg.masks[seq[1]], cg.masks[seq[-1]]

    v1 = v2 = None
    verts = first.vertices
    for p, cand in enumerate(verts):
        if not last_mask >> cand & 1:
            continue
        for w in verts[p + 1:] + verts[:p]:
            if last_mask >> w & 1:
                break
            if second_mask >> w & 1:
                v1, v2 = cand, w
                break
        if v1 is not None:
            break
    if v1 is None:
        raise StitchError("no opening segment from the last to the second cycle")

    segment = _walk_until(first, v1, 1 << v2)
    vertices = segment[:-1]
    entry = v2
    for idx in range(1, k - 1):
        seg = _walk_until(cycs[idx], entry, cg.masks[seq[idx + 1]])
        vertices.extend(seg[:-1])
        entry = seg[-1]
    closing = _walk_until(last, entry, 1 << v1)
    vertices.extend(closing[:-1])

    stitched = directed_cycle(D, vertices)
    assert stitched.length >= k, \
        f"stitched length {stitched.length} below floor {k}"
    return stitched


# --- lifting automorphisms and near transitivity ----------------------------

def lift_automorphisms(D: Digraph, fam: AutomorphismFamily,
                       cg: CycleGraph) -> AutomorphismFamily:
    """Each host automorphism permutes the enumerated cycles; the permuted
    indexing is an automorphism of the cycle graph.

    Requires every cycle of the host: an image cycle missing from
    ``cg.cycles`` raises ``EnumerationIncomplete``.
    """
    index = {c.vertices: i for i, c in enumerate(cg.cycles)}
    lifted = []
    for p in fam.permutations:
        images = []
        for c in cg.cycles:
            img = canonical_rotation(tuple(p[v] for v in c.vertices))
            j = index.get(img)
            if j is None:
                raise EnumerationIncomplete(
                    "image cycle missing from the enumeration")
            images.append(j)
        lifted.append(tuple(images))
    out = AutomorphismFamily(cg.order, tuple(lifted))
    out.validate_digraph(cg.graph)
    return out


def is_nearly_transitive(G: Graph, fam: AutomorphismFamily) -> bool:
    """Whether some family member maps v into {u} union N(u) for every
    ordered pair (v, u).

    TRUE is a certificate only relative to ``fam``: with the full
    automorphism group it decides the property, with a subfamily it is
    one-sided.
    """
    if G.n != fam.n:
        raise ValueError("family and graph size mismatch")
    closed = [m | 1 << u for u, m in enumerate(G.masks)]
    for v in range(G.n):
        images = sum({1 << p[v] for p in fam.permutations})
        if not all(images & c for c in closed):
            return False
    return True


# --- long induced cycles via near transitivity ------------------------------

@dataclass
class GeodesicDecomposition:
    """Working record of the symmetric induced-cycle construction."""

    S: tuple = ()
    v: int = -1
    u: int = -1
    m: int = -1
    L: tuple = ()
    R: tuple = ()
    P: tuple = ()
    Q: tuple = ()
    w: int = -1
    x: int = -1
    y: int = -1
    S_img: tuple = ()
    L_img: tuple = ()
    R_img: tuple = ()
    v_img: int = -1
    u_img: int = -1
    w_img: int = -1
    contacts: dict = field(default_factory=dict)


class _StepFailure(Exception):
    def __init__(self, step: str, detail: str = ""):
        super().__init__(f"{step}: {detail}" if detail else step)
        self.step = step


DIAMETER_FLOOR = 20
INDUCED_SLACK = 17
FALLBACK_BUDGET = 2_000_000     # node budget of the exact induced-cycle oracle
PATH_BUDGET = 200_000           # node budget of the geodesic-tail path search


def induced_cycle_via_symmetry(G: Graph, fam: AutomorphismFamily):
    """An induced cycle of length at least diameter - 17 in a connected,
    nearly transitive graph of diameter at least 20.

    Follows the constructive route: pick a geodesic between a diametral
    pair, hunt for a long induced path whose tail is geodesic, translate
    the geodesic near the path's far end by a family member, and close an
    induced cycle through the contact vertices.  If any step fails
    (including not finding a contact pair after the bounded number of path
    extensions) the exact induced-cycle oracle takes over and the failed
    step is reported.  Returns (vertex tuple, report dict).
    """
    S = G.diameter_path()
    if S is None:
        raise ValueError("graph must be connected")
    d = len(S) - 1
    if d < DIAMETER_FLOOR:
        raise ValueError(f"diameter {d} below the {DIAMETER_FLOOR} floor")
    if not is_nearly_transitive(G, fam):
        raise ValueError("family does not certify near transitivity")

    report = {"diameter": d, "target": d - INDUCED_SLACK, "mode": "construction"}
    try:
        cycle, deco = _symmetry_construction(G, fam, tuple(S))
        report["steps_ok"] = True
        report["decomposition"] = deco
    except _StepFailure as fail:
        report["mode"] = "fallback"
        report["failed_step"] = fail.step
        res = brute_longest_induced_cycle(G, budget=FALLBACK_BUDGET)
        if res.best is None:
            raise RuntimeError("fallback found no induced cycle at all")
        report["fallback_exact"] = res.exact
        cycle = tuple(res.best)

    _assert_induced_cycle(G, cycle)
    report["length"] = len(cycle)
    report["floor_holds"] = len(cycle) >= d - INDUCED_SLACK
    return cycle, report


def _assert_induced_cycle(G: Graph, cycle) -> None:
    k = len(cycle)
    assert len(set(cycle)) == k and k >= 3
    bad = _first_bad_pair(G, cycle, closed=True)
    assert bad is None, ("induced-cycle violation between "
                         f"{cycle[bad[0]]} and {cycle[bad[1]]}")


def _symmetry_construction(G: Graph, fam: AutomorphismFamily, S: tuple):
    """S is the geodesic between the lexicographically first diametral pair."""
    dist_memo: dict = {}

    def dist_from(s):
        if s not in dist_memo:
            dist_memo[s] = G.bfs_distances(s)
        return dist_memo[s]

    d = len(S) - 1
    v0, u0 = S[0], S[-1]
    mid = d // 2
    m = S[mid]
    L = S[:mid + 1]
    R = S[mid:]

    q = (d - 5 + 1) // 2  # ceil((d-5)/2) vertices in the geodesic tail
    deco = GeodesicDecomposition(S=S, v=v0, u=u0, m=m, L=L, R=R)

    P = _longest_induced_path_with_geodesic_tail(G, q, seed=S,
                                                 budget=PATH_BUDGET)
    for _round in range(G.n):
        deco.P = tuple(P)
        deco.Q = tuple(P[-q:])
        deco.w = P[-1]
        deco.x = P[0]
        deco.y = P[-q]
        Q = P[-q:]
        w = P[-1]
        y = P[-q]

        phi = None
        closed_w = G.masks[w] | 1 << w
        for p in fam.permutations:
            if closed_w >> p[m] & 1:
                phi = p
                break
        if phi is None:
            raise _StepFailure("translate", "no member maps m near w")
        S_img = tuple(phi[t] for t in S)
        L_img = tuple(phi[t] for t in L)
        R_img = tuple(phi[t] for t in R)
        w_img = phi[m]
        deco.S_img, deco.L_img, deco.R_img = S_img, L_img, R_img
        deco.v_img, deco.u_img, deco.w_img = phi[v0], phi[u0], w_img

        near_q = 0
        for t in Q:
            near_q |= G.masks[t] | 1 << t
        dw_img = dist_from(w_img)

        side = None
        for half, far_end in ((L_img, phi[v0]), (R_img, phi[u0])):
            touched = [t for t in half if near_q >> t & 1]
            if all(dw_img[t] <= 3 for t in touched):
                side = (half, far_end, touched)
                break
        if side is None:
            raise _StepFailure("side", "both halves reach far from w'")
        half, far_end, touched = side
        if not touched:
            raise _StepFailure("side", "chosen half misses Q entirely")

        c = max(touched, key=lambda t: (dw_img[t], -t))
        dw = dist_from(w)
        z_candidates = [t for t in Q if t == c or G.has_edge(t, c)]
        if not z_candidates:
            raise _StepFailure("contact-z", "no Q vertex within one of c")
        z = max(z_candidates, key=lambda t: (dw[t], -t))
        if dw[z] > 5:
            raise _StepFailure("contact-z", f"z at distance {dw[z]} > 5 from w")
        deco.contacts["c"] = c
        deco.contacts["z"] = z

        z_pos = Q.index(z)
        Q_prime = Q[:z_pos + 1]                      # y .. z along the tail
        c_pos = half.index(c)
        # the half runs far end .. w'; the hook runs from c back to the far end
        hook = tuple(reversed(half[:c_pos + 1]))      # c .. far end
        if not _induces_path(G, Q_prime, hook):
            raise _StepFailure("hook", "tail plus hook does not induce a path")

        P_prime = P[:len(P) - q + 1]                  # x .. y
        contact = _best_contact(G, P_prime, hook)
        if contact is None:
            # the proof's maximality argument: extend P and try again
            P = _extend_path(G, P_prime, Q_prime, hook, q)
            if P is None:
                raise _StepFailure("extend", "no qualifying extension")
            continue
        s, t = contact
        deco.contacts["s"] = s
        deco.contacts["t"] = t

        s_pos = P_prime.index(s)
        t_pos = hook.index(t)
        cycle = list(P_prime[s_pos:])                 # s .. y
        cycle.extend(Q_prime[1:])                     # .. z
        if c != z:
            cycle.append(c)
        cycle.extend(hook[1:t_pos + 1])               # .. t
        if cycle[-1] == cycle[0]:
            cycle.pop()
        if len(set(cycle)) != len(cycle) or len(cycle) < d - INDUCED_SLACK:
            raise _StepFailure("close", "assembled cycle too short or broken")
        try:
            _assert_induced_cycle(G, tuple(cycle))
        except AssertionError as err:
            raise _StepFailure("close", str(err))
        return tuple(cycle), deco

    raise _StepFailure("extend", "path extensions did not terminate")


def _induces_path(G: Graph, tail, hook) -> bool:
    """Whether tail + bridge + hook vertices induce a single path."""
    vmask = sum(1 << t for t in {*tail, *hook})
    deg = [(G.masks[t] & vmask).bit_count() for t in iter_bits(vmask)]
    return (sum(deg) == 2 * (len(deg) - 1) and deg.count(1) == 2
            and max(deg) <= 2)


def _best_contact(G: Graph, P_prime, hook):
    """Contact pair (s on P', t on hook) with d(s,t) <= 1 minimizing the
    sum of distances to the y end of P' and the c end of the hook."""
    best = None
    best_key = None
    y_end = len(P_prime) - 1
    for ti, t in enumerate(hook):
        for si, s in enumerate(P_prime):
            if s == t or G.has_edge(s, t):
                key = (y_end - si) + ti
                if best_key is None or key < best_key or \
                        (key == best_key and (s, t) < best):
                    best, best_key = (s, t), key
    return best


def _extend_path(G: Graph, P_prime, Q_prime, hook, q):
    """Append the tail-plus-hook path to P' to get a strictly longer
    qualifying path; None if neither orientation qualifies."""
    appended = list(P_prime) + list(Q_prime[1:])
    if hook and hook[0] != appended[-1]:
        appended.extend(hook)
    else:
        appended.extend(hook[1:])
    for cand in (appended, list(reversed(appended))):
        if len(cand) <= len(P_prime) + q - 1:
            continue
        if _qualifies(G, cand, q):
            return cand
    return None


def _qualifies(G: Graph, path, q) -> bool:
    if len(path) < q or len(set(path)) != len(path):
        return False
    return (_first_bad_pair(G, path, closed=False) is None
            and _tail_is_geodesic(G, path, q))


def _tail_is_geodesic(G: Graph, path, q) -> bool:
    tail = path[-q:]
    return G.bfs_distances(tail[0])[tail[-1]] == q - 1


def _longest_induced_path_with_geodesic_tail(G: Graph, q: int, seed, budget):
    """Longest induced path whose last q vertices form a geodesic, by a
    best-effort DFS under a node budget, seeded with (and never worse than)
    the provided qualifying path.
    """
    assert _qualifies(G, list(seed), q), "seed path must qualify"
    best = list(seed)
    spent = Budget(budget)

    for start in range(G.n):
        # frames[i]: (neighbors of path[i] left to try, vertices blocked by
        # the interior of path[:i + 1])
        path, on_path, frames = [], 0, []
        w, blocked = start, 0
        while spent.spend():
            path.append(w)
            on_path |= 1 << w
            if (len(path) > len(best) and len(path) >= q
                    and _tail_is_geodesic(G, path, q)):
                best = list(path)
            frames.append((iter_bits(G.masks[w]), blocked))
            # advance to the next extension, backtracking as frames run out
            w = None
            while frames and w is None:
                neighbors, blocked = frames[-1]
                for x in neighbors:
                    if not (on_path | blocked) >> x & 1:
                        w = x
                        blocked |= G.masks[path[-1]] & ~(1 << x)
                        break
                else:
                    frames.pop()
                    on_path ^= 1 << path.pop()
            if w is None:
                break
        if spent.exhausted:
            break
    return best


# --- the full long-cycle pipeline -------------------------------------------

def pipeline_n13(D: Digraph, fam: AutomorphismFamily = None,
                 max_cycles: int = DEFAULT_MAX_COUNT):
    """End-to-end long directed cycle search for a certified
    vertex-transitive host, branching on the directed diameter.

    The branch test d^3 <= n^2 is exact integer arithmetic.  The
    small-diameter branch runs the descendant-driven search with the
    1/(3d) expansion floor.  The large-diameter branch enumerates cycles,
    builds the intersection graph, lifts the supplied automorphism family,
    extracts an induced cycle (symmetric construction when the hypotheses
    hold, exact oracle otherwise) and stitches it back.  The longer of the
    branch result and the best incidental cycle is returned together with
    a trace; if enumeration is infeasible (more than ``max_cycles``
    cycles, none of which is built, or ``max_cycles=None`` past the
    unbounded guard) the small-branch result is returned flagged partial.
    ``fam`` goes to the enumeration, which on a certified Cayley host can
    prove the cap exceeded from the cycles through vertex 0 alone.
    The result is asserted against the recorded floor constant 1/9:
    length >= n^(1/3)/9.

    When ``fam.certifies(D)`` re-checks the family's generators against D,
    every vertex has the same out-eccentricity and the directed diameter
    is read off one BFS from vertex 0; otherwise (no family, no
    generators, or generators that fail the check) it is the all-pairs
    sweep.  ``VTC_LOG=INFO`` names the route taken and, on the large
    branch, whether the enumeration completed.
    """
    n = D.n
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if not D.is_strongly_connected():
        raise ValueError("host must be strongly connected")
    if fam is not None and fam.certifies(D):
        log.info("pipeline_n13: diameter is the eccentricity of vertex 0 "
                 "(%d certified generators)", len(fam.generators))
        d = max(D.bfs_distances(0))
    else:
        log.info("pipeline_n13: diameter by all-pairs sweep")
        d = D.directed_diameter()
    small_branch = d ** 3 <= n ** 2
    report = {
        "n": n,
        "directed_diameter": d,
        "branch": "small" if small_branch else "large",
        "branch_test": f"{d}^3 {'<=' if small_branch else '>'} {n}^2",
        "partial": False,
    }
    candidates = []

    if small_branch:
        alpha = Fraction(1, 3 * d)
        res = dfs_long_cycle(D, alpha=alpha)
        report["expansion_floor"] = str(alpha)
        report["dfs_cycle_length"] = res.cycle.length
        candidates.append(res.cycle)
    else:
        try:
            cycles = complete_directed_cycles(D, max_cycles, fam)
        except ValueError as err:   # unbounded guard: max_cycles=None, n > 20
            log.info("pipeline_n13: %s; none built", err)
            cycles = None
        else:
            _log_enumeration("pipeline_n13", cycles, max_cycles)
        if cycles is None:
            report["partial"] = True
            res = dfs_long_cycle(D, alpha=Fraction(1, 3 * d))
            candidates.append(res.cycle)
            report["dfs_cycle_length"] = res.cycle.length
        else:
            cg = build_cycle_graph(D, cycles)
            incidental = max(cg.cycles, key=lambda c: (c.length, c.vertices))
            candidates.append(incidental)
            report["cycle_count"] = cg.order
            report["circumference"] = incidental.length
            cg_diam = cg.graph.diameter()
            report["cycle_graph_diameter"] = cg_diam
            stitched = _large_branch_stitch(D, cg, fam, cg_diam, report)
            if stitched is not None:
                candidates.append(stitched)
                report["stitched_length"] = stitched.length

    best = sorted(candidates, key=lambda c: (-c.length, c.vertices))[0]
    report["result_length"] = best.length
    report["floor_constant"] = "1/9"
    assert (9 * best.length) ** 3 >= n, \
        f"cycle length {best.length} below n^(1/3)/9 for n={n}"
    return best, report


def _large_branch_stitch(D, cg, fam, cg_diam, report):
    induced = None
    if fam is not None and cg_diam != INF and cg_diam >= DIAMETER_FLOOR:
        lifted = lift_automorphisms(D, fam, cg)
        report["near_transitive"] = is_nearly_transitive(cg.graph, lifted)
        if report["near_transitive"]:
            induced, sym_report = induced_cycle_via_symmetry(cg.graph, lifted)
            report["induced_mode"] = sym_report["mode"]
    if induced is None:
        res = brute_longest_induced_cycle(cg.graph, budget=FALLBACK_BUDGET)
        report["induced_mode"] = "oracle"
        if res.best is None or len(res.best) < 4:
            report["induced_available"] = False
            return None
        induced = res.best
    report["induced_available"] = True
    report["induced_length"] = len(induced)
    if len(induced) < 4:
        return None
    return stitch_directed_cycle(D, cg, list(induced))
