"""Exact brute-force oracles: Hamiltonicity, longest cycle/path, longest
induced cycle, disjoint cycle packing, and the longest-cycle intersection
question.

Hamiltonicity has two oracles.  ``brute_hamiltonian`` is the generic one (a
bitmask DP to n = 24, budgeted backtracking to n = 40).
``alternating_hamiltonian`` decides the 2-in-2-out digraphs at any order:
their arcs split into a alternating cycles u0 -> v0 <- u1 -> v1 <- ..., one
choice of out-arc forces the rest of its alternating cycle, so the digraph
has exactly 2^a cycle covers and is Hamiltonian iff one of them is a single
cycle (Rankin 1946; the argument behind Trotter and Erdos 1978).  It walks
the 2^a covers, up to a = ``ALT_CYCLES_MAX``.

These are the ground truth that every constructive algorithm in the package
is validated against, so they favor correctness and determinism over speed:
budgets are node-expansion counts (never wall clock), ties break toward the
lowest vertex id, and an exhausted budget is reported as UNKNOWN rather than
silently returning the best found.

Every exhaustive search here is iterative, and each backtracking search
charges one shared node ``Budget``, so a deep input runs into its cap, never
into the interpreter's recursion limit.  ``Budget.over`` makes each budget:
without one, a search over more than ``EXACT_DEFAULT_MAX`` = 20 vertices
(candidate sets, for the packing) raises ``ValueError``.  The simple-path
searches all walk ``simple_paths``.  The induced-cycle searches walk
``_induced_closures``, whose candidate sets are bitmasks; the
longest-induced-cycle oracle keeps one best cycle, never the list of all
induced cycles.

Cycle intersection graphs are nearly complete (C2xC8's has 264 vertices
and 34,687 edges), so almost every path start of that walk is dead: none
of its neighbors lies above the root off the root's neighborhood, so it
closes triangles and nothing else.  Once no triangle can count, because
``min_len`` is above 3 or the longest-cycle oracle already holds a cycle
and tells the walk the length that beats it, the walk charges each run of
dead starts in one step.  A run is charged node for node, in the same
order, and a cap inside it stops the walk where it would have stopped one
start at a time, so ``expansions`` and every answer are those of the walk
that enters each start.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import (Budget, Digraph, DirectedCycle, Graph, UNKNOWN,
                      adjacency_masks, directed_cycle, directed_path, iter_bits)

HAM_DP_MAX = 24           # bitmask DP cap
ALT_CYCLES_MAX = 20       # alternating-cycle cap: 2^a cycle covers walked
HAM_BACKTRACK_MAX = 40    # budgeted backtracking cap
HAM_STATE_CAP = 1 << 24   # DP refuses to grow past this many states


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a budgeted exhaustive search.

    ``best`` is the optimum when ``exact`` is True, otherwise only the best
    certificate found before the budget ran out.
    """

    best: object
    exact: bool
    expansions: int


def simple_paths(D: Digraph, start: int, budget: Budget, above: int = -1):
    """Simple directed paths from ``start``, in depth-first preorder.

    Out-neighbors are taken in sorted order, and only those greater than
    ``above``.  Entering a path, ``[start]`` included, spends one node of
    ``budget``, and the walk ends at the first refused node, leaving
    ``budget.exhausted`` set.  The yielded list is the live path: copy it
    to keep it.
    """
    out = D.out
    path = []
    visited = 0
    frames = []  # frames[i] iterates the out-neighbors of path[i]
    w = start
    while budget.spend():
        path.append(w)
        visited |= 1 << w
        yield path
        frames.append(iter(out[w]))
        # advance to the next fresh neighbor, backtracking as frames run out
        w = None
        while frames and w is None:
            for x in frames[-1]:
                if x > above and not (visited >> x) & 1:
                    w = x
                    break
            else:
                frames.pop()
                visited ^= 1 << path.pop()
        if w is None:
            return


# --- Hamiltonicity --------------------------------------------------------

def brute_hamiltonian(D: Digraph, budget=None):
    """A Hamilton cycle of D, None if provably absent, UNKNOWN if undecided.

    Bitmask DP anchored at vertex 0 for n <= 24, backtracking under an
    explicit ``budget`` up to n <= 40.  The DP bails out to UNKNOWN if its
    state table would exceed the memory cap (not on sparse desk-scale inputs).
    """
    n = D.n
    if n < 2:
        return None
    if not D.is_strongly_connected():
        return None
    if n <= HAM_DP_MAX:
        return _hamiltonian_dp(D)
    if n > HAM_BACKTRACK_MAX:
        raise ValueError(f"n={n} beyond the Hamiltonicity oracle caps")
    spent = Budget.over(n, budget)
    for path in simple_paths(D, 0, spent):
        if len(path) == n and D.has_arc(path[-1], 0):
            return directed_cycle(D, path)
    return UNKNOWN if spent.exhausted else None


def _hamiltonian_dp(D: Digraph):
    n = D.n
    out_masks = adjacency_masks(D.out)
    full = (1 << n) - 1
    # layers[k]: masks of size k containing vertex 0 -> bitmask of possible
    # last vertices; only reached states are stored.
    layer = {1: 1}
    layers = [layer]
    states = 1
    for _ in range(n - 1):
        nxt = {}
        # Inline bit loops rather than iter_bits: this is the DP's hot path,
        # where a generator per state costs more than the state's own work.
        for mask, lasts in layer.items():
            rest = lasts
            while rest:
                lowbit = rest & (-rest)
                rest ^= lowbit
                v = lowbit.bit_length() - 1
                fresh = out_masks[v] & ~mask
                while fresh:
                    wb = fresh & (-fresh)
                    fresh ^= wb
                    m2 = mask | wb
                    nxt[m2] = nxt.get(m2, 0) | wb
        states += len(nxt)
        if states > HAM_STATE_CAP:
            return UNKNOWN
        if not nxt:
            return None
        layer = nxt
        layers.append(layer)

    finals = layer.get(full, 0)
    closer = next((v for v in D.inn[0] if finals >> v & 1), None)
    if closer is None:
        return None
    # walk back through the layers, lowest-id choices first
    seq = [closer]
    mask = full
    for k in range(n - 1, 0, -1):
        prev_mask = mask & ~(1 << seq[-1])
        prevs = layers[k - 1].get(prev_mask, 0)
        chosen = next((p for p in iter_bits(prevs) if D.has_arc(p, seq[-1])),
                      None)
        assert chosen is not None
        seq.append(chosen)
        mask = prev_mask
    seq.reverse()
    assert seq[0] == 0
    return directed_cycle(D, seq)


def alternating_hamiltonian(D: Digraph):
    """A Hamilton cycle of a 2-in-2-out digraph, None if provably absent,
    UNKNOWN if D is not 2-in-2-out or has more than ``ALT_CYCLES_MAX``
    alternating cycles.

    Arc (u, i) is u's i-th out-arc.  An alternating cycle is found from its
    lowest tail u with i = 0: follow u -> v, take the other in-neighbor u'
    of v and the other out-arc of u', until the walk is back at u.  The arcs
    walked form side 0 of the cycle, the other out-arcs of its tails side
    1, and a cover picks one side of every cycle.  Covers are taken in
    ascending counter order, bit k choosing the side of the k-th cycle
    found; the first whose successor walk from vertex 0 takes n steps is
    returned.  O(2^a * n) time.
    """
    n = D.n
    out, inn = D.out, D.inn
    if n < 3 or any(len(out[v]) != 2 or len(inn[v]) != 2 for v in range(n)):
        return UNKNOWN
    cycle_of = [-1] * n   # the alternating cycle u is a tail of
    side0 = [0] * n       # index of u's out-arc on side 0 of that cycle
    a = 0
    for start in range(n):
        if cycle_of[start] >= 0:
            continue
        if a == ALT_CYCLES_MAX:
            return UNKNOWN
        u, i = start, 0
        while cycle_of[u] < 0:
            cycle_of[u], side0[u] = a, i
            v = out[u][i]
            x, y = inn[v]
            u = y if x == u else x
            i = 1 if out[u][0] == v else 0
        a += 1
    for cover in range(1 << a):
        succ = [out[u][side0[u] ^ (cover >> cycle_of[u] & 1)]
                for u in range(n)]
        seq = [0]
        v = succ[0]
        while v:
            seq.append(v)
            v = succ[v]
        if len(seq) == n:
            return directed_cycle(D, seq)
    return None


# --- longest cycle / path -------------------------------------------------

def brute_longest_cycle(D: Digraph, budget=None) -> SearchResult:
    """Longest directed cycle by exhaustive rooted DFS.

    Roots are taken in ascending order and each cycle is explored only from
    its minimum vertex, so the first optimum found is canonical.
    """
    spent = Budget.over(D.n, budget)
    best = []
    for root in range(D.n):
        for path in simple_paths(D, root, spent, above=root):
            if (len(path) >= 2 and len(path) > len(best)
                    and D.has_arc(path[-1], root)):
                best = list(path)
        if spent.exhausted:
            break
    cycle = directed_cycle(D, best) if best else None
    return SearchResult(cycle, not spent.exhausted, spent.used)


def brute_longest_path(D: Digraph, budget=None) -> SearchResult:
    """Longest directed path by exhaustive DFS from every start vertex."""
    spent = Budget.over(D.n, budget)
    best = []
    for s in range(D.n):
        for path in simple_paths(D, s, spent):
            if len(path) > len(best):
                best = list(path)
        if spent.exhausted:
            break
    path = directed_path(D, best) if best else None
    return SearchResult(path, not spent.exhausted, spent.used)


def find_path_of_length(D: Digraph, target: int, budget=None):
    """First directed path with at least ``target`` arcs, or None/UNKNOWN.

    Early-exit existence search; used by gadget post-verification where the
    claim is a lower bound, not an optimum.  No simple path has ``target``
    >= n arcs, so that answer is None without a search.
    """
    spent = Budget.over(D.n, budget)
    if target >= D.n:
        return None
    for s in range(D.n):
        for path in simple_paths(D, s, spent):
            if len(path) - 1 >= target:
                return directed_path(D, path)
        if spent.exhausted:
            return UNKNOWN
    return None


# --- induced cycles in undirected graphs ----------------------------------

def induced_cycles(G: Graph, min_len: int = 3, budget=None):
    """All induced (chordless) cycles of length >= min_len.

    Each cycle is rooted at its minimum vertex with its second vertex
    smaller than its last, so every cycle is emitted exactly once.  The
    list expands the closer masks of ``_induced_closures`` in ascending bit
    order.  Returns (list of vertex tuples, exact flag).
    """
    spent = Budget.over(G.n, budget)
    out = []
    for path, closers in _induced_closures(G, min_len, spent):
        head = tuple(path)
        out += (head + (w,) for w in iter_bits(closers))
    return out, not spent.exhausted


def brute_longest_induced_cycle(G: Graph, budget=None) -> SearchResult:
    """Longest induced cycle: the first of maximum length in the order of
    ``induced_cycles``, found without building that list.  Only one best
    cycle is kept; ``expansions`` counts the nodes the walk spent.  The
    walk is told the length a cycle needs to beat the best, so it stops
    yielding the shorter ones it would only throw away."""
    spent = Budget.over(G.n, budget)
    best = None
    floor = [3]
    for path, closers in _induced_closures(G, 3, spent, floor):
        if best is None or len(path) + 1 > len(best):
            best = tuple(path) + ((closers & -closers).bit_length() - 1,)
            floor[0] = len(best) + 1
    return SearchResult(best, not spent.exhausted, spent.used)


def _induced_closures(G: Graph, min_len: int, spent: Budget, floor=None):
    """Depth-first walk over the chordless paths root, a, ... with every
    vertex above root, yielding (path, closers): path + (w,) is an induced
    cycle of length >= min_len for each bit w of the closers mask, and
    w > path[1].  The yielded list is the live path.  ``floor``, a
    one-element list the caller may raise between yields, lifts min_len
    for the starts entered after it is raised.

    A frame holds two masks of candidates, the neighbors of path[-1] above
    root that are off the path and not adjacent to its interior: ``ext``
    (not adjacent to root; the path may grow through them) and ``close``
    (adjacent to root).  Before descending into extension w the walk yields
    the closers below w; a finished frame yields the rest.  An extension
    with no ``ext`` candidates is a leaf: it yields its closers on the live
    path and is popped at once, with no frame.  One node of ``spent`` is
    charged per path start and per extension, and the walk ends at the
    first refused node, after the closers below it.

    A start a is dead when no neighbor of a lies above root off root's
    neighborhood (``far``): no path grows through it and it closes only
    triangles, which it yields without a frame.  Once the length to reach
    is above 3, dead starts yield nothing, and the walk charges each run
    of them below the next live start in one step of ``spent``: the nodes
    charged, their order and the node refused are those of a walk that
    enters them one by one, so ``spent.used`` reads the same.
    """
    adj_masks = G.masks
    full = (1 << G.n) - 1
    for root in range(G.n):
        above = -1 << (root + 1)
        root_adj = adj_masks[root]
        starts = root_adj & above
        live = None   # the starts that are not dead, found when first needed
        while starts:
            shortest = min_len if floor is None else max(min_len, floor[0])
            if shortest > 3:
                if live is None:
                    live = _live_starts(adj_masks, starts,
                                        full & above & ~root_adj)
                ahead = live & starts
                dead = starts & ((ahead & -ahead) - 1)
                if dead:
                    if not spent.spend_many(dead.bit_count()):
                        return
                    starts ^= dead
                    continue
            wb = starts & -starts
            starts ^= wb
            if not spent.spend():
                return
            closing = root_adj & (-1 << wb.bit_length())  # above path[1]
            cand = adj_masks[wb.bit_length() - 1] & above & ~wb
            if not cand & ~root_adj:    # dead, and triangles still count
                if cand & closing:
                    yield [root, wb.bit_length() - 1], cand & closing
                continue
            path = [root]
            frames = []  # frames[i] extends path[i + 1]
            visited, blocked = 1 << root, 0
            while wb:
                # enter wb, then open its frame unless it is a leaf
                path.append(wb.bit_length() - 1)
                visited |= wb
                cand = adj_masks[path[-1]] & above & ~visited & ~blocked
                close = cand & closing if len(path) >= shortest - 1 else 0
                ext = cand & ~root_adj
                if ext:
                    frames.append([ext, close, visited, blocked])
                else:   # a leaf: its frame would close at once
                    if close:
                        yield path, close
                    path.pop()
                # find the next extension, closing finished frames
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


def _live_starts(adj_masks, starts: int, far: int) -> int:
    """The starts with a neighbor in ``far``, read from whichever of the
    two sets has fewer bits: the neighbors of far's vertices (the graph is
    symmetric), or each start's own mask."""
    live = 0
    if far.bit_count() <= starts.bit_count():
        for x in iter_bits(far):
            live |= adj_masks[x]
        return live & starts
    for w in iter_bits(starts):
        if adj_masks[w] & far:
            live |= 1 << w
    return live


# --- cycle packings and intersections --------------------------------------

def max_disjoint_cycles(cycles, budget=None):
    """Maximum number of vertex-disjoint cycles from the given list, by exact
    backtracking over their distinct vertex sets.  Returns (count, exact)."""
    sets = sorted({frozenset(c.vertices) if isinstance(c, DirectedCycle)
                   else frozenset(c) for c in cycles},
                  key=lambda s: (len(s), sorted(s)))
    spent = Budget.over(len(sets), budget)
    best = 0
    frames = []  # frames[k]: (indices left for set k + 1, union of sets 1..k)
    i, used = 0, frozenset()
    while spent.spend():
        count = len(frames)
        best = max(best, count)
        if count + (len(sets) - i) > best:
            frames.append((iter(range(i, len(sets))), used))
        # advance to the next disjoint choice, backtracking as frames run out
        i = None
        while frames and i is None:
            candidates, used = frames[-1]
            for j in candidates:
                if not sets[j] & used:
                    i, used = j + 1, used | sets[j]
                    break
            else:
                frames.pop()
        if i is None:
            break
    return best, not spent.exhausted


def longest_cycles_pairwise_intersect(D: Digraph, budget=None):
    """Whether every pair of maximum-length directed cycles shares a vertex.

    Enumerates all cycles (UNKNOWN if that search is budget-truncated),
    keeps the maximum-length ones, and checks all pairs.
    """
    from .cyclegraph import complete_directed_cycles

    cycles = complete_directed_cycles(D, budget)
    if cycles is None:
        return UNKNOWN
    if not cycles:
        return True
    top = max(c.length for c in cycles)
    longest = [c.vertex_set() for c in cycles if c.length == top]
    for i in range(len(longest)):
        for j in range(i + 1, len(longest)):
            if not (longest[i] & longest[j]):
                return False
    return True
