"""Vertex expansion measurement and the descendant-driven long-cycle search.

The exact expansion scan scores every subset (hence the hard cap at n = 20),
but bit-sliced: subset U is bit U of a Python int, neighbourhood sizes are
carry-save sums held in bit slices, and each step is one big-int operation
over all 2^n subsets at once.  One counter holds min(|N+[U]|, |N-[U]|), and
a walk down its slices inside each size layer reads that size's least value
directly.  On a host whose vertex-transitivity a family of automorphisms
certifies, only the 2^(n-1) subsets through vertex 0 are scored: translating
a minimizer keeps its size, both neighbourhood sizes and the 2n/3 limit, so
some minimizer contains 0 (the translates argument the vertex-transitive
bounds rest on).  Every threshold comparison is done in exact rational
arithmetic: the boundary cases 3|U| = n and 3|U| = 2n must never fall to
float rounding.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .digraph import (Digraph, DirectedCycle, DirectedPath, directed_cycle,
                      directed_path, iter_bits, reacher, shortest_route)

EXPANSION_EXACT_MAX = 20
EXPANSION_SAMPLES = 10_000     # random subsets drawn by expansion_sampled

log = logging.getLogger("vtc")


@dataclass(frozen=True)
class ExpansionReport:
    """Lower bound on the expansion ratio.

    When ``exact`` is True, ``alpha_lower`` is the true minimum of
    min(|N+(U)|, |N-(U)|)/|U| over all nonempty U with |U| <= 2n/3 and
    ``witness_set`` is the lexicographically smallest minimizer.  When
    sampled, the value is only a refutation certificate (an upper bound on
    the true alpha witnessed by ``witness_set``).
    """

    alpha_lower: Fraction
    witness_set: frozenset
    exact: bool


def expansion_exact(D: Digraph, family=None) -> ExpansionReport:
    """Exact expansion minimum, every subset scored at once.

    Subset U is bit U of every lane (a Python int with one bit per scored
    subset), so each step is a few big-int operations over all subsets
    together, with positive masks only (``x ^ (x & s)`` clears s from x):

    1. lane X_j holds the subsets that contain vertex j;
    2. v is in N+[U] exactly when U meets {v} or N-(v), so the OR of those
       X_u marks the subsets where v counts towards |N+[U]| (and likewise
       for N-[U] with N+(v));
    3. carry-save sums of these lanes into bit slices give |N+[U]|,
       |N-[U]| and |U| for every U, and one top-down compare of the first
       two merges them into one counter min(|N+[U]|, |N-[U]|);
    4. for each size k <= 2n/3 (its layer of subsets built from the partial
       ANDs it shares with k - 1 over their common top size bits) a walk
       down that counter's slices inside the size-k layer keeps, slice by
       slice, the subsets with a 0 there if there are any: it ends at the
       least c = min(|N+[U]|, |N-[U]|) over the layer, so that size's best
       ratio (c - k)/k, compared exactly as a Fraction, with exactly the
       subsets that reach it; those of every size that ties at the minimum
       are kept as one lane of candidates;
    5. the lexicographically smallest candidate is picked greedily, vertex
       by vertex: keep the candidates that contain the next vertex if there
       are any, and stop once the chosen prefix is itself a candidate.

    When ``family.certifies(D)`` holds, only the 2^(n-1) subsets through
    vertex 0 are scored: lane 0 is all ones and subset U is bit U >> 1.
    That is exact.  An automorphism that maps a vertex of a minimizer to 0
    keeps |U|, |N+[U]| and |N-[U]|, hence the ratio and the 2n/3 limit, so
    some minimizer contains 0, and the lexicographically smallest one then
    does too.  A family that does not certify D is ignored and all 2^n
    subsets are scored: the answer never depends on the family.
    """
    n = D.n
    if n < 2:
        raise ValueError("expansion needs at least 2 vertices")
    if n > EXPANSION_EXACT_MAX:
        raise ValueError(
            f"exact expansion scan is capped at n={EXPANSION_EXACT_MAX}; "
            f"got n={n} (use expansion_sampled)")
    shift = 1 if family is not None and family.certifies(D) else 0
    full = (1 << (1 << (n - shift))) - 1
    lanes = [full] + _subset_lanes(n - 1) if shift else _subset_lanes(n)
    size = _count(lanes)
    least = _min_counter(_count(_marked(lanes, D.inn)),
                         _count(_marked(lanes, D.out)), full)
    best, ties = None, 0
    # layer[i]: the subsets whose size agrees with k on bits i and up, so
    # the size-k layer is layer[0].  Built here for k = 0; each k rebuilds
    # only layer[t], ..., layer[0], t the top bit it changed from k - 1,
    # about two ANDs per k
    layer = [full]
    for s in reversed(size):
        layer.insert(0, layer[0] ^ (layer[0] & s))
    for k in range(1, (2 * n) // 3 + 1):
        for i in range((k ^ (k - 1)).bit_length() - 1, -1, -1):
            above, s = layer[i + 1], size[i]
            layer[i] = above & s if k >> i & 1 else above ^ (above & s)
        hits = layer[0]
        c = 0
        for i in range(len(least) - 1, -1, -1):
            low = hits ^ (hits & least[i])
            if low:
                hits = low
            else:
                c |= 1 << i
        ratio = Fraction(c - k, k)
        if best is None or ratio < best:
            best, ties = ratio, hits
        elif ratio == best:
            ties |= hits
    chosen = 0
    for j, lane in enumerate(lanes):
        if ties & lane:
            ties &= lane
            chosen |= 1 << j
            if ties >> (chosen >> shift) & 1:
                break
    return ExpansionReport(best, frozenset(iter_bits(chosen)), True)


def _subset_lanes(n: int) -> list:
    """X_j for j < n: bit U of X_j is set iff vertex j is in subset U.  The
    top lane is its upper half of ones, and X_j = X_{j+1} ^ (X_{j+1} >> 2^j)
    below it: each run of 2^(j+1) ones turns into its upper half and the
    2^j bits under the run.  Two big-int operations a lane; dividing big
    ints would be quadratic."""
    half = 1 << (n - 1)
    lane = ((1 << half) - 1) << half
    lanes = [lane]
    for j in range(n - 2, -1, -1):
        lane ^= lane >> (1 << j)
        lanes.append(lane)
    return lanes[::-1]


def _marked(lanes: list, rows):
    """For each v, the subsets U that meet {v} or rows[v], one lane at a
    time."""
    for v, row in enumerate(rows):
        lane = lanes[v]
        for u in row:
            lane |= lanes[u]
        yield lane


def _count(lanes) -> list:
    """How many of ``lanes`` hold each subset, as bit slices (slice i holds
    bit i of each count).  Carry-save adders fold the lanes of each weight
    into one as they arrive, two at a time into a running sum with a carry
    of the next weight, so m lanes cost about m full adders, and only the
    carries of the next weight are held at once."""
    slices, column = [], iter(lanes)
    total = next(column, None)
    while total is not None:
        carries = []
        for b in column:
            c = next(column, None)
            if c is None:
                carries.append(total & b)
                total ^= b
            else:
                t = total ^ b
                carries.append(total & b | t & c)
                total = t ^ c
        slices.append(total)
        column = iter(carries)
        total = next(column, None)
    return slices


def _min_counter(a: list, b: list, full: int) -> list:
    """min(a, b) of two bit-sliced counters of one width: a compare from the
    top slice down marks the subsets where a < b (the first slice where
    they differ has a 0 in a), and each slice takes a's bit there and b's
    elsewhere."""
    below, tied = 0, full
    for x, y in zip(reversed(a), reversed(b)):
        split = tied & (x ^ y)
        below |= split & y
        tied ^= split
    return [y ^ ((x ^ y) & below) for x, y in zip(a, b)]


def expansion_sampled(D: Digraph, seed: int = 0) -> ExpansionReport:
    """Random-subset upper bound on alpha; a refutation certificate only."""
    n = D.n
    if n < 2:
        raise ValueError("expansion needs at least 2 vertices")
    rng = random.Random(seed)
    size_limit = (2 * n) // 3
    best = None
    best_set = None
    for _ in range(EXPANSION_SAMPLES):
        k = rng.randint(1, size_limit)
        U = frozenset(rng.sample(range(n), k))
        boundary = min(len(D.out_neighborhood(U)), len(D.in_neighborhood(U)))
        ratio = Fraction(boundary, len(U))
        if best is None or ratio < best:
            best, best_set = ratio, U
    return ExpansionReport(best, best_set, False)


def expansion_check_transitive_bound(D: Digraph, report: ExpansionReport = None) -> bool:
    """Whether the exact expansion ratio meets the 1/(3d) floor that holds
    for every vertex-transitive digraph of directed diameter d."""
    if not D.is_strongly_connected():
        raise ValueError("bound check needs a strongly connected digraph")
    if report is None:
        report = expansion_exact(D)
    d = D.directed_diameter()
    return report.alpha_lower >= Fraction(1, 3 * d)


@dataclass(frozen=True)
class CycleSearchResult:
    """Cycle found by the descendant-driven search plus its proven floor."""

    cycle: DirectedCycle
    guarantee: Fraction
    trace: tuple

    def meets_guarantee(self) -> bool:
        return self.guarantee is None or self.cycle.length >= self.guarantee


def dfs_long_cycle(D: Digraph, alpha: Fraction = None) -> CycleSearchResult:
    """Extend a path while some fresh out-neighbor keeps at least 2n/3
    descendants in the residual digraph, then close a long cycle through
    the descendant set of the stuck endpoint.

    At the stopping point a set S of out-neighbors of the path's last
    vertex is assembled greedily so that the union U of their residual
    descendant sets satisfies n/3 <= |U| <= 2n/3: a single neighbor already
    in range is taken alone, otherwise all candidates are below n/3 and
    they are added in ascending id order until the union first reaches
    n/3 (each step adds less than n/3, so the union stays below 2n/3).
    Every out-neighbor of U then lies on the path; the cycle returns
    through the one closest to the path's start.  Both facts are asserted
    on every run.  When the caller knows the digraph is an alpha-expander,
    the returned cycle is guaranteed at least alpha*n/3 long.

    Descendant sets come from ``reacher``, and the stop reuses the last
    round's sets, computed in the same residual digraph.  ``VTC_LOG=INFO``
    logs the extensions, the reach sets computed and the route taken.
    """
    n = D.n
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if not D.is_strongly_connected():
        raise ValueError("digraph is not strongly connected")
    reach_from = reacher(D.out)
    runs = 0

    path = [0]
    residual = (1 << n) - 2   # the vertices off the path
    trace = []
    while True:
        v = path[-1]
        reach = {}   # tested out-neighbor -> its descendants in residual
        chosen = None
        for w in D.out[v]:
            if not (residual >> w) & 1:
                continue
            reach[w] = reach_from(w, residual)
            runs += 1
            if 3 * reach[w].bit_count() >= 2 * n:
                chosen = w
                break
        if chosen is None:
            break
        trace.append({"step": len(path), "extend_to": chosen})
        path.append(chosen)
        residual ^= 1 << chosen

    assert reach, "stuck endpoint must have out-neighbors off the path"
    log.info("dfs_long_cycle: %d extensions, %d reach sets by %s",
             len(trace), runs, reach_from.route)
    S, union = [], 0
    for w, desc in reach.items():
        if 3 * desc.bit_count() >= n:
            S, union = [w], desc
            break
        if 3 * union.bit_count() < n:
            S.append(w)
            union |= desc
    u_size = union.bit_count()
    assert n <= 3 * u_size, "descendant union fell below n/3"
    assert 3 * u_size <= 2 * n, "descendant union exceeded 2n/3"

    # all external out-neighbors of U are on the path
    members = set(iter_bits(union))
    out_of_union = {w for v in members for w in D.out[v]} - members
    assert out_of_union <= set(path), "U has an out-neighbor off the path"

    j = next(i for i, pv in enumerate(path) if pv in out_of_union)
    target = path[j]
    landing = next(u for u in D.inn[target] if u in members)
    # multi-source shortest route from S to the landing vertex inside U
    inside_union = tuple(tuple(w for w in row if w in members) for row in D.out)
    hop = shortest_route(inside_union, sorted(S), landing)
    assert hop is not None, "landing vertex unreachable from S inside U"
    cycle_vertices = path[j:] + hop
    trace.append({
        "stop_vertex": path[-1],
        "S": sorted(S),
        "union_size": u_size,
        "reentry": target,
        "landing": landing,
    })
    cycle = directed_cycle(D, cycle_vertices)
    guarantee = None
    if alpha is not None:
        guarantee = Fraction(alpha) * n / 3
        assert cycle.length >= guarantee, (
            f"cycle length {cycle.length} below guarantee {guarantee}")
    return CycleSearchResult(cycle, guarantee, tuple(trace))


def long_path(D: Digraph, certified_transitive: bool = False) -> DirectedPath:
    """The longer of a diameter-realizing shortest path and the opened
    long cycle.  For certified vertex-transitive inputs the cycle search
    assumes expansion 1/(3d) and the length must reach floor(sqrt(n)/3)."""
    n = D.n
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if not D.is_strongly_connected():
        raise ValueError("digraph is not strongly connected")
    diam_path = D.diameter_path()
    alpha = Fraction(1, 3 * (len(diam_path) - 1)) if certified_transitive else None
    cyc = dfs_long_cycle(D, alpha=alpha).cycle
    opened = directed_path(D, cyc.vertices)
    best = opened if opened.length > len(diam_path) - 1 else directed_path(D, diam_path)
    if certified_transitive:
        floor = isqrt(n) // 3
        assert best.length >= floor, (
            f"path length {best.length} below floor {floor}")
    return best
