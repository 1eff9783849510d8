"""Digraph automorphism search by color refinement plus backtracking.

Used to verify vertex transitivity of digraphs that do not come with a
Cayley certificate.  Exact for the default budget on hosts up to a few
dozen vertices; returns UNKNOWN when the node budget runs out.
"""

from __future__ import annotations

from .digraph import Budget, Digraph, UNKNOWN
from .groups import AutomorphismFamily

DEFAULT_BUDGET = 200_000


def refine_colors(D: Digraph, colors=None) -> tuple:
    """Stable 1-WL coloring (out- and in-neighbor multisets).

    Color ids are ranks of sorted signatures, so they are canonical and
    automorphism-invariant.
    """
    if colors is None:
        colors = [(len(D.out[v]), len(D.inn[v])) for v in range(D.n)]
    colors = _canonical(colors)
    while True:
        sigs = [
            (colors[v],
             tuple(sorted(colors[w] for w in D.out[v])),
             tuple(sorted(colors[w] for w in D.inn[v])))
            for v in range(D.n)
        ]
        new = _canonical(sigs)
        if new == colors:
            return tuple(colors)
        colors = new


def _canonical(values) -> list:
    ranked = {s: i for i, s in enumerate(sorted(set(values)))}
    return [ranked[s] for s in values]


def find_automorphism(D: Digraph, src: int, dst: int, budget=None):
    """A digraph automorphism mapping src to dst, None if impossible,
    UNKNOWN when the backtracking budget is exhausted."""
    colors = refine_colors(D)
    if colors[src] != colors[dst]:
        return None
    spent = Budget(DEFAULT_BUDGET if budget is None else budget)
    return _search(D, colors, src, dst, spent)


def _search(D, colors, src, dst, spent):
    n = D.n
    order = sorted(range(n), key=lambda v: (v != src, colors.count(colors[v]), v))
    image = [-1] * n
    used = [False] * n

    def consistent(v, w):
        # adjacency with every already-mapped vertex must match both ways
        for x in range(n):
            ix = image[x]
            if ix < 0:
                continue
            if D.has_arc(v, x) != D.has_arc(w, ix):
                return False
            if D.has_arc(x, v) != D.has_arc(ix, w):
                return False
        return True

    def candidates(v):
        return iter([w for w in range(n)
                     if not used[w] and colors[w] == colors[v]])

    # frames[pos] iterates the candidate images of order[pos]; order[0] is
    # src.  A frame resumes only after its last choice was undone, so its
    # candidates are still unused.
    frames = [iter([dst])]
    while frames:
        v = order[len(frames) - 1]
        for w in frames[-1]:
            if not spent.spend():
                return UNKNOWN
            if consistent(v, w):
                image[v] = w
                used[w] = True
                break
        else:
            frames.pop()
            if frames:  # undo the parent's current choice
                u = order[len(frames) - 1]
                used[image[u]] = False
                image[u] = -1
            continue
        if len(frames) == n:
            return list(image)
        frames.append(candidates(order[len(frames)]))
    return None


def orbit_of(n: int, generators, start: int) -> set:
    """Orbit of a vertex under the group generated by the permutations."""
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for p in generators:
            w = p[v]
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def is_vertex_transitive(D: Digraph, budget=None):
    """TRUE iff the automorphism group acts transitively on vertices.

    Exact by default on small hosts; UNKNOWN once the shared search budget
    is exhausted.  Vertices in distinct refined color classes can never be
    swapped, which gives a fast negative path.
    """
    if D.n <= 1:
        return True
    colors = refine_colors(D)
    if len(set(colors)) > 1:
        return False
    spent = Budget(DEFAULT_BUDGET if budget is None else budget)
    generators = []
    orbit = {0}
    for u in range(1, D.n):
        if u in orbit:
            continue
        res = _search(D, list(colors), 0, u, spent)
        if res is UNKNOWN:
            return UNKNOWN
        if res is None:
            return False
        generators.append(res)
        orbit = orbit_of(D.n, generators, 0)
    return True


def automorphism_family_by_search(D: Digraph, budget=None):
    """A transitivity certificate found by search: for each vertex u one
    automorphism mapping 0 to u.  None if not transitive, UNKNOWN on budget
    exhaustion.  The family is validated before being returned."""
    if D.n == 0:
        return AutomorphismFamily(0, ())
    colors = refine_colors(D)
    if len(set(colors)) > 1:
        return None
    spent = Budget(DEFAULT_BUDGET if budget is None else budget)
    perms = [tuple(range(D.n))]
    for u in range(1, D.n):
        res = _search(D, list(colors), 0, u, spent)
        if res is UNKNOWN:
            return UNKNOWN
        if res is None:
            return None
        perms.append(tuple(res))
    fam = AutomorphismFamily(D.n, tuple(perms))
    fam.validate_digraph(D)
    return fam
