"""Digraph automorphism search by color refinement plus backtracking.

Used to verify vertex transitivity of digraphs that do not come with a
Cayley certificate.  The certificate is the same as for Cayley digraphs: a
few generating automorphisms, each checked against every arc, and the orbit
of vertex 0 under them as a Schreier vector (:func:`groups.schreier_vector`).
Search supplies the generators, one for each vertex the orbit has not yet
reached.  The family certifies transitivity as a group, through that
Schreier orbit; its members need not pass the set test
``AutomorphismFamily.is_transitive()`` (the families found for K5, K6 and
toroidal(1) do not).  The family carries its generators, so
``AutomorphismFamily.certifies`` can re-check the certificate against a
host.  Each candidate image is checked against the mapped vertices by
O(degree) mask work, not a scan of all n, so hosts of a thousand vertices
whose search seldom backtracks are in reach (toroidal(50) and C40xC40 take
well under a second); returns UNKNOWN when the node budget runs out.
"""

from __future__ import annotations

from .digraph import Budget, Digraph, UNKNOWN, adjacency_masks, iter_bits
from .groups import AutomorphismFamily, schreier_vector

DEFAULT_BUDGET = 200_000


def refine_colors(D: Digraph) -> tuple:
    """Stable 1-WL coloring (out- and in-neighbor multisets).

    Color ids are ranks of sorted signatures, so they are canonical and
    automorphism-invariant.
    """
    colors = _canonical([(len(D.out[v]), len(D.inn[v])) for v in range(D.n)])
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
    """Backtracking over the vertices in ``order``, each tried on the unused
    vertices of its color in ascending order, one budget unit per try.
    ``used`` is the mask of the images so far.  As the image map is
    injective, v -> w agrees with every mapped vertex iff the images of
    v's mapped out-neighbors are exactly w's out-neighbors among ``used``,
    and likewise for in-neighbors: O(deg) work per try, not O(n)."""
    n = D.n
    out_mask, in_mask = adjacency_masks(D.out), adjacency_masks(D.inn)
    classes = {}
    for v, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | 1 << v
    order = sorted(range(n), key=lambda v: (
        v != src, classes[colors[v]].bit_count(), v))
    image = [-1] * n
    used = 0

    def consistent(v, w):
        # adjacency with every already-mapped vertex must match both ways
        for rows, masks in ((D.out, out_mask), (D.inn, in_mask)):
            mapped = 0
            for x in rows[v]:
                ix = image[x]
                if ix >= 0:
                    mapped |= 1 << ix
            if mapped != masks[w] & used:
                return False
        return True

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
                used |= 1 << w
                break
        else:
            frames.pop()
            if frames:  # undo the parent's current choice
                u = order[len(frames) - 1]
                used ^= 1 << image[u]
                image[u] = -1
            continue
        if len(frames) == n:
            return list(image)
        v = order[len(frames)]
        frames.append(iter_bits(classes[colors[v]] & ~used))
    return None


def is_vertex_transitive(D: Digraph, budget=None):
    """TRUE iff the automorphism group acts transitively on vertices; the
    verdict of :func:`automorphism_family_by_search` at the same budget."""
    fam = automorphism_family_by_search(D, budget)
    return fam if fam is UNKNOWN else fam is not None


def automorphism_family_by_search(D: Digraph, budget=None):
    """A transitivity certificate found by search: for each vertex u one
    automorphism mapping 0 to u.  None if not transitive, UNKNOWN once the
    shared search budget is exhausted.

    Vertices in distinct refined color classes can never be swapped, which
    gives a fast negative path.  Otherwise 0 -> u is searched only for the
    u not yet in the orbit of 0 under the automorphisms found so far.  The
    member for u is the product of generators along the Schreier vector;
    the family keeps those generators (``AutomorphismFamily.generators``).
    """
    colors = refine_colors(D)
    if len(set(colors)) > 1:
        return None
    spent = Budget(DEFAULT_BUDGET if budget is None else budget)
    generators = []
    orbit = {0: None}
    for u in range(1, D.n):
        if u in orbit:
            continue
        res = _search(D, list(colors), 0, u, spent)
        if res is UNKNOWN:
            return UNKNOWN
        if res is None:
            return None
        generators.append(res)
        orbit = schreier_vector(generators, 0)
    AutomorphismFamily(D.n, generators).validate_digraph(D)
    members = {}
    for u, step in orbit.items():  # BFS order: parents first
        members[u] = (tuple(range(D.n)) if step is None
                      else tuple(map(step[1].__getitem__, members[step[0]])))
    return AutomorphismFamily(D.n, tuple(members[u] for u in range(D.n)),
                              tuple(generators))
