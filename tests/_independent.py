"""Independent oracle implementations used only by the tests.

These deliberately share no code with the package: second implementations
of gcd, BFS (directed and undirected), cycle enumeration (in discovery
order), Hamiltonicity, the expansion minimum and its smallest minimizer,
the automorphism checks on arc and edge sets, the left-translation
certificate and the tables of the cyclic and dihedral groups and their
products, coded in the most naive way available, so that agreement between
the two routes is meaningful evidence.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations, permutations


def euclid_gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _naive_distances(rows, source):
    """Dict-based BFS distances over neighbor rows; None marks unreachable."""
    dist = {source: 0}
    q = deque([source])
    while q:
        v = q.popleft()
        for w in rows[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                q.append(w)
    return [dist.get(v) for v in range(len(rows))]


def _naive_diameter(rows):
    best = 0
    for s in range(len(rows)):
        ds = _naive_distances(rows, s)
        if any(d is None for d in ds):
            return None
        best = max(best, max(ds))
    return best


def naive_diameter(D):
    return _naive_diameter(D.out)


def naive_graph_distances(G, source):
    return _naive_distances(G.adj, source)


def naive_graph_diameter(G):
    """Undirected diameter; None if disconnected, 0 for n <= 1."""
    return _naive_diameter(G.adj)


def dfs_cycles_in_order(D):
    """Every simple directed cycle as a canonical tuple (min vertex first),
    in the order a plain rooted DFS with no blocking machinery finds them:
    roots ascending, each vertex's out-neighbors in increasing order."""
    found = []

    def walk(root, v, visited, path):
        for w in sorted(D.out[v]):
            if w == root and len(path) >= 2:
                found.append(tuple(path))
            elif w > root and w not in visited:
                walk(root, w, visited | {w}, path + [w])

    for root in range(D.n):
        walk(root, root, {root}, [root])
    return found


def dfs_all_cycles(D):
    return set(dfs_cycles_in_order(D))


def permutation_hamiltonian(D):
    """Hamilton cycle existence by trying every vertex order (n <= 8)."""
    n = D.n
    if n < 2:
        return False
    for perm in permutations(range(1, n)):
        order = (0,) + perm
        if all(D.has_arc(order[i], order[(i + 1) % n]) for i in range(n)):
            return True
    return False


def preserves_arc_set(D, perm):
    """Whether perm is a bijection of the vertices that maps the arc set of
    D onto itself, compared as plain sets of pairs."""
    arcs = {(u, w) for u in range(D.n) for w in D.out[u]}
    return (sorted(perm) == list(range(D.n))
            and {(perm[u], perm[w]) for u, w in arcs} == arcs)


def preserves_edge_set(n, edges, perm):
    """Whether perm is a bijection of 0..n-1 that maps the undirected edge
    set, the pairs of ``edges`` taken as frozensets, onto itself."""
    edge_set = {frozenset(e) for e in edges}
    return (sorted(perm) == list(range(n))
            and {frozenset(perm[x] for x in e) for e in edge_set} == edge_set)


def left_translation_certificate(mult, identity, generators):
    """Whether the rows of a multiplication table pass the left-translation
    certificate: every generator row is a permutation mapping each arc
    x -> x*s of the Cayley digraph onto an arc; every row equals the product
    of generator rows built by breadth-first search from the identity (the
    generators taken in increasing order, each vertex keeping the product
    that reached it first); and every column holds every element."""
    n = len(mult)
    full = list(range(n))
    gens = sorted(set(generators))
    arcs = {(x, mult[x][s]) for x in range(n) for s in gens}
    for s in gens:
        row = mult[s]
        if sorted(row) != full or any((row[u], row[v]) not in arcs
                                      for u, v in arcs):
            return False
    members = {identity: tuple(full)}
    q = deque([identity])
    while q:
        v = q.popleft()
        for s in gens:
            w = mult[s][v]
            if w not in members:
                members[w] = tuple(mult[s][x] for x in members[v])
                q.append(w)
    if any(members.get(h) != tuple(mult[h]) for h in range(n)):
        return False
    return all(sorted(mult[h][u] for h in range(n)) == full for u in range(n))


def cyclic_table(n):
    """Multiplication table of Z_n: addition mod n."""
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def dihedral_table(m):
    """Multiplication table of the dihedral group of order 2m, where id
    e*m + i stands for s^e r^i.  Elements are the affine maps k -> eps*k + c
    of Z_m, r^i = (1, i) and s = (-1, 0), so s^e r^i = (eps, eps*i), and a
    product is the composition of maps (the right factor applied first)."""
    def affine(a):
        e, i = divmod(a, m)
        eps = -1 if e else 1
        return eps, eps * i % m

    def element(eps, c):
        return (0 if eps == 1 else m) + eps * c % m

    table = []
    for a in range(2 * m):
        eps1, c1 = affine(a)
        row = []
        for b in range(2 * m):
            eps2, c2 = affine(b)
            row.append(element(eps1 * eps2, (eps1 * c2 + c1) % m))
        table.append(row)
    return table


def product_table(t1, t2):
    """Table of the direct product, pair (a1, a2) numbered a1*len(t2) + a2."""
    n2 = len(t2)
    pairs = [(a1, a2) for a1 in range(len(t1)) for a2 in range(n2)]
    return [[t1[a1][b1] * n2 + t2[a2][b2] for b1, b2 in pairs]
            for a1, a2 in pairs]


def subset_expansion_minimum(D):
    """Expansion minimum and its lexicographically smallest minimizer, by
    materializing every subset as a frozenset: min over (ratio, sorted
    tuple) of every nonempty U with |U| <= 2n/3."""
    n = D.n
    best = None
    for k in range(1, (2 * n) // 3 + 1):
        for combo in combinations(range(n), k):
            U = frozenset(combo)
            outside = frozenset(range(n)) - U
            np = {w for u in U for w in D.out[u]} & outside
            nm = {w for u in U for w in D.inn[u]} & outside
            ratio = Fraction(min(len(np), len(nm)), k)
            if best is None or (ratio, combo) < best:
                best = (ratio, combo)
    return best[0], frozenset(best[1])


def subset_induced_cycles(G):
    """All vertex sets inducing a cycle, by scanning every subset (n <= 12)."""
    n = G.n
    out = set()
    for k in range(3, n + 1):
        for combo in combinations(range(n), k):
            sub = set(combo)
            degs = [sum(1 for w in G.adj[v] if w in sub) for v in combo]
            if any(d != 2 for d in degs):
                continue
            # connected 2-regular induced subgraph = induced cycle
            seen = {combo[0]}
            stack = [combo[0]]
            while stack:
                v = stack.pop()
                for w in G.adj[v]:
                    if w in sub and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == k:
                out.add(frozenset(combo))
    return out


def trial_division_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True
