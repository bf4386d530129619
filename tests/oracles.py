"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: direct enumeration over subsets,
partitions, and packings, plus a pure-Python cyclic Jacobi eigensolver.
None of it shares code paths with the package under test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from lapsum.graphs import Graph, GraphError


def edges_inside(g: Graph, subset) -> int:
    s = set(subset)
    return sum(1 for u, v in g.edges if u in s and v in s)


def oracle_density(g: Graph) -> Fraction:
    """max over non-empty vertex subsets of e(S)/|S|."""
    best = Fraction(0)
    for r in range(1, g.n + 1):
        for sub in combinations(range(g.n), r):
            val = Fraction(edges_inside(g, sub), r)
            if val > best:
                best = val
    return best


def oracle_max_densest_set(g: Graph) -> frozenset[int]:
    """Union of all non-empty vertex subsets attaining ``oracle_density``."""
    rho = oracle_density(g)
    union: set[int] = set()
    for r in range(1, g.n + 1):
        for sub in combinations(range(g.n), r):
            if Fraction(edges_inside(g, sub), r) == rho:
                union.update(sub)
    return frozenset(union)


def oracle_min_maximizer(ground, score) -> frozenset[int]:
    """Intersection of all subsets of ``ground`` that maximize ``score``."""
    ground = list(ground)
    subsets = [
        frozenset(sub) for r in range(len(ground) + 1) for sub in combinations(ground, r)
    ]
    best = max(score(sub) for sub in subsets)
    return frozenset(ground).intersection(*(sub for sub in subsets if score(sub) == best))


def set_partitions(items):
    """All set partitions of a list (restricted growth strings)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def oracle_partition_density(g: Graph) -> Fraction:
    """max over vertex partitions of (covered edges) / (largest part size)."""
    best = Fraction(0)
    for part in set_partitions(range(g.n)):
        covered = sum(edges_inside(g, p) for p in part)
        size = max(len(p) for p in part)
        val = Fraction(covered, size)
        if val > best:
            best = val
    return best


def loop_partition_witness(g: Graph):
    """Partition density by one pure-Python subset DP per part-size cap s,
    each taking the first best part in the order: lowest vertex alone, then
    with each submask of the others, descending; the smallest best s wins.

    Returns (value, parts sorted by least vertex, largest part size), the
    witness a table-based DP with the same tie order must reproduce.
    """
    n, full = g.n, (1 << g.n) - 1
    inside = [edges_inside(g, [v for v in range(n) if t >> v & 1]) for t in range(1 << n)]
    best, best_choice = Fraction(0), None
    for s in range(2, n + 1):
        f, choice = [0] * (1 << n), [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            rest = mask ^ low
            f[mask], choice[mask] = f[rest], low
            sub = rest
            while True:
                t = sub | low
                if bin(t).count("1") <= s and f[mask ^ t] + inside[t] > f[mask]:
                    f[mask], choice[mask] = f[mask ^ t] + inside[t], t
                if sub == 0:
                    break
                sub = (sub - 1) & rest
        if Fraction(f[full], s) > best:
            best, best_choice = Fraction(f[full], s), choice
    if best_choice is None:
        return Fraction(0), tuple(frozenset({v}) for v in range(n)), 1
    parts, mask = [], full
    while mask:
        t = best_choice[mask]
        parts.append(frozenset(v for v in range(n) if t >> v & 1))
        mask ^= t
    parts.sort(key=min)
    return best, tuple(parts), max(len(p) for p in parts)


def loop_graph6(g: Graph) -> str:
    """graph6 short form by a pure-Python bit loop over the vertex pairs."""
    if g.n > 62:
        raise GraphError(f"graph6 short form supports n <= 62, got n={g.n}")
    bits = []
    es = g.edge_set
    for v in range(1, g.n):
        for u in range(v):
            bits.append(1 if (u, v) in es else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def oracle_adjacency(g: Graph):
    """Each vertex's neighbours in increasing order, by testing every vertex
    pair against the edge list."""
    es = set(g.edges)
    return tuple(
        tuple(w for w in range(g.n) if (min(v, w), max(v, w)) in es) for v in range(g.n)
    )


def oracle_relabeling(g: Graph, h: Graph):
    """A vertex permutation that maps the edges of g onto those of h, as a
    tuple p with p[v] the image of v, or None: images of equal degree are
    tried for 0, 1, ... in turn, each dropped as soon as two assigned
    vertices disagree on adjacency."""
    if (g.n, g.m) != (h.n, h.m):
        return None
    n = g.n
    gadj, hadj = ([[False] * n for _ in range(n)] for _ in range(2))
    for adj, edges in ((gadj, g.edges), (hadj, h.edges)):
        for u, v in edges:
            adj[u][v] = adj[v][u] = True
    gdeg, hdeg = [sum(row) for row in gadj], [sum(row) for row in hadj]
    p: list[int] = []

    def extend() -> bool:
        v = len(p)
        if v == n:
            return True
        for w in range(n):
            if gdeg[v] == hdeg[w] and w not in p and all(
                gadj[v][u] == hadj[w][p[u]] for u in range(v)
            ):
                p.append(w)
                if extend():
                    return True
                p.pop()
        return False

    return tuple(p) if extend() else None


def oracle_conjugate_degrees(g: Graph) -> list[int]:
    """Entry i-1 counts the vertices of degree >= i, for i = 1..n, with each
    degree counted off the edge list."""
    deg = [0] * g.n
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return [sum(d >= i for d in deg) for i in range(1, g.n + 1)]


def _parity_union_find(g: Graph):
    """Union-find over g's edges with each vertex's parity relative to its
    root: ``(find, odd)``, where ``find(v)`` is (root, parity) and ``odd``
    says whether some edge joins two vertices of one parity in one set."""
    parent = list(range(g.n))
    parity = [0] * g.n

    def find(v):
        p = 0
        while parent[v] != v:
            p ^= parity[v]
            v = parent[v]
        return v, p

    odd = False
    for u, v in g.edges:
        (ru, pu), (rv, pv) = find(u), find(v)
        if ru == rv:
            odd = odd or pu == pv
        else:
            parent[ru], parity[ru] = rv, pu ^ pv ^ 1
    return find, odd


def oracle_components(g: Graph) -> list[frozenset[int]]:
    """Connected components by union-find, in the order of their smallest vertices."""
    find, _ = _parity_union_find(g)
    groups: dict[int, set[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v)[0], set()).add(v)
    return sorted((frozenset(c) for c in groups.values()), key=min)


def oracle_bipartition(g: Graph):
    """Sides of the 2-coloring by union-find parity that puts the smallest
    vertex of each component on the first side, or None if an edge closes
    an odd cycle."""
    find, odd = _parity_union_find(g)
    if odd:
        return None
    color, first = [], {}
    for v in range(g.n):  # ascending: the first vertex seen of a set is its smallest
        root, p = find(v)
        color.append(p ^ first.setdefault(root, p))
    return [v for v in range(g.n) if color[v] == 0], [v for v in range(g.n) if color[v] == 1]


def oracle_is_forest(g: Graph) -> bool:
    """Every union-find component spans exactly one edge fewer than its vertices."""
    return all(edges_inside(g, c) == len(c) - 1 for c in oracle_components(g))


def oracle_two_star_split(g: Graph):
    """The split of a forest into star forests by the depth parity of each
    edge's upper endpoint, each tree rooted at its smallest vertex: depths by
    relaxing the edge list until no vertex changes."""
    depth = {min(c): 0 for c in oracle_components(g)}
    changed = True
    while changed:
        changed = False
        for u, v in g.edges:
            for a, b in ((u, v), (v, u)):
                if a in depth and b not in depth:
                    depth[b] = depth[a] + 1
                    changed = True
    classes = ([], [])
    for u, v in g.edges:
        classes[min(depth[u], depth[v]) % 2].append((u, v))
    return tuple(tuple(sorted(c)) for c in classes if c)


def oracle_nu(g: Graph) -> int:
    """Maximum matching size by recursion over the edge list."""

    def rec(edges, used):
        best = 0
        for i, (u, v) in enumerate(edges):
            if u in used or v in used:
                continue
            best = max(best, 1 + rec(edges[i + 1 :], used | {u, v}))
        return best

    return rec(list(g.edges), frozenset())


def oracle_gallai_edmonds(g: Graph):
    """(D, A, C, components of G[D] by least vertex) by definition: v is in
    D iff nu(G - v) = nu(G), and A = N(D) \\ D."""
    nu = oracle_nu(g)
    d = frozenset(
        v
        for v in range(g.n)
        if oracle_nu(Graph(g.n, tuple(e for e in g.edges if v not in e))) == nu
    )
    a = frozenset(w for e in g.edges for u, w in (e, e[::-1]) if u in d) - d
    c = frozenset(range(g.n)) - d - a
    comps = []
    for v in sorted(d):
        if any(v in comp for comp in comps):
            continue
        comp, stack = {v}, [v]
        while stack:
            u = stack.pop()
            for e in g.edges:
                if u in e:
                    w = e[0] + e[1] - u
                    if w in d and w not in comp:
                        comp.add(w)
                        stack.append(w)
        comps.append(frozenset(comp))
    return d, a, c, tuple(comps)


def oracle_tau(g: Graph) -> int:
    """Minimum vertex cover by subset enumeration."""
    if g.m == 0:
        return 0
    for r in range(g.n + 1):
        for sub in combinations(range(g.n), r):
            s = set(sub)
            if all(u in s or v in s for u, v in g.edges):
                return r
    raise AssertionError("unreachable")


def oracle_nu_ell(g: Graph, ell: int) -> int:
    """Maximum packing of disjoint ell-leaf stars; enumerate stars, then
    search disjoint families recursively."""
    stars = []
    for c in range(g.n):
        nbrs = g.neighbors(c)
        for leaves in combinations(nbrs, ell):
            stars.append(frozenset((c, *leaves)))

    def rec(idx, used):
        best = 0
        for i in range(idx, len(stars)):
            if stars[i] & used:
                continue
            best = max(best, 1 + rec(i + 1, used | stars[i]))
        return best

    return rec(0, frozenset())


def oracle_arboricity(g: Graph) -> int:
    """Nash-Williams maximum of ceil(e(U) / (|U|-1)) over subsets."""
    if g.m == 0:
        return 0
    best = 1
    for r in range(2, g.n + 1):
        for sub in combinations(range(g.n), r):
            e = edges_inside(g, sub)
            val = -(-e // (r - 1))
            if val > best:
                best = val
    return best


def oracle_odd_cover_weight(g: Graph) -> int:
    """Minimum weight over all (vertex set, disjoint odd sets) edge covers."""
    if g.m == 0:
        return 0
    best = [g.n]

    def weight(verts, sets):
        return len(verts) + sum((len(s) - 1) // 2 for s in sets)

    def covers(verts, sets):
        for u, v in g.edges:
            if u in verts or v in verts:
                continue
            if not any(u in s and v in s for s in sets):
                return False
        return True

    others = list(range(g.n))

    def rec(idx_pool, sets):
        base = sum((len(s) - 1) // 2 for s in sets)
        if base >= best[0]:
            return
        # choose cover vertices among the pool, cheapest completion first
        uncovered = [
            (u, v)
            for u, v in g.edges
            if not any(u in s and v in s for s in sets)
        ]
        tau_part = _min_cover_within(uncovered, set(idx_pool), best[0] - base)
        if tau_part is not None:
            best[0] = min(best[0], base + tau_part)
        # or add one more odd set from the pool
        pool = sorted(idx_pool)
        if not pool:
            return
        anchor = pool[0]
        rec([v for v in pool if v != anchor], sets)  # anchor never in a set
        for size in range(3, len(pool) + 1, 2):
            for extra in combinations([v for v in pool if v != anchor], size - 1):
                s = frozenset((anchor, *extra))
                rec([v for v in pool if v not in s], sets + [s])

    rec(others, [])
    return best[0]


def _min_cover_within(edges, allowed, limit):
    """Smallest vertex set within ``allowed`` covering ``edges``, or None."""
    if not edges:
        return 0
    if limit <= 0:
        return None
    u, v = edges[0]
    best = None
    for w in (u, v):
        if w not in allowed:
            continue
        rest = [e for e in edges if w not in e]
        sub = _min_cover_within(rest, allowed, limit - 1)
        if sub is not None and (best is None or sub + 1 < best):
            best = sub + 1
    return best


def oracle_sa(g: Graph, cap: int = 6) -> int:
    """Star arboricity by brute-force class assignment (tiny graphs only)."""
    if g.m == 0:
        return 0

    def is_star_classes(classes):
        for cls in classes:
            d = {}
            for u, v in cls:
                d[u] = d.get(u, 0) + 1
                d[v] = d.get(v, 0) + 1
            for u, v in cls:
                if d[u] > 1 and d[v] > 1:
                    return False
        return True

    edges = list(g.edges)

    def rec(i, classes, t):
        if i == len(edges):
            return is_star_classes(classes)
        for c in range(len(classes)):
            classes[c].append(edges[i])
            if is_star_classes([classes[c]]) and rec(i + 1, classes, t):
                return True
            classes[c].pop()
        if len(classes) < t:
            classes.append([edges[i]])
            if rec(i + 1, classes, t):
                return True
            classes.pop()
        return False

    for t in range(1, cap + 1):
        if rec(0, [], t):
            return t
    raise AssertionError(f"star arboricity above cap {cap}")


# The static-order backtracking that lapsum's exact star arboricity used
# before it branched on the edge with the fewest fitting classes, kept
# verbatim as a reference: edges in one fixed order (degree sum, largest
# first), each tried in the classes already in use and then in one fresh
# class.
def static_star_assign(g: Graph, t: int):
    """Backtracking edge assignment into t star-forest classes, or None."""
    n, m = g.n, g.m
    degs = g.degrees()
    edges = sorted(g.edges, key=lambda e: -(degs[e[0]] + degs[e[1]]))
    deg = [[0] * n for _ in range(t)]
    nb = [[-1] * n for _ in range(t)]
    assign = [-1] * m

    def try_add(c, u, v):
        du, dv = deg[c][u], deg[c][v]
        if du > 0 and dv > 0:
            return False
        if du == 0 and dv > 0:
            u, v = v, u
            du, dv = dv, du
        if du > 0:
            # u must act as center: reject if u is a leaf of a bigger star
            if du == 1 and deg[c][nb[c][u]] >= 2:
                return False
            deg[c][u] += 1
            deg[c][v] = 1
            nb[c][v] = u
        else:
            deg[c][u] = deg[c][v] = 1
            nb[c][u] = v
            nb[c][v] = u
        return True

    def undo_add(c, u, v):
        if deg[c][u] == 1 and deg[c][v] == 1 and nb[c][u] == v and nb[c][v] == u:
            deg[c][u] = deg[c][v] = 0
            return
        if deg[c][v] == 1 and nb[c][v] == u:
            deg[c][v] = 0
            deg[c][u] -= 1
        else:
            deg[c][u] = 0
            deg[c][v] -= 1

    def rec(i, used):
        if i == m:
            return True
        u, v = edges[i]
        for c in range(min(used + 1, t)):
            if try_add(c, u, v):
                assign[i] = c
                if rec(i + 1, max(used, c + 1)):
                    return True
                undo_add(c, u, v)
                assign[i] = -1
        return False

    if not rec(0, 0):
        return None
    classes = [[] for _ in range(t)]
    for i, e in enumerate(edges):
        classes[assign[i]].append(e)
    return tuple(tuple(sorted(cls)) for cls in classes if cls)


def static_sa(g: Graph) -> int:
    """Star arboricity by ``static_star_assign`` at t = ceil(m/(n+ - 1)),
    ceil(m/(n+ - 1)) + 1, ... (n+ non-isolated vertices; a partition into t
    forests needs m <= t(n+ - 1), so no smaller t can succeed)."""
    if g.m == 0:
        return 0
    n_plus = len({v for e in g.edges for v in e})
    t = -(-g.m // (n_plus - 1))
    while (classes := static_star_assign(g, t)) is None:
        t += 1
    return len(classes)


# ---------------------------------------------------------------------------
# Pure-Python Jacobi eigensolver (independent of numpy's LAPACK path)

def oracle_rhs(tag: str, n: int, m: int, k: int, aux: dict) -> float:
    """Right-hand side of bound ``tag`` at k on a graph with n vertices and m
    edges, or NaN where the bound's side condition fails, typed from the
    formulas: eps_k(G) <= rhs, where eps_k = (sum of the k largest Laplacian
    eigenvalues) - m, and eps_k = m for k > n."""
    if tag == "brouwer":  # Brouwer: C(k+1, 2)
        return float(math.comb(k + 1, 2))
    if tag == "bai":  # Bai: sum_{i <= k} d*_i - m, with d* the conjugate degrees
        return float(sum(aux["conj_degrees"][:k]) - m) if k <= n else float(m)
    if tag == "weak-brouwer":  # the paper's theorem: k^2 + 15 k log k + 65 k
        return k**2 + 15 * k * math.log(k) + 65 * k
    if tag == "matching-thm":  # the paper's theorem: k nu + floor(k/2)
        return float(k * aux["nu"] + math.floor(k / 2))
    if tag == "matching-sq":  # 2k^2 - ceil(k/2)
        return float(2 * k**2 - math.ceil(k / 2))
    if tag == "bipartite-sq":  # 2k^2 - k, for bipartite G only
        return float(2 * k**2 - k) if aux["bipartite"] else math.nan
    if tag == "cover":  # k tau
        return float(k * aux["tau"])
    if tag == "star-arb":  # k sa
        return float(k * aux["sa"])
    if tag == "half-component":  # floor(k n' / 2), n' the largest component
        return float(math.floor(k * aux["n_prime"] / 2))
    if tag == "conj-matching-improved":  # k nu, for 1 <= k <= n_non-isolated - 2
        return float(k * aux["nu"]) if 1 <= k <= aux["non_isolated"] - 2 else math.nan
    if tag == "conj-cover":  # k tau - C(tau, 2), for k >= tau
        return float(k * aux["tau"] - math.comb(aux["tau"], 2)) if k >= aux["tau"] else math.nan
    raise KeyError(tag)


def jacobi_eigenvalues(matrix, sweeps: int = 60, tol: float = 1e-12):
    """Eigenvalues of a symmetric matrix by the cyclic Jacobi rotation method.

    ``matrix`` is a list of lists; returns eigenvalues sorted non-increasing.
    """
    import math

    n = len(matrix)
    a = [row[:] for row in matrix]
    for _ in range(sweeps):
        off = math.sqrt(sum(a[i][j] ** 2 for i in range(n) for j in range(n) if i != j))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p][q]) < tol / max(n, 1):
                    continue
                theta = (a[q][q] - a[p][p]) / (2 * a[p][q])
                t = (1 if theta >= 0 else -1) / (
                    abs(theta) + math.sqrt(theta * theta + 1)
                )
                c = 1 / math.sqrt(t * t + 1)
                s = t * c
                for i in range(n):
                    aip, aiq = a[i][p], a[i][q]
                    a[i][p] = c * aip - s * aiq
                    a[i][q] = s * aip + c * aiq
                for i in range(n):
                    api, aqi = a[p][i], a[q][i]
                    a[p][i] = c * api - s * aqi
                    a[q][i] = s * api + c * aqi
    return sorted((a[i][i] for i in range(n)), reverse=True)


def oracle_laplacian(g: Graph) -> list[list[float]]:
    """The Laplacian entry by entry, as a list of rows: +0.0 everywhere, then
    -1.0 at each edge and each edge's 1.0 added to both diagonal entries."""
    mat = [[0.0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        mat[u][v] = mat[v][u] = -1.0
        mat[u][u] += 1.0
        mat[v][v] += 1.0
    return mat


def jacobi_laplacian_spectrum(g: Graph):
    return jacobi_eigenvalues(oracle_laplacian(g))


def oracle_eps(g: Graph, k: int) -> float:
    vals = jacobi_laplacian_spectrum(g)
    if k > g.n:
        return float(g.m)
    return sum(vals[:k]) - g.m
