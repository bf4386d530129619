"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: direct enumeration over subsets,
partitions, and packings, plus a pure-Python cyclic Jacobi eigensolver.
None of it shares code paths with the package under test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from lapsum.graphs import Graph


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


# ---------------------------------------------------------------------------
# Pure-Python Jacobi eigensolver (independent of numpy's LAPACK path)

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


def jacobi_laplacian_spectrum(g: Graph):
    mat = [[0.0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        mat[u][v] = mat[v][u] = -1.0
        mat[u][u] += 1.0
        mat[v][v] += 1.0
    return jacobi_eigenvalues(mat)


def oracle_eps(g: Graph, k: int) -> float:
    vals = jacobi_laplacian_spectrum(g)
    if k > g.n:
        return float(g.m)
    return sum(vals[:k]) - g.m
