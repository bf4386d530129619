"""Maximum matching (blossom), Gallai-Edmonds structure, vertex covers,
centered star packings with Hall violators, and Edmonds odd set covers.

All certificates are re-verified before being returned; an internal
consistency failure raises AlgorithmError and indicates a bug, never an
unlucky input.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .density import SizeCapError
from .flow import assign
from .graphs import AlgorithmError, Graph, GraphError, induced_subgraph

VERTEX_COVER_NU_CAP = 15
NU_ELL_VERTEX_CAP = 16


@dataclass(frozen=True)
class MatchingResult:
    pairs: tuple[tuple[int, int], ...]

    @property
    def nu(self) -> int:
        return len(self.pairs)

    def matched_vertices(self) -> frozenset[int]:
        return frozenset(v for e in self.pairs for v in e)


@dataclass(frozen=True)
class GallaiEdmonds:
    """D: vertices missed by some maximum matching; A = N(D) \\ D; C: rest."""

    D: frozenset[int]
    A: frozenset[int]
    C: frozenset[int]
    d_components: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class OddSetCover:
    vertices: tuple[int, ...]
    odd_sets: tuple[frozenset[int], ...]

    @property
    def weight(self) -> int:
        return len(self.vertices) + sum((len(s) - 1) // 2 for s in self.odd_sets)

    def covers(self, g: Graph) -> bool:
        vs = set(self.vertices)
        for u, v in g.edges:
            if u in vs or v in vs:
                continue
            if not any(u in s and v in s for s in self.odd_sets):
                return False
        return True

    def is_disjoint(self) -> bool:
        seen: set[int] = set()
        for s in self.odd_sets:
            if seen & s:
                return False
            seen |= s
        return True


@dataclass(frozen=True)
class StarPacking:
    """Vertex-disjoint stars with a fixed leaf count."""

    ell: int
    stars: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def count(self) -> int:
        return len(self.stars)

    def validate(self, g: Graph):
        used: set[int] = set()
        for center, leaves in self.stars:
            if len(leaves) != self.ell or len(set(leaves)) != self.ell:
                raise AlgorithmError(f"star at {center} does not have {self.ell} leaves")
            verts = {center, *leaves}
            if len(verts) != self.ell + 1 or verts & used:
                raise AlgorithmError("stars are not vertex-disjoint")
            used |= verts
            for leaf in leaves:
                if not g.has_edge(center, leaf):
                    raise AlgorithmError(f"({center},{leaf}) is not an edge")


# ---------------------------------------------------------------------------
# Blossom maximum matching

def _blossom(n: int, adj, match: list[int]):
    """Augment ``match`` to maximum via blossom contraction (classic O(n^3))."""

    def find_path(root: int) -> bool:
        used = [False] * n
        p = [-1] * n
        base = list(range(n))
        used[root] = True
        q = deque([root])

        def lca(a: int, b: int) -> int:
            mark = [False] * n
            while True:
                a = base[a]
                mark[a] = True
                if match[a] == -1:
                    break
                a = p[match[a]]
            while True:
                b = base[b]
                if mark[b]:
                    return b
                b = p[match[b]]

        def mark_path(v: int, b: int, child: int, blossom: list[bool]):
            while base[v] != b:
                blossom[base[v]] = True
                blossom[base[match[v]]] = True
                p[v] = child
                child = match[v]
                v = p[match[v]]

        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    curbase = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, curbase, to, blossom)
                    mark_path(to, curbase, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        u = to
                        while u != -1:
                            pv = p[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        return True
                    used[match[to]] = True
                    q.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_path(v)
    return match


def maximum_matching(g: Graph) -> MatchingResult:
    """A maximum matching; scan order is smallest-index-first for determinism."""
    match = _blossom(g.n, g.adjacency, [-1] * g.n)
    pairs = tuple(sorted((v, match[v]) for v in range(g.n) if match[v] > v))
    return MatchingResult(pairs)


def matching_number(g: Graph) -> int:
    return maximum_matching(g).nu


# ---------------------------------------------------------------------------
# Minimum vertex cover

def min_vertex_cover(g: Graph) -> frozenset[int]:
    """An exact minimum vertex cover via iterative-deepening edge branching.

    Requires nu(g) <= 15 (the search tree is bounded by tau <= 2 nu).
    """
    nu = matching_number(g)
    if nu > VERTEX_COVER_NU_CAP:
        raise SizeCapError(
            f"exact vertex cover capped at nu <= {VERTEX_COVER_NU_CAP}, got nu={nu}"
        )
    edges = list(g.edges)
    for budget in range(nu, 2 * nu + 1):
        cover = _cover_search(edges, budget)
        if cover is not None:
            result = frozenset(cover)
            if not all(u in result or v in result for u, v in g.edges):
                raise AlgorithmError("vertex cover search returned a non-cover")
            return result
    raise AlgorithmError("no cover of size <= 2*nu found")  # pragma: no cover


def _cover_search(edges, budget, chosen=()):
    uncovered = [e for e in edges if e[0] not in chosen and e[1] not in chosen]
    if not uncovered:
        return list(chosen)
    if budget == 0:
        return None
    u, v = uncovered[0]
    res = _cover_search(uncovered, budget - 1, chosen + (u,))
    if res is not None:
        return res
    return _cover_search(uncovered, budget - 1, chosen + (v,))


def greedy_cover_2approx(g: Graph) -> frozenset[int]:
    """Both endpoints of a lexicographic maximal matching; size <= 2 nu."""
    used: set[int] = set()
    for u, v in g.edges:
        if u not in used and v not in used:
            used.add(u)
            used.add(v)
    return frozenset(used)


# ---------------------------------------------------------------------------
# Gallai-Edmonds

def gallai_edmonds(g: Graph) -> GallaiEdmonds:
    """Structure decomposition computed definitionally: v is in D iff some
    maximum matching exposes v, tested as nu(G - v) == nu(G)."""
    nu = matching_number(g)
    d = []
    for v in range(g.n):
        sub, _ = induced_subgraph(g, [u for u in range(g.n) if u != v])
        if matching_number(sub) == nu:
            d.append(v)
    D = frozenset(d)
    A = frozenset(w for v in D for w in g.neighbors(v)) - D
    C = frozenset(range(g.n)) - D - A
    gd, labels = induced_subgraph(g, sorted(D))
    from .graphs import components_info

    comps_local, _ = components_info(gd)
    comps = tuple(
        sorted((frozenset(labels[i] for i in c) for c in comps_local), key=min)
    )
    ge = GallaiEdmonds(D, A, C, comps)
    _verify_gallai_edmonds(g, ge, nu)
    return ge


def _verify_gallai_edmonds(g: Graph, ge: GallaiEdmonds, nu: int):
    for comp in ge.d_components:
        if len(comp) % 2 == 0:
            raise AlgorithmError(f"component {sorted(comp)} of G[D] has even order")
        sub, _ = induced_subgraph(g, sorted(comp))
        target = (len(comp) - 1) // 2
        for skip in range(sub.n):
            rest, _ = induced_subgraph(sub, [u for u in range(sub.n) if u != skip])
            if matching_number(rest) != target:
                raise AlgorithmError(
                    f"component {sorted(comp)} of G[D] is not factor-critical"
                )
    gc, _ = induced_subgraph(g, sorted(ge.C))
    if len(ge.C) % 2 != 0 or matching_number(gc) != len(ge.C) // 2:
        raise AlgorithmError("G[C] has no perfect matching")
    total = (
        len(ge.A)
        + sum((len(c) - 1) // 2 for c in ge.d_components)
        + len(ge.C) // 2
    )
    if total != nu:
        raise AlgorithmError(f"Gallai-Edmonds count {total} != nu {nu}")


# ---------------------------------------------------------------------------
# Odd set covers

def odd_set_cover(g: Graph) -> OddSetCover:
    """A minimum-weight odd set cover (weight = nu) built from Gallai-Edmonds.

    Cover vertices come from A; odd sets are the factor-critical components
    of G[D]; the perfectly-matchable remainder C is peeled one smallest-index
    vertex at a time, which drops nu by exactly one per step.
    """
    vertices: list[int] = []
    odd_sets: list[frozenset[int]] = []
    active = sorted(range(g.n))
    while True:
        sub, labels = induced_subgraph(g, active)
        if sub.m == 0:
            break
        ge = gallai_edmonds(sub)
        if not ge.D and not ge.A:
            v = labels[0]
            vertices.append(v)
            active = [u for u in active if u != v]
            continue
        vertices.extend(sorted(labels[a] for a in ge.A))
        for comp in ge.d_components:
            if len(comp) >= 3:
                odd_sets.append(frozenset(labels[i] for i in comp))
        active = sorted(labels[c] for c in ge.C)
    cover = OddSetCover(tuple(vertices), tuple(odd_sets))
    nu = matching_number(g)
    if cover.weight != nu:
        raise AlgorithmError(f"odd set cover weight {cover.weight} != nu {nu}")
    if not cover.covers(g) or not cover.is_disjoint():
        raise AlgorithmError("odd set cover fails coverage/disjointness")
    return cover


def normalize_odd_set_cover(
    g: Graph, vertices, odd_sets
) -> OddSetCover:
    """Disjointify a raw odd set cover without increasing its weight.

    Intersecting pairs merge when the union is odd; when even, the union
    minus one vertex (largest index, an artifact tie-break) becomes the set
    and the removed vertex becomes a cover vertex.
    """
    vs = [int(v) for v in vertices]
    sets = [frozenset(s) for s in odd_sets]
    for s in sets:
        if len(s) % 2 == 0:
            raise GraphError(f"odd set {sorted(s)} has even size")
    raw = OddSetCover(tuple(vs), tuple(sets))
    if not raw.covers(g):
        raise GraphError("input is not an odd set cover of the graph")
    start_weight = raw.weight
    while True:
        hit = None
        for i, j in combinations(range(len(sets)), 2):
            if sets[i] & sets[j]:
                hit = (i, j)
                break
        if hit is None:
            break
        i, j = hit
        union = sets[i] | sets[j]
        rest = [s for idx, s in enumerate(sets) if idx not in (i, j)]
        if len(union) % 2 == 1:
            sets = rest + [union]
        else:
            v = max(union)
            sets = rest + [union - {v}]
            vs.append(v)
    out = OddSetCover(tuple(vs), tuple(s for s in sets if len(s) >= 1))
    if out.weight > start_weight:
        raise AlgorithmError("normalization increased the cover weight")
    if not out.covers(g) or not out.is_disjoint():
        raise AlgorithmError("normalized cover fails coverage/disjointness")
    return out


# ---------------------------------------------------------------------------
# ell-star packings

def nu_ell(g: Graph, ell: int) -> StarPacking:
    """A maximum packing of vertex-disjoint stars with ell leaves each.

    ell = 1 delegates to the blossom matching; ell >= 2 runs an exact
    branch-and-bound over centers in increasing index (n <= 16).
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if ell == 1:
        pairs = maximum_matching(g).pairs
        packing = StarPacking(1, tuple((u, (v,)) for u, v in pairs))
        packing.validate(g)
        return packing
    if g.n > NU_ELL_VERTEX_CAP:
        raise SizeCapError(
            f"exact nu_ell capped at n <= {NU_ELL_VERTEX_CAP}, got n={g.n}"
        )
    n = g.n
    adjmask = [0] * n
    for u, v in g.edges:
        adjmask[u] |= 1 << v
        adjmask[v] |= 1 << u
    best: list = [0, []]

    def bits(mask):
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def rec(avail: int, start: int, stars: list):
        if len(stars) > best[0]:
            best[0] = len(stars)
            best[1] = list(stars)
        if len(stars) + bin(avail).count("1") // (ell + 1) <= best[0]:
            return
        for c in range(start, n):
            if not avail >> c & 1:
                continue
            nbrs = adjmask[c] & avail
            if bin(nbrs).count("1") < ell:
                continue
            for leaves in combinations(bits(nbrs), ell):
                taken = 1 << c
                for leaf in leaves:
                    taken |= 1 << leaf
                stars.append((c, leaves))
                rec(avail & ~taken, c + 1, stars)
                stars.pop()

    rec((1 << n) - 1, 0, [])
    packing = StarPacking(ell, tuple(best[1]))
    packing.validate(g)
    return packing


def nu_ell_value(g: Graph, ell: int) -> int:
    return nu_ell(g, ell).count


# ---------------------------------------------------------------------------
# Hall condition for centered star forests

@dataclass(frozen=True)
class HallResult:
    """Either an A-saturating ell-star forest, or a Hall violator A'.

    The two branches are mutually exclusive: ``packing`` saturates A when
    ``violator`` is None; otherwise ``packing`` certifies
    |A \\ A'| <= nu_ell(G; A) and ``neighborhood`` = N(A') has size
    <= ell |A'| - 1.
    """

    ell: int
    packing: StarPacking
    violator: frozenset[int] | None = None
    neighborhood: frozenset[int] | None = None

    @property
    def saturating(self) -> bool:
        return self.violator is None


def hall_violator(g: Graph, side_a, side_b, ell: int) -> HallResult:
    """Halmos-Vaughan check for an A-saturating ell-star forest.

    Each A-vertex is assigned ell leaves among its neighbours, each B-vertex
    at most once. The A-vertices reached by alternating paths from the ones
    left short form the violator, the smallest A' that maximizes
    ell |A'| - |N(A')|; it is empty exactly when A is saturated.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    a_list = sorted(set(side_a))
    b_list = sorted(set(side_b))
    a_set, b_set = set(a_list), set(b_list)
    if a_set & b_set or len(a_set) + len(b_set) != g.n:
        raise GraphError("sides must partition the vertex set")
    for u, v in g.edges:
        if (u in a_set) == (v in a_set):
            raise GraphError(f"edge ({u},{v}) does not cross the bipartition")

    b_pos = {v: j for j, v in enumerate(b_list)}
    res = assign(
        [ell] * len(a_list),
        [1] * len(b_list),
        [[b_pos[w] for w in g.neighbors(a)] for a in a_list],
    )
    a_prime = frozenset(a_list[i] for i in res.reached_items)
    packing = StarPacking(
        ell,
        tuple(
            (a, tuple(b_list[j] for j in sorted(load)))
            for a, load in zip(a_list, res.load)
            if a not in a_prime
        ),
    )
    packing.validate(g)
    if res.total == ell * len(a_list):
        return HallResult(ell, packing)

    nbhd = frozenset(w for a in a_prime for w in g.neighbors(a))
    if not a_prime:
        raise AlgorithmError("empty Hall violator despite an unsaturated assignment")
    if len(nbhd) > ell * len(a_prime) - 1:
        raise AlgorithmError("Hall violator neighborhood too large")
    return HallResult(ell, packing, a_prime, nbhd)
