"""Maximum matching (blossom), Gallai-Edmonds structure, vertex covers,
centered star packings with Hall violators, and Edmonds odd set covers.

Each result type checks itself against the graph with ``validate(g)``, and
its producer calls that before returning; a failed check raises
AlgorithmError and indicates a bug, never an unlucky input. No check runs a
solver: a matching and an odd set cover of one size pin nu from both sides,
and Gallai-Edmonds is a tight Tutte-Berge barrier plus swaps (see its class).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .flow import assign
from .graphs import AlgorithmError, Graph, GraphError, SizeCapError, induced_subgraph, per_graph

VERTEX_COVER_NU_CAP = 15
NU_ELL_VERTEX_CAP = 16


@dataclass(frozen=True, slots=True)
class MatchingResult:
    pairs: tuple[tuple[int, int], ...]

    @property
    def nu(self) -> int:
        return len(self.pairs)

    def validate(self, g: Graph):
        """nu's lower side: the pairs are disjoint edges of g."""
        for u, v in self.pairs:
            if not (0 <= u < g.n and v in g.adjacency[u]):
                raise AlgorithmError(f"matched pair ({u},{v}) is not an edge")
        if len({w for e in self.pairs for w in e}) != 2 * self.nu:
            raise AlgorithmError("matched pairs share a vertex")


@dataclass(frozen=True, slots=True)
class GallaiEdmonds:
    """D: vertices missed by some maximum matching; A = N(D) \\ D; C: rest.

    No solver checks it: the odd ``d_components``, with no edge between them,
    and G[C], which ``matching`` matches perfectly, make up G - A, so by the
    counts every maximum matching covers the Tutte-Berge barrier A and C. The
    swaps, each put in place of ``matching``'s pairs at its ends, give maximum
    matchings that leave every vertex of D exposed at least once."""

    D: frozenset[int]
    A: frozenset[int]
    C: frozenset[int]
    d_components: tuple[frozenset[int], ...]
    matching: MatchingResult
    swaps: tuple[tuple[tuple[int, int], ...], ...]

    def validate(self, g: Graph):
        """Re-check the structure against g with set arithmetic alone."""
        D, A, C, mm = self.D, self.A, self.C, self.matching
        if D | A | C != frozenset(range(g.n)) or len(D) + len(A) + len(C) != g.n:
            raise AlgorithmError("D, A and C do not partition the vertices")
        if A != frozenset(w for v in D for w in g.neighbors(v)) - D:
            raise AlgorithmError("A is not N(D) \\ D")
        part = {v: i for i, comp in enumerate(self.d_components) for v in comp}
        sizes = [len(comp) for comp in self.d_components]
        if part.keys() != D or len(part) != sum(sizes) or any(s % 2 == 0 for s in sizes):
            raise AlgorithmError("the components of G[D] are not odd parts of D")
        if any(u in part and v in part and part[u] != part[v] for u, v in g.edges):
            raise AlgorithmError("an edge joins two components of G[D]")
        in_c = [w for e in mm.pairs if C.issuperset(e) for w in e]
        if sorted(in_c) != sorted(C):
            raise AlgorithmError("the maximum matching does not match G[C] perfectly")
        total = len(A) + sum((len(c) - 1) // 2 for c in self.d_components) + len(C) // 2
        if total != mm.nu:
            raise AlgorithmError(f"Gallai-Edmonds count {total} != nu {mm.nu}")
        missed: set[int] = set()
        for swap in ((), *self.swaps):
            ends = {w for e in swap for w in e}
            other = MatchingResult(tuple(e for e in mm.pairs if ends.isdisjoint(e)) + tuple(swap))
            other.validate(g)
            if other.nu != mm.nu:
                raise AlgorithmError(f"a swap gives a matching of size {other.nu}, not {mm.nu}")
            missed |= frozenset(range(g.n)).difference(*other.pairs)
        if not D <= missed:
            raise AlgorithmError(f"no swap leaves {sorted(D - missed)} of D exposed")


@dataclass(frozen=True, slots=True)
class OddSetCover:
    """Vertices and disjoint odd sets that cover every edge, and a matching of
    g: each matched pair meets a vertex or lies in an odd set S, which holds at
    most (|S| - 1)/2 pairs, so the weight bounds nu from above (Edmonds)."""

    vertices: tuple[int, ...]
    odd_sets: tuple[frozenset[int], ...]
    matching: MatchingResult

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

    def validate(self, g: Graph):
        """nu from both sides: the matching, and the cover of equal weight."""
        self.matching.validate(g)
        if self.weight != self.matching.nu:
            raise AlgorithmError(f"odd set cover weight {self.weight} != nu {self.matching.nu}")
        if not (all(len(s) % 2 for s in self.odd_sets) and self.covers(g) and self.is_disjoint()):
            raise AlgorithmError("odd set cover fails oddness/coverage/disjointness")


@dataclass(frozen=True, slots=True)
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

def _alternating_search(adj, match: list[int], root: int) -> list[bool] | None:
    """Edmonds' blossom search from the exposed vertex ``root``: augments
    ``match`` and returns None, or returns a mask of the even (outer) vertices
    reached, i.e. the ends of even alternating paths from ``root``."""
    n = len(match)
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
                    return None
                used[match[to]] = True
                q.append(match[to])
    return used


@per_graph
def maximum_matching(g: Graph) -> MatchingResult:
    """A maximum matching; scan order is smallest-index-first for determinism."""
    adj, match = g.adjacency, [-1] * g.n
    for v in range(g.n):
        if match[v] == -1:
            _alternating_search(adj, match, v)
    mm = MatchingResult(tuple((v, match[v]) for v in range(g.n) if match[v] > v))
    mm.validate(g)
    return mm


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
    """Structure decomposition from one maximum matching M: D is the union of
    the even vertices of the failed alternating searches from the vertices M
    exposes (Lovasz-Plummer, Matching Theory, ch. 3), plus one search per swap."""
    mm = maximum_matching(g)
    match = [-1] * g.n
    for u, v in mm.pairs:
        match[u], match[v] = v, u
    reached = [_alternating_search(g.adjacency, match, r) for r in range(g.n) if match[r] == -1]
    if None in reached:
        raise AlgorithmError("augmenting path from an exposed vertex: matching not maximum")
    D = frozenset(v for even in reached for v in range(g.n) if even[v])
    A = frozenset(w for v in D for w in g.neighbors(v)) - D
    C = frozenset(range(g.n)) - D - A
    gd, labels = induced_subgraph(g, D)
    # components come by least vertex, and labels is increasing
    comps = tuple(frozenset(labels[i] for i in c) for c in gd.search.components)
    swaps = []
    for v in sorted(v for v in D if match[v] != -1):
        # drop v's pair, hide v, augment from w: the result misses v, not the end it reaches
        w, other = match[v], match[:]
        other[v] = other[w] = -1
        adj = [tuple(x for x in nbrs if x != v) if v in nbrs else nbrs for nbrs in g.adjacency]
        _alternating_search(adj, other, w)
        swaps.append(tuple((u, other[u]) for u in range(g.n) if u < other[u] != match[u]))
    ge = GallaiEdmonds(D, A, C, comps, mm, tuple(swaps))
    ge.validate(g)
    return ge


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
    # the first pass reads g itself, so the cover carries its matching
    sub, labels = g, range(g.n)
    while sub.m:
        ge = gallai_edmonds(sub)
        if not ge.D and not ge.A:
            vertices.append(labels[0])
            active = labels[1:]
        else:
            vertices.extend(sorted(labels[a] for a in ge.A))
            for comp in ge.d_components:
                if len(comp) >= 3:
                    odd_sets.append(frozenset(labels[i] for i in comp))
            active = sorted(labels[c] for c in ge.C)
        sub, labels = induced_subgraph(g, active)
    cover = OddSetCover(tuple(vertices), tuple(odd_sets), maximum_matching(g))
    cover.validate(g)
    return cover


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

    def validate(self, g: Graph):
        self.packing.validate(g)
        if self.violator is None and self.neighborhood is None:
            return
        if not self.violator:
            raise AlgorithmError("empty Hall violator despite an unsaturated assignment")
        if self.neighborhood != frozenset(w for a in self.violator for w in g.neighbors(a)):
            raise AlgorithmError("Hall violator neighborhood is not N(A')")
        if len(self.neighborhood) > self.ell * len(self.violator) - 1:
            raise AlgorithmError("Hall violator neighborhood too large")


def hall_violator(g: Graph, side_a, side_b, ell: int) -> HallResult:
    """Halmos-Vaughan check for an A-saturating ell-star forest.

    Each A-vertex is assigned ell leaves among its neighbours, each B-vertex
    at most once. The A-vertices reached by alternating paths from the ones
    left short form the violator, the smallest A' that maximizes
    ell |A'| - |N(A')|; it is empty exactly when A is saturated.

    The sides must be disjoint with union 0..n-1, and every edge must cross
    them; otherwise ``GraphError`` is raised before any neighbour is read.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    a_list = sorted(set(side_a))
    b_list = sorted(set(side_b))
    a_set, b_set = set(a_list), set(b_list)
    if a_set & b_set or a_set | b_set != set(range(g.n)):
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
    if res.total == ell * len(a_list):
        result = HallResult(ell, packing)
    else:
        # the bins the failed searches reach are N(A')
        result = HallResult(ell, packing, a_prime, frozenset(b_list[j] for j in res.reached_bins))
    result.validate(g)
    return result
