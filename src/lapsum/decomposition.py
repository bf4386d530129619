"""Arboricity, star arboricity, structure decomposition, and color-list
assignments of orientations.

Arboricity, its witness and forest decompositions come from one
matroid-partition pass; star arboricity is exact backtracking at desk
scale; the upper-bound pipeline follows the two constructive routes
(doubling a forest decomposition for small k, randomized color-list
assignment of an auxiliary apex graph for large k).
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field

from .density import (
    Orientation,
    OrientationInfeasible,
    _edges_inside,
    k_orientation,
    partition_density,
    partition_density_bracket,
)
from .flow import assign
from .graphs import (
    AlgorithmError,
    Graph,
    GraphError,
    SizeCapError,
    graph_from_edges,
    induced_subgraph,
    is_forest,
    non_isolated_count,
)
from .matching import greedy_cover_2approx, hall_violator

STAR_ARB_EDGE_CAP = 30


# ---------------------------------------------------------------------------
# Decomposition containers

@dataclass(frozen=True, slots=True)
class ForestDecomposition:
    n: int
    classes: tuple[tuple[tuple[int, int], ...], ...]

    def validate(self, g: Graph):
        _check_edge_partition(g, self.classes)
        for cls in self.classes:
            if not is_forest(Graph(self.n, tuple(sorted(cls)))):
                raise AlgorithmError("forest class contains a cycle")


@dataclass(frozen=True, slots=True)
class StarForestDecomposition:
    n: int
    classes: tuple[tuple[tuple[int, int], ...], ...]

    def validate(self, g: Graph):
        _check_edge_partition(g, self.classes)
        for cls in self.classes:
            if not is_star_forest(self.n, cls):
                raise AlgorithmError("class is not a star forest")


def _check_edge_partition(g: Graph, classes):
    """Each edge of g in exactly one class, as g writes it: with g's edges
    strictly sorted, this rules out repeats, non-edges and reversed pairs."""
    if sorted(e for cls in classes for e in cls) != list(g.edges):
        raise AlgorithmError("classes do not partition the edges of the graph")


def is_star_forest(n: int, edges) -> bool:
    """True iff every edge has an endpoint of degree 1 within the class."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return all(deg[u] == 1 or deg[v] == 1 for u, v in edges)


# ---------------------------------------------------------------------------
# Arboricity

def arboricity_value(g: Graph) -> tuple[int, frozenset[int] | None]:
    """Exact Nash-Williams arboricity a(G) with a witness set U,
    ceil(e(U) / (|U|-1)) = a(G); the witness is None for an edgeless graph."""
    t, witness, _ = _forest_partition(g)
    return t, witness


def forest_decomposition(g: Graph) -> ForestDecomposition:
    """Partition E into exactly a(G) forests."""
    t, _, classes = _forest_partition(g)
    fd = ForestDecomposition(g.n, classes)
    fd.validate(g)
    if len(fd.classes) != t:
        raise AlgorithmError(
            f"decomposed into {len(fd.classes)} forests, arboricity says {t}"
        )
    return fd


def _forest_partition(g: Graph):
    """Edmonds' matroid partition of E into forests: (a(G), witness, classes).

    Edges are inserted in lexicographic order into t = 1, 2, ... classes,
    restarting at each t; the first t that takes every edge is a(G). When
    every class would close a cycle, a BFS over cycle-edge exchanges
    relocates edges across classes until the new edge fits. When that BFS
    runs out, the reached edges form one connected set S that every class
    spans as a tree, so |S| = t(|V(S)|-1) + 1 and V(S) witnesses a(G) > t.
    """
    if g.m == 0:
        return 0, None, ()
    witness = frozenset(g.edges[0])  # a single edge witnesses a(G) >= 1
    t = 1
    while not isinstance(result := _insert_edges(g, t), tuple):
        witness, t = result, t + 1
    if -(-_edges_inside(g, witness) // (len(witness) - 1)) != t:
        raise AlgorithmError(f"witness {sorted(witness)} does not attain arboricity {t}")
    return t, witness, result


def _insert_edges(g: Graph, t: int):
    """The edges of g partitioned into t forest classes, or, when some edge
    does not fit, the vertex set of its exhausted exchange search."""
    class_adj: list[dict[int, set[int]]] = [
        {v: set() for v in range(g.n)} for _ in range(t)
    ]
    edge_class: dict[tuple[int, int], int] = {}

    def tree_path(c: int, src: int, dst: int):
        """Edges on the src-dst path in forest c, or None if disconnected."""
        prev: dict[int, int] = {src: -1}
        q = deque([src])
        while q:
            x = q.popleft()
            if x == dst:
                path = []
                while x != src:
                    px = prev[x]
                    path.append((px, x) if px < x else (x, px))
                    x = px
                return path
            for y in class_adj[c][x]:
                if y not in prev:
                    prev[y] = x
                    q.append(y)
        return None

    def insert(e0: tuple[int, int]) -> frozenset[int] | None:
        pred: dict[tuple[int, int], tuple[tuple[int, int], int] | None] = {e0: None}
        q = deque([e0])
        while q:
            f = q.popleft()
            for c in range(t):
                if edge_class.get(f) == c:
                    continue
                path = tree_path(c, f[0], f[1])
                if path is None:
                    x, target = f, c
                    while True:
                        old = edge_class.get(x)
                        if old is not None:
                            class_adj[old][x[0]].discard(x[1])
                            class_adj[old][x[1]].discard(x[0])
                        class_adj[target][x[0]].add(x[1])
                        class_adj[target][x[1]].add(x[0])
                        edge_class[x] = target
                        link = pred[x]
                        if link is None:
                            return None
                        x, target = link
                for h in path:
                    if h not in pred:
                        pred[h] = (f, c)
                        q.append(h)
        reached = frozenset(v for e in pred for v in e)
        if len(pred) != t * (len(reached) - 1) + 1:
            raise AlgorithmError(f"exchange search for {e0} is no witness for {t} forests")
        return reached

    for e in g.edges:
        reached = insert(e)
        if reached is not None:
            return reached
    classes = tuple(
        tuple(sorted(e for e, c in edge_class.items() if c == i)) for i in range(t)
    )
    return tuple(cls for cls in classes if cls)


# ---------------------------------------------------------------------------
# Star forests

def forest_to_two_star_forests(n: int, forest_edges) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Split one forest into <= 2 star forests by parent-depth parity.

    Each tree is rooted at its smallest vertex, as ``Graph.search`` roots it;
    an edge goes to class 0 or 1 by the depth parity of its parent endpoint.
    """
    # ordered edge tuples are kept, not copied: the classes share them
    forest = Graph(
        n, tuple(sorted(tuple(e) if e[0] < e[1] else (e[1], e[0]) for e in forest_edges))
    )
    if not is_forest(forest):
        raise GraphError("input edge set is not acyclic")
    depth = forest.search.depth
    classes: list[list[tuple[int, int]]] = [[], []]
    for e in forest.edges:
        u, v = e
        parent = u if depth[u] < depth[v] else v
        classes[depth[parent] % 2].append(e)
    out = tuple(tuple(cls) for cls in classes if cls)
    for cls in out:
        if not is_star_forest(n, cls):
            raise AlgorithmError("parity split produced a non-star-forest class")
    return out


def star_arboricity_exact(g: Graph) -> tuple[int, StarForestDecomposition]:
    """Exact star arboricity by iterative deepening from t0 = ceil(m/(n+ - 1)),
    where n+ is the number of non-isolated vertices (n+ >= 2 once m >= 1).

    The start never passes sa(G). A forest has at most |U| - 1 edges inside
    any vertex set U, and all m edges lie inside the n+ non-isolated
    vertices, so a partition of E into t forests needs m <= t(n+ - 1), that
    is t >= t0. Hence t0 <= a(G) (Nash-Williams 1964), and a(G) <= sa(G)
    because a star forest is a forest. Every t < sa(G) fails, so the first
    t that succeeds is sa(G). For every t >= t0, m <= t(n - 1) holds, so
    ``_star_assign`` needs no edge-count test. The edge order and the edge
    masks of the search are built once per graph (``_star_plan``).
    """
    if g.m > STAR_ARB_EDGE_CAP:
        raise SizeCapError(
            f"exact star arboricity capped at |E| <= {STAR_ARB_EDGE_CAP}, got {g.m}"
        )
    if g.m == 0:
        return 0, StarForestDecomposition(g.n, ())
    plan = _star_plan(g)
    t = -(-g.m // (non_isolated_count(g) - 1))
    while (classes := _star_assign(plan, t)) is None:
        t += 1
    sfd = StarForestDecomposition(g.n, classes)
    sfd.validate(g)
    return len(classes), sfd


def _star_plan(g: Graph):
    """The search input of ``_star_assign``: (n, edges, inc). Edge i is the
    i-th edge by degree sum, largest first (ties in lexicographic order),
    and inc[v] is the bit mask of the edge indices at vertex v."""
    degs = g.degrees()
    edges = sorted(g.edges, key=lambda e: -(degs[e[0]] + degs[e[1]]))
    inc = [0] * g.n
    for i, (u, v) in enumerate(edges):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
    return g.n, edges, inc


def _star_assign(plan, t: int):
    """The edges of a ``_star_plan`` assigned to t star-forest classes by
    backtracking, or None when no assignment exists.

    State of a class c: in a star forest every vertex is free (no class
    edge), a hub (a star centre, or either end of a single-edge star) or a
    closed leaf (a leaf of a star with two or more edges). ``free[c]`` is
    the vertex mask of free vertices; ``mate[c][h]`` is the first neighbour
    of hub h; the edge masks ``touched[c]`` (an end not free) and
    ``nofit[c]`` (both ends not free, or an end closed) are kept up to date
    as edges are added, so the class fit of every edge is one AND.

    Search: a node holds the unassigned edges and the number ``used`` of
    classes with an edge, which are classes 0..used-1. It branches on the
    unassigned edge that fits the fewest used classes, ties to the lowest
    index, into each used class it fits and then into class ``used`` if
    used < t; with no class in use that is edge 0 into class 0.

    Why the search is exhaustive:

    * The fit test accepts exactly the additions that keep a class a star
      forest. Adding uv to a class keeps every component a star iff u and v
      are both free (a new single-edge star) or one is free and the other a
      hub (the hub becomes or stays the centre; the other end of a
      single-edge star becomes a closed leaf). An edge between two non-free
      vertices joins two stars or closes a triangle, and an edge at a closed
      leaf makes a path on four vertices. ``nofit`` holds exactly these
      rejected edges: an edge joins it when its second end stops being free
      (the ``touched`` edges at a vertex that stops being free) or when an
      end becomes a closed leaf.
    * Every complete assignment below a node agrees with the node's partial
      classes, and an edge subset of a star forest is a star forest. So an
      unassigned edge that fits no class (a dead edge: it fits no used
      class and used = t, since an empty class fits every edge) has no
      completion, and the node is pruned. An edge that fits one class has
      every completion put it there. The fewest-fits choice picks a dead
      edge whenever there is one, and otherwise an edge with one class
      whenever there is one, which the node then places without branching.
    * Classes used..t-1 are empty at a node, so a permutation of them maps
      a completion of the node to another completion of it. If some
      completion puts the chosen edge e into an empty class, swapping that
      class with class ``used`` gives one that puts e into class ``used``,
      the only empty class the node tries. The choice of e reads only the
      node's own state (fit counts over the used classes and the edge
      index), so it does not matter in which order the edges came before:
      by induction on the number of unassigned edges, a node with a
      completion finds one.
    """
    n, edges, inc = plan
    full = (1 << n) - 1
    free = [full] * t
    touched = [0] * t
    nofit = [0] * t
    mate = [[0] * n for _ in range(t)]
    where = [0] * len(edges)

    def rec(left, used):
        if not left:
            return True
        fits, low = _fewest_fits(left, nofit, used)
        if not fits and used == t:
            return False
        bit = low & -low
        i = bit.bit_length() - 1
        u, v = edges[i]
        for c in range(used + 1 if used < t else t):
            fc, tc, nc = free[c], touched[c], nofit[c]
            if nc & bit:
                continue
            if fc >> u & 1 and fc >> v & 1:
                iu, iv = inc[u], inc[v]
                nofit[c] = nc | iu & tc | iv & (tc | iu)
                touched[c] = tc | iu | iv
                free[c] = fc & ~(1 << u | 1 << v)
                mate[c][u], mate[c][v] = v, u
            else:
                hub, leaf = (v, u) if fc >> u & 1 else (u, v)
                nofit[c] = nc | inc[leaf] | inc[mate[c][hub]]
                touched[c] = tc | inc[leaf]
                free[c] = fc & ~(1 << leaf)
            where[i] = c
            if rec(left & ~bit, used + (c == used)):
                return True
            free[c], touched[c], nofit[c] = fc, tc, nc
        return False

    if not rec((1 << len(edges)) - 1, 0):
        return None
    classes = [[] for _ in range(t)]
    for e, c in zip(edges, where):
        classes[c].append(e)
    return tuple(tuple(sorted(cls)) for cls in classes if cls)


def _fewest_fits(left: int, nofit, used: int) -> tuple[int, int]:
    """(k, low): the fewest k of the classes 0..used-1 that an edge of the
    mask ``left`` fits, and the mask of the edges that fit exactly k, where
    edge i fits class c iff bit i of nofit[c] is clear. One sweep settles
    k < 3; only when every edge fits three or more classes are all counts
    taken."""
    one = two = three = 0  # the edges that fit >= 1, >= 2, >= 3 classes
    for c in range(used):
        fit = left & ~nofit[c]
        three |= two & fit
        two |= one & fit
        one |= fit
    if one != left:
        return 0, left & ~one
    if two != left:
        return 1, left & ~two
    if three != left:
        return 2, left & ~three
    ge = [left] + [0] * (used + 1)  # ge[k]: the edges that fit >= k classes
    for c in range(used):
        fit = left & ~nofit[c]
        for k in range(c + 1, 0, -1):
            ge[k] |= ge[k - 1] & fit
    k = 3
    while ge[k + 1] == left:
        k += 1
    return k, left & ~ge[k + 1]


# ---------------------------------------------------------------------------
# Structure decomposition

@dataclass(frozen=True, slots=True)
class StructureDecomposition:
    k: int
    U: frozenset[int]
    C: frozenset[int]
    I: frozenset[int]

    def validate(self, g: Graph):
        k = self.k
        if self.U & self.C or self.U & self.I or self.C & self.I:
            raise AlgorithmError("U, C, I are not pairwise disjoint")
        if self.U | self.C | self.I != frozenset(range(g.n)):
            raise AlgorithmError("U, C, I do not cover the vertex set")
        if len(self.U) > 4 * k * k + 2 * k - 3:
            raise AlgorithmError(f"|U| = {len(self.U)} exceeds 4k^2+2k-3")
        if len(self.C) > k:
            raise AlgorithmError(f"|C| = {len(self.C)} exceeds k")
        for u, v in g.edges:
            if u in self.I and v in self.I:
                raise AlgorithmError("I is not independent")
            if u in self.I and v not in self.C and v not in self.I:
                raise AlgorithmError("N(I) is not contained in C")
            if v in self.I and u not in self.C and u not in self.I:
                raise AlgorithmError("N(I) is not contained in C")


def check_partition_density_below(g: Graph, k: int, mode: str = "exact") -> None:
    """Raise unless parden(G) < k can be established in the given mode.

    ``exact`` runs the subset DP (n <= 20); ``bound`` accepts when the
    bracket's upper estimate is below k and raises an inconclusive error
    otherwise; ``assume`` trusts the caller.
    """
    if mode == "assume":
        return
    if mode == "exact":
        if partition_density(g).value >= k:
            raise GraphError(f"partition density is >= {k}")
        return
    if mode == "bound":
        lower, upper = partition_density_bracket(g)
        if lower >= k:
            raise GraphError(f"partition density is >= {k}")
        if upper >= k:
            raise GraphError(
                f"cannot certify partition density < {k} (bracket [{lower},{upper}])"
            )
        return
    raise ValueError(f"unknown parden mode {mode!r}")


def structure_decomposition(
    g: Graph, k: int, parden_mode: str = "exact"
) -> StructureDecomposition:
    """Split V into U (small), C (<= k) and an independent set I with
    N(I) <= C, for graphs with partition density below k.

    The cover S is the maximal-matching 2-approximation (|S| <= 2 nu is all
    the argument needs); the Hall-violator branch comes from assigning k
    leaves to each vertex of S (``hall_violator``).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    check_partition_density_below(g, k, parden_mode)
    s_cover = sorted(greedy_cover_2approx(g))
    if len(s_cover) <= k:
        sd = StructureDecomposition(
            k,
            frozenset(),
            frozenset(s_cover),
            frozenset(range(g.n)) - frozenset(s_cover),
        )
        sd.validate(g)
        return sd
    s_set = set(s_cover)
    cross = Graph(g.n, tuple(e for e in g.edges if (e[0] in s_set) != (e[1] in s_set)))
    res = hall_violator(cross, s_cover, sorted(set(range(g.n)) - s_set), k)
    if res.saturating:
        raise AlgorithmError(
            "S-saturating k-star forest exists although nu_k should be below |S|"
        )
    u = res.violator | res.neighborhood
    c = frozenset(s_cover) - res.violator
    i = frozenset(range(g.n)) - u - c
    sd = StructureDecomposition(k, u, c, i)
    sd.validate(g)
    return sd


# ---------------------------------------------------------------------------
# (k,c)-assignments

@dataclass(frozen=True, slots=True)
class KCAssignment:
    k: int
    c: int
    lists: tuple[frozenset[int], ...]

    def validate(self, ori: Orientation):
        missing = self.without_transversal(ori.in_neighbors())
        if missing:
            raise AlgorithmError(f"in-neighborhood of {missing[0]} has no transversal")

    def without_transversal(self, ins) -> list[int]:
        """The vertices v whose in-neighbors u in ins[v] cannot take pairwise
        distinct colors, each from its own lists[u]: each in-neighbor is
        assigned one color, each of the colors 1..k+c at most once (bin c is
        color c; bin 0 has no room). Raises AlgorithmError on a list that
        is not a set of at most c colors from 1..k+c."""
        palette = set(range(1, self.k + self.c + 1))
        if any(len(lst) > self.c or not palette.issuperset(lst) for lst in self.lists):
            raise AlgorithmError("color list outside [k+c] or too large")
        colors = [0] + [1] * (self.k + self.c)
        return [
            v
            for v, nbrs in enumerate(ins)
            if assign([1] * len(nbrs), colors, [self.lists[u] for u in nbrs]).total < len(nbrs)
        ]


@dataclass(frozen=True, slots=True)
class AssignmentExhausted:
    tries: int
    failure_counts: dict[int, int] = field(hash=False)


def random_kc_assignment(
    ori: Orientation,
    k: int,
    c: int,
    seed: int,
    max_tries: int = 50,
    pinned: dict[int, frozenset[int]] | None = None,
) -> tuple[KCAssignment | AssignmentExhausted, int]:
    """Sample uniform c-subsets of [k+c] per vertex until every vertex's
    in-neighborhood list family has a transversal.

    Each try runs the certificate check (``KCAssignment.without_transversal``)
    once on every vertex and returns the checked assignment if no vertex
    fails; otherwise the lists of the failed vertices' in-neighbors are
    resampled. ``pinned`` fixes chosen lists on the first try (test hook).
    Returns (result, tries); exhaustion is reported, not raised.
    """
    if ori.max_indegree() > k:
        raise GraphError("orientation is not a k-orientation")
    if c < 1 or k < 1:
        raise ValueError("k and c must be >= 1")
    if max_tries < 1:
        raise ValueError(f"max_tries must be >= 1, got {max_tries}")
    n = ori.base.n
    palette = list(range(1, k + c + 1))
    pinned = pinned or {}
    for v, lst in pinned.items():
        if not (0 <= v < n and len(lst) <= c and set(palette).issuperset(lst)):
            raise ValueError(f"pinned[{v}] is not a vertex's list of at most {c} of 1..{k + c}")
    rng = random.Random(seed)

    def sample() -> frozenset[int]:
        return frozenset(rng.sample(palette, c))

    lists = [sample() for _ in range(n)]
    for v, lst in pinned.items():
        lists[v] = frozenset(lst)
    ins = ori.in_neighbors()
    failure_counts: dict[int, int] = {}
    for attempt in range(1, max_tries + 1):
        assignment = KCAssignment(k, c, tuple(lists))
        failed = assignment.without_transversal(ins)
        if not failed:
            return assignment, attempt
        for v in failed:
            failure_counts[v] = failure_counts.get(v, 0) + 1
            for u in ins[v]:
                lists[u] = sample()
    return AssignmentExhausted(max_tries, failure_counts), max_tries


# ---------------------------------------------------------------------------
# Upper-bound pipeline

@dataclass(frozen=True, slots=True)
class PipelineResult:
    k: int
    route: str  # "2a" | "assignment"
    bound_claimed: float
    star_classes: StarForestDecomposition | None = None
    aux_graph: Graph | None = None
    orientation: Orientation | None = None
    assignment: KCAssignment | AssignmentExhausted | None = None
    tries: int = 0


def sa_upper_bound_pipeline(
    g: Graph, k: int, seed: int = 0, parden_mode: str = "exact"
) -> PipelineResult:
    """Trace the constructive star-arboricity upper bound for parden < k.

    k <= 100: decompose into a(G) forests and split each by depth parity,
    yielding an explicit star-forest decomposition with <= 2(k+1) classes.
    k > 100: build the apex auxiliary graph over U and C, k-orient it, and
    produce a (k, ceil(5 ln k + 20))-assignment as the certificate; the
    final star-forest extraction from the assignment is out of scope.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    check_partition_density_below(g, k, parden_mode)
    bound = k + 15 * math.log(k) + 65
    if k <= 100:
        fd = forest_decomposition(g)
        classes: list[tuple[tuple[int, int], ...]] = []
        for cls in fd.classes:
            classes.extend(forest_to_two_star_forests(g.n, cls))
        sfd = StarForestDecomposition(g.n, tuple(classes))
        sfd.validate(g)
        if len(sfd.classes) > 2 * (k + 1):
            raise AlgorithmError("2a route exceeded 2(k+1) star-forest classes")
        return PipelineResult(k, "2a", bound, star_classes=sfd)

    sd = structure_decomposition(g, k, parden_mode="assume")
    aux, _, ori = build_assignment_aux(g, sd, k)
    c = math.ceil(5 * math.log(k) + 20)
    assignment, tries = random_kc_assignment(ori, k, c, seed)
    return PipelineResult(
        k,
        "assignment",
        bound,
        aux_graph=aux,
        orientation=ori,
        assignment=assignment,
        tries=tries,
    )


def build_assignment_aux(
    g: Graph, sd: StructureDecomposition, k: int
) -> tuple[Graph, list[int], Orientation]:
    """The apex auxiliary graph over U and C with its k-orientation.

    Vertices of G[U v C] keep their induced labels; the apex takes the last
    index and is joined to C. The induced part is k-oriented by Hakimi's
    assignment test (``k_orientation``); every apex edge is oriented into
    the apex (its degree is |C| <= k).
    """
    sub, labels = induced_subgraph(g, sd.U | sd.C)
    apex = sub.n
    pos = {v: i for i, v in enumerate(labels)}
    aux_edges = list(sub.edges) + [(pos[v], apex) for v in sorted(sd.C)]
    aux = graph_from_edges(sub.n + 1, aux_edges)
    ori_core = k_orientation(sub, k)
    if isinstance(ori_core, OrientationInfeasible):
        raise AlgorithmError("core graph unexpectedly not k-orientable")
    head_of = dict(zip(sub.edges, ori_core.heads))
    heads = []
    for u, v in aux.edges:
        if v == apex:
            heads.append(apex)
        else:
            heads.append(head_of[(u, v)])
    ori = Orientation(aux, tuple(heads))
    if ori.max_indegree() > k:
        raise AlgorithmError("auxiliary orientation exceeds in-degree k")
    return aux, labels, ori
