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
    SizeCapError,
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
    graph_from_edges,
    induced_subgraph,
    is_forest,
)
from .matching import greedy_cover_2approx, hall_violator

STAR_ARB_EDGE_CAP = 30


# ---------------------------------------------------------------------------
# Decomposition containers

@dataclass(frozen=True)
class ForestDecomposition:
    n: int
    classes: tuple[tuple[tuple[int, int], ...], ...]

    def validate(self, g: Graph):
        _check_edge_partition(g, self.classes)
        for cls in self.classes:
            if not is_forest(Graph(self.n, cls)):
                raise AlgorithmError("forest class contains a cycle")


@dataclass(frozen=True)
class StarForestDecomposition:
    n: int
    classes: tuple[tuple[tuple[int, int], ...], ...]

    def validate(self, g: Graph):
        _check_edge_partition(g, self.classes)
        for cls in self.classes:
            if not is_star_forest(self.n, cls):
                raise AlgorithmError("class is not a star forest")


def _check_edge_partition(g: Graph, classes):
    seen: set[tuple[int, int]] = set()
    for cls in classes:
        for e in cls:
            if e in seen:
                raise AlgorithmError(f"edge {e} appears in two classes")
            if e not in g.edge_set:
                raise AlgorithmError(f"{e} is not an edge of the graph")
            seen.add(e)
    if len(seen) != g.m:
        raise AlgorithmError("classes do not cover every edge")


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

    Each tree is rooted at its smallest vertex; an edge goes to class 0 or 1
    according to the depth parity of its parent endpoint.
    """
    edges = tuple((min(u, v), max(u, v)) for u, v in forest_edges)
    if not is_forest(Graph(n, edges)):
        raise GraphError("input edge set is not acyclic")
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in forest_edges:
        adj[u].append(v)
        adj[v].append(u)
    depth = [-1] * n
    for root in range(n):
        if depth[root] != -1 or not adj[root]:
            continue
        depth[root] = 0
        q = deque([root])
        while q:
            x = q.popleft()
            for y in adj[x]:
                if depth[y] == -1:
                    depth[y] = depth[x] + 1
                    q.append(y)
    classes: list[list[tuple[int, int]]] = [[], []]
    for u, v in forest_edges:
        parent = u if depth[u] < depth[v] else v
        classes[depth[parent] % 2].append((u, v) if u < v else (v, u))
    out = tuple(tuple(sorted(cls)) for cls in classes if cls)
    for cls in out:
        if not is_star_forest(n, cls):
            raise AlgorithmError("parity split produced a non-star-forest class")
    return out


def star_arboricity_exact(g: Graph) -> tuple[int, StarForestDecomposition]:
    """Exact star arboricity by iterative deepening from the arboricity."""
    if g.m > STAR_ARB_EDGE_CAP:
        raise SizeCapError(
            f"exact star arboricity capped at |E| <= {STAR_ARB_EDGE_CAP}, got {g.m}"
        )
    if g.m == 0:
        return 0, StarForestDecomposition(g.n, ())
    a, _ = arboricity_value(g)
    t = max(a, 1)
    while True:
        classes = _star_assign(g, t)
        if classes is not None:
            sfd = StarForestDecomposition(g.n, classes)
            sfd.validate(g)
            return len(classes), sfd
        t += 1


def _star_assign(g: Graph, t: int):
    """Backtracking edge assignment into t star-forest classes, or None."""
    n, m = g.n, g.m
    if m > t * max(n - 1, 0):
        return None
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


def sa_via_cover(g: Graph, cover) -> StarForestDecomposition:
    """Star-forest classes from a vertex cover: class i takes the edges whose
    first cover vertex (in list order) is cover[i]."""
    cover = list(cover)
    cset = set(cover)
    if any(u not in cset and v not in cset for u, v in g.edges):
        raise GraphError("given vertex list is not a vertex cover")
    order = {v: i for i, v in enumerate(cover)}
    classes: list[list[tuple[int, int]]] = [[] for _ in cover]
    for u, v in g.edges:
        first = min(
            (order[w] for w in (u, v) if w in order),
        )
        classes[first].append((u, v))
    out = StarForestDecomposition(
        g.n, tuple(tuple(sorted(cls)) for cls in classes if cls)
    )
    out.validate(g)
    return out


# ---------------------------------------------------------------------------
# Structure decomposition

@dataclass(frozen=True)
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
    cross = graph_from_edges(
        g.n, (e for e in g.edges if (e[0] in s_set) != (e[1] in s_set))
    )
    res = hall_violator(cross, s_cover, sorted(set(range(g.n)) - s_set), k)
    if res.saturating:
        raise AlgorithmError(
            "S-saturating k-star forest exists although nu_k should be below |S|"
        )
    if res.violator is None or res.neighborhood is None:
        raise AlgorithmError("unsaturated Hall assignment returned no violator")
    u = frozenset(res.violator) | frozenset(res.neighborhood)
    c = frozenset(s_cover) - res.violator
    i = frozenset(range(g.n)) - u - c
    sd = StructureDecomposition(k, u, c, i)
    sd.validate(g)
    return sd


# ---------------------------------------------------------------------------
# (k,c)-assignments

@dataclass(frozen=True)
class KCAssignment:
    k: int
    c: int
    lists: tuple[frozenset[int], ...]

    def validate(self, ori: Orientation):
        palette = set(range(1, self.k + self.c + 1))
        for lst in self.lists:
            if len(lst) > self.c or not lst <= palette:
                raise AlgorithmError("color list outside [k+c] or too large")
        missing = _without_transversal(self.lists, ori.in_neighbors(), self.k + self.c)
        if missing:
            raise AlgorithmError(f"in-neighborhood of {missing[0]} has no transversal")


@dataclass(frozen=True)
class AssignmentExhausted:
    tries: int
    failure_counts: dict[int, int] = field(hash=False)


def _without_transversal(lists, ins, ncolors: int) -> list[int]:
    """The vertices v whose in-neighbors u in ins[v] cannot take pairwise
    distinct colors, each from its own lists[u]: each in-neighbor is assigned
    one color, each of the colors 1..ncolors at most once (bin c is color c;
    bin 0 has no room)."""
    colors = [0] + [1] * ncolors
    return [
        v
        for v, nbrs in enumerate(ins)
        if assign([1] * len(nbrs), colors, [lists[u] for u in nbrs]).total < len(nbrs)
    ]


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

    Only the lists of failed vertices' in-neighbors are resampled between
    tries. ``pinned`` fixes chosen lists on the first try (test hook).
    Returns (result, tries); exhaustion is reported, not raised.
    """
    if ori.max_indegree() > k:
        raise GraphError("orientation is not a k-orientation")
    if c < 1 or k < 1:
        raise ValueError("k and c must be >= 1")
    n = ori.base.n
    rng = random.Random(seed)
    palette = list(range(1, k + c + 1))

    def sample() -> frozenset[int]:
        return frozenset(rng.sample(palette, c))

    lists = [sample() for _ in range(n)]
    if pinned:
        for v, lst in pinned.items():
            lists[v] = frozenset(lst)
    ins = ori.in_neighbors()
    failure_counts: dict[int, int] = {}
    for attempt in range(1, max_tries + 1):
        failed = _without_transversal(lists, ins, k + c)
        if not failed:
            assignment = KCAssignment(k, c, tuple(lists))
            assignment.validate(ori)
            return assignment, attempt
        for v in failed:
            failure_counts[v] = failure_counts.get(v, 0) + 1
            for u in ins[v]:
                lists[u] = sample()
    return AssignmentExhausted(max_tries, failure_counts), max_tries


# ---------------------------------------------------------------------------
# Upper-bound pipeline

@dataclass(frozen=True)
class PipelineResult:
    k: int
    route: str  # "2a" | "assignment"
    bound_claimed: float
    star_classes: StarForestDecomposition | None = None
    aux_graph: Graph | None = None
    aux_labels: tuple[int, ...] | None = None
    orientation: Orientation | None = None
    assignment: KCAssignment | AssignmentExhausted | None = None
    tries: int = 0


def sa_upper_bound_pipeline(
    g: Graph, k: int, seed: int = 0, max_tries: int = 50, parden_mode: str = "exact"
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
    bound = k + 15 * math.log(k) + 65 if k > 1 else 66.0
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
    aux, labels, ori = build_assignment_aux(g, sd, k)
    c = math.ceil(5 * math.log(k) + 20)
    assignment, tries = random_kc_assignment(ori, k, c, seed, max_tries=max_tries)
    return PipelineResult(
        k,
        "assignment",
        bound,
        aux_graph=aux,
        aux_labels=tuple(labels),
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
    core = sorted(sd.U | sd.C)
    sub, labels = induced_subgraph(g, core)
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
