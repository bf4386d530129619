"""Exact graph density, partition density, k-orientations, and edge peeling.

Density runs Newton (Dinkelbach) iteration on Goldberg's (1984) excess
test, solved as a bipartite assignment of edges to their endpoints: each
deficiency certificate is the next, strictly denser witness, so the exact
value and the largest densest subset come from at most n + 1 assignments.
Partition density has no known polynomial algorithm; the exact mode runs
one numpy subset DP over vertex masks, in popcount layers, for all part-size
caps at once (3^n time, n <= 20). Each witness checks itself against the
graph with ``validate(g)``, which its producer calls before returning it;
a failed check raises AlgorithmError.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache

import numpy as np

from .flow import assign
from .graphs import (
    AlgorithmError,
    Graph,
    GraphError,
    SizeCapError,
    components_info,
    graph_from_edges,
    per_graph,
)

PARTITION_EXACT_CAP = 20
#: entries in one gather of the partition-density DP (masks x candidate
#: parts x caps); bounds its working arrays for every n up to the cap
PARTITION_DP_ENTRIES = 1 << 16
#: added to candidates whose part is larger than the cap (int16 table)
_OVER_CAP = -1024
#: DP row chunks whose candidate parts stay cached between calls; at the
#: default entry budget one chunk takes at most 0.2 MB for any n <= 20
_PLAN_CHUNKS = 64


@dataclass(frozen=True, slots=True)
class DensityWitness:
    value: Fraction
    subset: frozenset[int]

    def validate(self, g: Graph):
        """The subset attains the value: e(U)/|U| = value."""
        size = len(self.subset)
        if not size or Fraction(_edges_inside(g, self.subset), size) != self.value:
            raise AlgorithmError(f"density witness does not attain {self.value}")


@dataclass(frozen=True, slots=True)
class PartitionWitness:
    value: Fraction
    parts: tuple[frozenset[int], ...]
    attained_part_size: int

    def validate(self, g: Graph):
        """The parts partition V; their inner edges over the largest part give the value."""
        inside = _edges_within_parts(g, self.parts)
        attained = max(map(len, self.parts))
        if attained != self.attained_part_size or Fraction(len(inside), attained) != self.value:
            raise AlgorithmError(f"partition density witness does not attain {self.value}")


@dataclass(frozen=True, slots=True)
class Orientation:
    """A direction per edge of ``base``: heads[i] is the head of base.edges[i]."""

    base: Graph
    heads: tuple[int, ...]

    def __post_init__(self):
        if len(self.heads) != self.base.m:
            raise GraphError("orientation must direct every edge exactly once")
        for (u, v), h in zip(self.base.edges, self.heads):
            if h not in (u, v):
                raise GraphError(f"head {h} is not an endpoint of ({u},{v})")

    @property
    def indegrees(self) -> list[int]:
        indeg = [0] * self.base.n
        for h in self.heads:
            indeg[h] += 1
        return indeg

    def arcs(self) -> list[tuple[int, int]]:
        """Directed arcs (tail, head)."""
        return [
            (u if h == v else v, h) for (u, v), h in zip(self.base.edges, self.heads)
        ]

    def in_neighbors(self) -> list[list[int]]:
        ins: list[list[int]] = [[] for _ in range(self.base.n)]
        for tail, h in self.arcs():
            ins[h].append(tail)
        return ins

    def max_indegree(self) -> int:
        return max(self.indegrees, default=0)


@dataclass(frozen=True, slots=True)
class OrientationInfeasible:
    """Certificate that no k-orientation exists: a subset with e(U) > k|U|."""

    k: int
    subset: frozenset[int]
    edges_inside: int

    def validate(self, g: Graph):
        u = self.subset
        if not u or self.edges_inside <= self.k * len(u):
            raise AlgorithmError(f"deficient subset {sorted(u)} is not denser than {self.k}")
        if _edges_inside(g, u) != self.edges_inside:
            raise AlgorithmError(f"subset {sorted(u)} does not hold {self.edges_inside} edges")


# ---------------------------------------------------------------------------
# Density

def _excess_test(g: Graph, lam: Fraction):
    """Goldberg's test for a subset U with e(U) > lam |U|.

    With lam = p/q, each edge has q units for its two endpoints and each
    vertex takes at most p. The most that can be placed is
    q*m - max_U (q*e(U) - p*|U|), so a total below q*m means some U is denser
    than lam. Returns (total, U) where U is the set of vertices reached by
    alternating paths from the edges left short: the smallest maximizer of
    e(U) - lam*|U|, empty when no subset beats lam.
    """
    res = assign([lam.denominator] * g.m, [lam.numerator] * g.n, g.edges)
    return res.total, res.reached_bins


def density(g: Graph) -> DensityWitness:
    """Exact density max |E(G[U])| / |U| with its largest achieving subset;
    an edgeless graph, where every nonempty subset has density 0, reports
    the subset {0}.

    Newton (Dinkelbach) iteration: from lam = m/n, each excess test that
    leaves edges short yields a strictly denser, strictly smaller U, and lam
    becomes e(U)/|U|; the first test that finds nothing proves rho = lam.
    The last improving U maximizes e(U) - lam'|U| for some lam' < rho, so
    it is the union of all densest subsets (V if the first test fails).
    """
    if g.n < 1:
        raise GraphError("density needs at least one vertex")
    m, n = g.m, g.n
    if m == 0:
        return DensityWitness(Fraction(0), frozenset({0}))
    rho = Fraction(m, n)
    subset = frozenset(range(n))
    for _ in range(n + 1):
        value, reached = _excess_test(g, rho)
        if value >= m * rho.denominator:
            break
        inside = _edges_inside(g, reached)
        if not reached or inside <= rho * len(reached):
            raise AlgorithmError(f"deficient subset {sorted(reached)} is not denser than {rho}")
        rho, subset = Fraction(inside, len(reached)), reached
    else:
        raise AlgorithmError(f"density iteration did not settle in {n + 1} excess tests")
    witness = DensityWitness(rho, subset)
    witness.validate(g)
    return witness


def _edges_inside(g: Graph, subset) -> int:
    s = set(subset)
    return sum(1 for u, v in g.edges if u in s and v in s)


# ---------------------------------------------------------------------------
# Partition density

@cache
def _popcounts(n: int) -> np.ndarray:
    """pc[mask] = number of set bits, for every mask below 2^n (read-only)."""
    pc = np.zeros(1 << n, dtype=np.int16)
    for v in range(n):
        pc[1 << v : 2 << v] = pc[: 1 << v] + 1
    pc.flags.writeable = False
    return pc


def _edge_counts(g: Graph) -> np.ndarray:
    """e[mask] = edges of g inside the vertex subset ``mask``."""
    n = g.n
    lower = [0] * n  # lower[v]: neighbours of v below v
    for u, v in g.edges:
        lower[v] |= 1 << u
    pc = _popcounts(n)
    e = np.zeros(1 << n, dtype=np.int16)
    for v in range(n):
        below = np.arange(1 << v)
        e[1 << v : 2 << v] = e[: 1 << v] + pc[below & lower[v]]
    return e


@cache
def _layers(n: int) -> tuple[np.ndarray, ...]:
    """layers[p] = the masks below 2^n with p bits, ascending (read-only)."""
    pc = _popcounts(n)
    order = np.argsort(pc, kind="stable")
    order.flags.writeable = False
    return tuple(np.split(order, np.cumsum(np.bincount(pc, minlength=n + 1))[:-1]))


def _floor_pow2(x: int) -> int:
    return 1 << (max(1, x).bit_length() - 1)


@lru_cache(maxsize=_PLAN_CHUNKS)
def _chunk_plan(n: int, p: int, first: int, rows: int, width: int):
    """Rows first..first+rows of the p-bit layer: their masks and, per block
    of ``width`` (a power of two) candidate columns, (masks - parts, parts,
    penalty of each cap on each column), all read-only.

    A candidate part of a mask holds its lowest bit and any subset of its
    other p - 1 bits. Column j (0 <= j < 2^(p-1)) takes the other bits that
    the bits of j select, so ascending j is ascending part, and the part has
    1 + popcount(j) vertices.
    """
    pc = _popcounts(n)
    masks = _layers(n)[p][first : first + rows]
    bits = np.nonzero((masks[:, None] >> np.arange(n)) & 1)[1]
    values = (1 << bits).reshape(masks.size, p)  # values[r, i]: i-th lowest bit of masks[r]
    low = width.bit_length() - 1
    # column j sums values[:, 0] and values[:, i + 1] for each set bit i of j
    select = ((2 * np.arange(width) + 1) >> np.arange(low + 1)[:, None]) & 1
    low_parts = values[:, : low + 1] @ select
    over = np.where(np.arange(n + 1) > np.arange(2, p + 1)[:, None], _OVER_CAP, 0)
    blocks = []
    for start in range(0, 1 << (p - 1), width):
        high = (start >> low >> np.arange(p - 1 - low)) & 1
        parts = low_parts + (values[:, low + 1 :] @ high)[:, None]
        penalty = over[:, 1 + pc[start : start + width]].astype(np.int16)
        rests = (masks[:, None] - parts).astype(np.int32)
        block = (rests, parts.astype(np.int32), penalty[:, None, :])
        for array in block:
            array.flags.writeable = False
        blocks.append(block)
    return masks, tuple(blocks)


def _partition_table(e: np.ndarray, n: int) -> np.ndarray:
    """f[s - 2, mask] = most edges inside the parts of a partition of mask
    into parts of size <= s, for every cap s = 2..n at once.

    Masks are taken in popcount layers. The part holding a mask's lowest bit
    is one of 2^(p-1) fixed candidate columns (``_chunk_plan``), so a
    layer is one gather of f[mask ^ part] and one max, with parts larger
    than the cap pushed below zero. On p-bit masks every cap s >= p acts as
    cap p, so only caps 2..p are computed and the rest copied. A gather
    holds at most PARTITION_DP_ENTRIES entries.
    """
    f = np.zeros((n - 1, 1 << n), dtype=np.int16)
    for p in range(2, n + 1):
        live = p - 1
        width = min(1 << (p - 1), _floor_pow2(PARTITION_DP_ENTRIES // live))
        rows = max(1, PARTITION_DP_ENTRIES // (width * live))
        for first in range(0, _layers(n)[p].size, rows):
            masks, blocks = _chunk_plan(n, p, first, rows, width)
            best = np.zeros((live, masks.size), dtype=np.int16)
            for rests, parts, penalty in blocks:
                cand = f[:live, rests]
                cand += e[parts]
                cand += penalty
                np.maximum(best, cand.max(axis=2), out=best)
            f[:live, masks] = best
            f[live:, masks] = best[-1]
    return f


def _partition_parts(f: np.ndarray, e: np.ndarray, n: int, s: int) -> list[frozenset[int]]:
    """The partition of V behind f[s - 2, V], rebuilt from the top down.

    At each mask the part is the first candidate attaining the table, in the
    order the DP's tie rule fixes: the lowest bit alone, then the lowest bit
    with each submask of the other bits, in descending order.
    """
    best = f[s - 2].tolist()
    inside = e.tolist()
    parts = []
    mask = (1 << n) - 1
    while mask:
        low = mask & -mask
        rest = mask ^ low
        pick = low
        if best[rest] != best[mask]:
            sub = rest
            while True:
                t = sub | low
                if t.bit_count() <= s and best[mask ^ t] + inside[t] == best[mask]:
                    pick = t
                    break
                if sub == 0:
                    raise AlgorithmError(f"no part of {mask:#x} attains the partition table")
                sub = (sub - 1) & rest
        parts.append(frozenset(v for v in range(n) if pick >> v & 1))
        mask ^= pick
    return parts


def _edges_within_parts(g: Graph, parts) -> tuple[tuple[int, int], ...]:
    """The edges of g with both ends in one of ``parts``, in g.edges order,
    found in one pass over the edges; raises unless the parts partition V."""
    part_of = [-1] * g.n
    for i, part in enumerate(parts):
        for v in part:
            if part_of[v] >= 0:
                raise AlgorithmError("partition density parts do not partition the vertices")
            part_of[v] = i
    if -1 in part_of:
        raise AlgorithmError("partition density parts do not partition the vertices")
    return tuple(e for e in g.edges if part_of[e[0]] == part_of[e[1]])


@per_graph
def partition_density(g: Graph) -> PartitionWitness:
    """Exact partition density with an optimal partition (n <= 20).

    One subset DP (``_partition_table``) gives, for every part-size cap s,
    the most edges a partition with parts of size <= s keeps inside its
    parts; the answer is the best ratio best(s)/s, at the smallest s that
    attains it. The parts are rebuilt from the table, in the order of their
    smallest vertices, and checked against the graph itself
    (``PartitionWitness.validate``).
    """
    if g.n < 1:
        raise GraphError("partition density needs at least one vertex")
    if g.n > PARTITION_EXACT_CAP:
        raise SizeCapError(
            f"exact partition density capped at n={PARTITION_EXACT_CAP}, got {g.n}; "
            "use partition_density_bracket"
        )
    n = g.n
    if g.m == 0:
        return PartitionWitness(
            Fraction(0), tuple(frozenset({v}) for v in range(n)), 1
        )
    e = _edge_counts(g)
    f = _partition_table(e, n)
    full = (1 << n) - 1
    best_edges, best_s = 0, 1
    for s, edges in enumerate(f[:, full].tolist(), start=2):
        if edges * best_s > best_edges * s:
            best_edges, best_s = edges, s
    parts = _partition_parts(f, e, n, best_s)
    witness = PartitionWitness(Fraction(best_edges, best_s), tuple(parts), max(map(len, parts)))
    witness.validate(g)
    return witness


def partition_density_bracket(g: Graph) -> tuple[Fraction, Fraction]:
    """[lower, upper] bounds on the partition density for graphs beyond the cap.

    Lower: m/n', from the connected components taken as parts (every edge
    is inside one, and the largest has n' vertices). Upper: per-cap
    relaxation using the exact density rho (each part T carries at most
    min(rho*|T|, C(|T|,2)) edges).
    """
    if g.n < 1:
        raise GraphError("partition density needs at least one vertex")
    n, m = g.n, g.m
    if m == 0:
        return Fraction(0), Fraction(0)
    lower = Fraction(m, components_info(g)[1])
    rho = density(g).value
    upper = lower
    for s in range(2, n + 1):
        parts = -(-n // s)
        ub = min(m, math.floor(rho * n), s * (s - 1) // 2 * parts)
        upper = max(upper, Fraction(ub, s))
    if lower > upper:
        raise AlgorithmError(f"partition density bracket [{lower},{upper}] is empty")
    return lower, upper


# ---------------------------------------------------------------------------
# k-orientation

def k_orientation(g: Graph, k: int) -> Orientation | OrientationInfeasible:
    """A k-orientation (all in-degrees <= k), or a density-violating subset.

    Hakimi's test: each edge is assigned to one endpoint, each vertex takes
    at most k edges. Feasible iff every edge is placed, the endpoint holding
    it being its head; otherwise the vertices reached by alternating paths
    from the edges left short form U with e(U) > k|U|.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    m, n = g.m, g.n
    res = assign([1] * m, [k] * n, g.edges)
    if res.total == m:
        ori = Orientation(g, tuple(h for load in res.load for h in load))
        if ori.max_indegree() > k:
            raise AlgorithmError(f"orientation exceeds in-degree {k}")
        return ori
    # the edges the failed searches reach are those inside U, and the
    # placement is short by e(U) - k|U|
    subset = res.reached_bins
    infeasible = OrientationInfeasible(k, subset, m - res.total + k * len(subset))
    infeasible.validate(g)
    return infeasible


def random_k_orientation(g: Graph, k: int, seed: int) -> Orientation:
    """A k-orientation obtained under a seeded vertex relabeling.

    Different seeds explore different (still deterministic) orientations of
    the same graph; raises if the graph is not k-orientable.
    """
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    inv = [0] * g.n
    for i, p in enumerate(perm):
        inv[p] = i
    relabeled = graph_from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges))
    ori = k_orientation(relabeled, k)
    if isinstance(ori, OrientationInfeasible):
        raise GraphError(f"graph is not {k}-orientable")
    head_of = {}
    for (u, v), h in zip(relabeled.edges, ori.heads):
        head_of[(inv[u], inv[v]) if inv[u] < inv[v] else (inv[v], inv[u])] = inv[h]
    return Orientation(g, tuple(head_of[e] for e in g.edges))


# ---------------------------------------------------------------------------
# Peeling

@dataclass(frozen=True, slots=True)
class PeelStep:
    """One removed witness subgraph: its edges and the certifying quantities."""

    removed_edges: tuple[tuple[int, int], ...]
    n_prime: int
    value: Fraction


def peel_to_low_partition_density(g: Graph, k: int) -> tuple[Graph, list[PeelStep]]:
    """Delete witness subgraphs with |E(H)| >= k * n'(H) until parden < k.

    Each step takes the exact partition-density witness (when its value is
    >= k the intra-part edges form such an H), reads the edges inside its
    parts in one pass over the current edges, and removes those edges only;
    vertices stay so excess comparisons are over a fixed vertex set.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    log: list[PeelStep] = []
    cur = g
    while True:
        wit = partition_density(cur)
        if wit.value < k:
            return cur, log
        h = Graph(cur.n, _edges_within_parts(cur, wit.parts))
        # H has an edge, so its isolated vertices cannot be its largest component
        h_nprime = components_info(h)[1]
        if h.m < k * h_nprime:
            raise AlgorithmError(f"peel step of {h.m} edges is below {k} * n'")
        log.append(PeelStep(h.edges, h_nprime, wit.value))
        removed = set(h.edges)
        cur = Graph(cur.n, tuple(e for e in cur.edges if e not in removed))
