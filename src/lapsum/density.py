"""Exact graph density, partition density, k-orientations, and edge peeling.

Density runs Newton (Dinkelbach) iteration on Goldberg's (1984) excess
network: each min cut is the next, strictly denser witness, so the exact
value and the largest densest subset come from at most n + 1 max-flows.
Partition density has no known polynomial algorithm; the exact mode runs a
subset DP over part-size caps (3^n time, n <= 20).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .flow import FlowNetwork, max_flow
from .graphs import (
    AlgorithmError,
    Graph,
    GraphError,
    components_info,
    edge_subgraph,
    induced_subgraph,
    remove_edges,
)

PARTITION_EXACT_CAP = 20


class SizeCapError(ValueError):
    """Input exceeds the documented exact-mode size cap."""


@dataclass(frozen=True)
class DensityWitness:
    value: Fraction
    subset: frozenset[int]


@dataclass(frozen=True)
class PartitionWitness:
    value: Fraction
    parts: tuple[frozenset[int], ...]
    attained_part_size: int


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class OrientationInfeasible:
    """Certificate that no k-orientation exists: a subset with e(U) > k|U|."""

    k: int
    subset: frozenset[int]
    edges_inside: int


# ---------------------------------------------------------------------------
# Density

def _excess_test(g: Graph, lam: Fraction):
    """Goldberg's max-flow test for a subset U with e(U) > lam |U|.

    With lam = p/q, the min cut is q*m - max_U (q*e(U) - p*|U|), so a cut
    below q*m means some U is denser than lam. Returns (cut value, U) where
    U is the vertex side of the canonical (minimal) min cut: the smallest
    maximizer of e(U) - lam*|U|, empty when no subset beats lam.
    """
    m, n = g.m, g.n
    q = lam.denominator
    p = lam.numerator
    # node ids: 0 = source, 1..m = edge nodes, m+1..m+n = vertex nodes, m+n+1 = sink
    net = FlowNetwork(m + n + 2, 0, m + n + 1)
    scale = q
    for i, (u, v) in enumerate(g.edges):
        net.add_arc(0, 1 + i, scale)
        net.add_arc(1 + i, m + 1 + u, scale)
        net.add_arc(1 + i, m + 1 + v, scale)
    for v in range(n):
        net.add_arc(m + 1 + v, m + n + 1, p)
    res = max_flow(net)
    subset = frozenset(v for v in range(n) if (m + 1 + v) in res.cut)
    return res.value, subset


def density(g: Graph) -> DensityWitness:
    """Exact density max |E(G[U])| / |U| with its largest achieving subset.

    Newton (Dinkelbach) iteration: from lam = m/n, each excess test whose
    cut beats lam yields a strictly denser, strictly smaller U, and lam
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
        value, cut_side = _excess_test(g, rho)
        if value >= m * rho.denominator:
            break
        inside = _edges_inside(g, cut_side)
        if not cut_side or inside <= rho * len(cut_side):
            raise AlgorithmError(f"min-cut subset {sorted(cut_side)} is not denser than {rho}")
        rho, subset = Fraction(inside, len(cut_side)), cut_side
    else:
        raise AlgorithmError(f"density iteration did not settle in {n + 1} flows")
    if Fraction(_edges_inside(g, subset), len(subset)) != rho:
        raise AlgorithmError(f"density witness does not attain {rho}")
    return DensityWitness(rho, subset)


def _edges_inside(g: Graph, subset) -> int:
    s = set(subset)
    return sum(1 for u, v in g.edges if u in s and v in s)


# ---------------------------------------------------------------------------
# Partition density

def _popcounts(limit: int) -> list[int]:
    pc = [0] * limit
    for i in range(1, limit):
        pc[i] = pc[i >> 1] + (i & 1)
    return pc


def _edge_counts(g: Graph) -> list[int]:
    """e[mask] = edges of g inside the vertex subset ``mask``."""
    n = g.n
    nbr = [0] * n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    e = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << low)
        e[mask] = e[rest] + _popcount(nbr[low] & rest)
    return e


def _popcount(x: int) -> int:
    return bin(x).count("1")


def partition_density(g: Graph) -> PartitionWitness:
    """Exact partition density with an optimal partition (n <= 20).

    For each part-size cap s, a subset DP computes the maximum number of
    edges coverable by a partition with all parts of size <= s; the answer
    is the best ratio best(s)/s over all caps.
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
    pc = _popcounts(1 << n)
    full = (1 << n) - 1
    best_value = Fraction(0)
    best_s = 1
    best_choice: list[int] | None = None
    for s in range(2, n + 1):
        # quick cap: even a perfect packing cannot beat the current best
        if Fraction(g.m, s) <= best_value:
            continue
        f = [0] * (1 << n)
        choice = [0] * (1 << n)
        for mask in range(1, 1 << n):
            lowbit = mask & -mask
            rest = mask ^ lowbit
            # canonical part containing the lowest vertex of mask
            best_here = f[rest]
            pick = lowbit
            sub = rest
            while True:
                t = sub | lowbit
                if pc[t] <= s:
                    cand = f[mask ^ t] + e[t]
                    if cand > best_here:
                        best_here = cand
                        pick = t
                if sub == 0:
                    break
                sub = (sub - 1) & rest
            f[mask] = best_here
            choice[mask] = pick
        val = Fraction(f[full], s)
        if val > best_value:
            best_value = val
            best_s = s
            best_choice = choice
    if best_choice is None:
        return PartitionWitness(
            Fraction(0), tuple(frozenset({v}) for v in range(n)), 1
        )
    parts = []
    mask = full
    while mask:
        t = best_choice[mask]
        parts.append(frozenset(v for v in range(n) if t >> v & 1))
        mask ^= t
    parts.sort(key=min)
    attained = max(len(p) for p in parts)
    total_inside = sum(e[_mask_of(p)] for p in parts)
    if Fraction(total_inside, attained) != best_value:
        raise AlgorithmError(f"partition density witness does not attain {best_value}")
    return PartitionWitness(best_value, tuple(parts), attained)


def _mask_of(part) -> int:
    mask = 0
    for v in part:
        mask |= 1 << v
    return mask


def partition_density_bracket(g: Graph) -> tuple[Fraction, Fraction]:
    """[lower, upper] bounds on the partition density for graphs beyond the cap.

    Lower: best of a few explicit partitions (whole set, connected
    components). Upper: per-cap relaxation using the exact density rho
    (each part T carries at most min(rho*|T|, C(|T|,2)) edges).
    """
    if g.n < 1:
        raise GraphError("partition density needs at least one vertex")
    n, m = g.n, g.m
    if m == 0:
        return Fraction(0), Fraction(0)
    comps, n_prime = components_info(g)
    lower = max(Fraction(m, n), Fraction(m, n_prime))
    rho = density(g).value
    upper = lower
    for s in range(2, n + 1):
        parts = -(-n // s)
        ub = min(m, _floor_frac(rho * n), s * (s - 1) // 2 * parts)
        upper = max(upper, Fraction(ub, s))
    if lower > upper:
        raise AlgorithmError(f"partition density bracket [{lower},{upper}] is empty")
    return lower, upper


def _floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


# ---------------------------------------------------------------------------
# k-orientation

def k_orientation(g: Graph, k: int) -> Orientation | OrientationInfeasible:
    """A k-orientation (all in-degrees <= k), or a density-violating subset.

    Flow network: source -> edge nodes (cap 1), edge node -> its endpoints
    (cap 1), vertex node -> sink (cap k). Feasible iff the flow saturates
    all edges; otherwise the min cut yields U with e(U) > k|U|.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    m, n = g.m, g.n
    if m == 0:
        return Orientation(g, ())
    net = FlowNetwork(m + n + 2, 0, m + n + 1)
    edge_arcs = []
    for i, (u, v) in enumerate(g.edges):
        net.add_arc(0, 1 + i, 1)
        a_u = net.add_arc(1 + i, m + 1 + u, 1)
        a_v = net.add_arc(1 + i, m + 1 + v, 1)
        edge_arcs.append((a_u, a_v))
    for v in range(n):
        net.add_arc(m + 1 + v, m + n + 1, k)
    res = max_flow(net)
    if res.value == m:
        heads = []
        for i, (u, v) in enumerate(g.edges):
            a_u, a_v = edge_arcs[i]
            heads.append(u if res.flow.get(a_u, 0) > 0 else v)
        ori = Orientation(g, tuple(heads))
        if ori.max_indegree() > k:
            raise AlgorithmError(f"orientation exceeds in-degree {k}")
        return ori
    subset = frozenset(v for v in range(n) if (m + 1 + v) in res.cut)
    inside = _edges_inside(g, subset)
    if not subset or inside <= k * len(subset):
        raise AlgorithmError(f"min-cut subset {sorted(subset)} is not denser than {k}")
    return OrientationInfeasible(k, subset, inside)


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
    relabeled = Graph(
        g.n, tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges))
    )
    ori = k_orientation(relabeled, k)
    if isinstance(ori, OrientationInfeasible):
        raise GraphError(f"graph is not {k}-orientable")
    head_of = {}
    for (u, v), h in zip(relabeled.edges, ori.heads):
        head_of[(inv[u], inv[v]) if inv[u] < inv[v] else (inv[v], inv[u])] = inv[h]
    return Orientation(g, tuple(head_of[e] for e in g.edges))


# ---------------------------------------------------------------------------
# Peeling

@dataclass(frozen=True)
class PeelStep:
    """One removed witness subgraph: its edges and the certifying quantities."""

    removed_edges: tuple[tuple[int, int], ...]
    n_prime: int
    value: Fraction


def peel_to_low_partition_density(g: Graph, k: int) -> tuple[Graph, list[PeelStep]]:
    """Delete witness subgraphs with |E(H)| >= k * n'(H) until parden < k.

    Each step takes the exact partition-density witness (when its value is
    >= k the intra-part edges form such an H) and removes those edges only;
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
        h_edges = []
        for part in wit.parts:
            s = set(part)
            h_edges.extend((u, v) for u, v in cur.edges if u in s and v in s)
        h = edge_subgraph(cur, h_edges)
        _, h_nprime = components_info(_strip_isolated(h))
        if len(h_edges) < k * h_nprime:
            raise AlgorithmError(f"peel step of {len(h_edges)} edges is below {k} * n'")
        log.append(PeelStep(tuple(sorted(h_edges)), h_nprime, wit.value))
        cur = remove_edges(cur, h_edges)


def _strip_isolated(g: Graph) -> Graph:
    keep = [v for v in range(g.n) if g.degree(v) > 0]
    sub, _ = induced_subgraph(g, keep) if keep else (Graph(0, ()), [])
    return sub
