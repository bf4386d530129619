"""Exact max flow with min-cut extraction: pure-Python Dinic (BFS level
phases, blocking flows by depth-first search).

Capacities may be ints or fractions.Fraction; arithmetic is exact either way,
so min cuts serve as correctness certificates for density and orientation
arguments. Rational capacities are cleared to integers by callers where speed
matters.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational


@dataclass
class FlowNetwork:
    """Directed network; arcs are added with paired residual arcs."""

    n: int
    source: int
    sink: int
    # arc i: to[i], cap[i]; arc i^1 is its residual partner
    to: list[int] = field(default_factory=list)
    cap: list = field(default_factory=list)
    head: list[list[int]] = field(default_factory=list)

    def __post_init__(self):
        if not self.head:
            self.head = [[] for _ in range(self.n)]
        if not (0 <= self.source < self.n and 0 <= self.sink < self.n):
            raise ValueError("source/sink out of range")

    def add_arc(self, u: int, v: int, capacity) -> int:
        if capacity < 0:
            raise ValueError(f"negative capacity {capacity} on arc {u}->{v}")
        if not isinstance(capacity, Rational):
            raise TypeError("capacities must be int or Fraction")
        idx = len(self.to)
        self.to.append(v)
        self.cap.append(capacity)
        self.head[u].append(idx)
        self.to.append(u)
        self.cap.append(0 * capacity)
        self.head[v].append(idx + 1)
        return idx


@dataclass
class MaxFlowResult:
    value: Fraction
    #: source side of a minimum cut (vertices reachable in the residual graph)
    cut: frozenset[int]
    #: flow on each added arc, indexed by the id add_arc returned
    flow: dict[int, Fraction]


def max_flow(net: FlowNetwork) -> MaxFlowResult:
    """Exact max flow by Dinic's algorithm, with the canonical (minimal) min
    cut and per-arc flows.

    The reported cut is the residual-reachable source side, which is the
    same for every maximum flow.
    """
    n, s, t = net.n, net.source, net.sink
    to, cap, head = net.to, net.cap, net.head
    orig_cap = list(cap)
    total = 0

    level = [0] * n
    it = [0] * n

    def bfs() -> bool:
        for i in range(n):
            level[i] = -1
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for a in head[u]:
                v = to[a]
                if cap[a] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    q.append(v)
        return level[t] >= 0

    def dfs(u, pushed):
        if u == t:
            return pushed
        while it[u] < len(head[u]):
            a = head[u][it[u]]
            v = to[a]
            if cap[a] > 0 and level[v] == level[u] + 1:
                got = dfs(v, min(pushed, cap[a]))
                if got > 0:
                    cap[a] -= got
                    cap[a ^ 1] += got
                    return got
            it[u] += 1
        return 0

    unbounded = _infinity(cap)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, n + 100))
    try:
        while bfs():
            for i in range(n):
                it[i] = 0
            while True:
                pushed = dfs(s, unbounded)
                if pushed <= 0:
                    break
                total += pushed
    finally:
        sys.setrecursionlimit(old_limit)

    # canonical min cut: residual reachability from the source
    seen = [False] * n
    seen[s] = True
    q = deque([s])
    while q:
        u = q.popleft()
        for a in head[u]:
            v = to[a]
            if cap[a] > 0 and not seen[v]:
                seen[v] = True
                q.append(v)
    flows = {
        a: orig_cap[a] - cap[a]
        for a in range(0, len(to), 2)
        if orig_cap[a] - cap[a] > 0
    }
    return MaxFlowResult(total, frozenset(i for i in range(n) if seen[i]), flows)


def _infinity(caps):
    big = sum(c for c in caps if c > 0)
    return big + 1
