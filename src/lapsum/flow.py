"""Exact bipartite assignment with its deficiency certificate.

Every network lapsum solves has one shape: items with integer demands, bins
with integer capacities, and each item free to put any amount into any bin
on its adjacency list. Goldberg's density test (each edge's q units into its
endpoints, p per vertex), Hakimi's orientation test (each edge into one
endpoint, k per vertex), the Hall check for centered star forests (ell
leaves per center, each leaf used once) and the transversal check (one
color per set, each color used once) are all of it.

``assign`` fills the items greedily, then completes them one at a time
along breadth-first alternating paths item -> bin -> an item holding load
there -> ... -> a bin with room, pushing the bottleneck amount each time
(Hopcroft-Karp's augmenting paths, for integer demands and capacities). An
item whose search fails stays short for good: later paths never enter what
that search reached, so it is skipped from then on. The failed searches
together reach exactly the items and bins reachable by alternating paths
from the items left short. In the source -> items -> bins -> sink network
that is the source side of the minimal minimum cut, the same for every
maximum assignment: its items X minimize d(I \\ X) + c(N(X)), lie in every
minimizer, and its bins are N(X).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class Assignment:
    """A maximum assignment and the items and bins that certify it."""

    total: int
    #: load[i][b]: the units item i puts in bin b (positive entries only)
    load: tuple[dict[int, int], ...]
    #: items and bins reached by alternating paths from the items left short
    reached_items: frozenset[int]
    reached_bins: frozenset[int]


def assign(demand, capacity, adj) -> Assignment:
    """Place as many units as possible: item i has demand[i] units for the
    bins in adj[i], and bin b holds at most capacity[b] units in all."""
    held: list[dict[int, int]] = [{} for _ in capacity]  # held[b][i] = load[i][b]
    room = list(capacity)
    short = list(demand)
    for i, bins in enumerate(adj):
        for b in bins:
            if not short[i]:
                break
            if room[b]:
                amount = min(short[i], room[b])
                held[b][i] = held[b].get(i, 0) + amount
                room[b] -= amount
                short[i] -= amount

    dead_items: set[int] = set()
    dead_bins: set[int] = set()
    for root in range(len(short)):
        while short[root] and root not in dead_items:
            via_bin = {root: -1}  # item -> the bin it was reached through
            via_item: dict[int, int] = {}  # bin -> the item it was reached from
            queue = deque([root])
            end = -1
            while queue and end < 0:
                i = queue.popleft()
                for b in adj[i]:
                    if b in via_item or b in dead_bins:
                        continue
                    via_item[b] = i
                    if room[b]:
                        end = b
                        break
                    for j in held[b]:
                        if j not in via_bin and j not in dead_items:
                            via_bin[j] = b
                            queue.append(j)
            if end < 0:
                dead_items.update(via_bin)
                dead_bins.update(via_item)
                break
            amount = min(short[root], room[end])
            i = via_item[end]
            while i != root:
                b = via_bin[i]
                amount = min(amount, held[b][i])
                i = via_item[b]
            b = end
            while True:
                i = via_item[b]
                held[b][i] = held[b].get(i, 0) + amount
                if i == root:
                    break
                b = via_bin[i]
                if held[b][i] == amount:
                    del held[b][i]
                else:
                    held[b][i] -= amount
            room[end] -= amount
            short[root] -= amount

    load: list[dict[int, int]] = [{} for _ in short]
    for b, items in enumerate(held):
        for i, amount in items.items():
            load[i][b] = amount
    return Assignment(
        sum(demand) - sum(short), tuple(load), frozenset(dead_items), frozenset(dead_bins)
    )
