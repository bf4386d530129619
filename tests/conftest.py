import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from lapsum.graphs import all_labeled_graphs, gnp_graphs, graph_from_edges


def small_graphs(max_n: int = 5):
    """Every labeled graph on 1..max_n vertices."""
    for n in range(1, max_n + 1):
        yield from all_labeled_graphs(n)


def sampled_graphs(count: int, max_n: int, seed: int):
    """Seeded random labeled graphs with n uniform in 2..max_n, p uniform."""
    rng = random.Random(seed)
    from itertools import combinations

    for _ in range(count):
        n = rng.randint(2, max_n)
        p = rng.random()
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        yield graph_from_edges(n, edges)


def search_graphs():
    """Every labeled graph on 0..6 vertices, then seeded sparse G(n, p) with
    n in 10, 20, 40 and mean degree 0.5 to 2.5: many components, many forests."""
    for n in range(7):
        yield from all_labeled_graphs(n)
    for n in (10, 20, 40):
        for seed in range(40):
            yield from gnp_graphs(n, (0.5, 1.0, 1.5, 2.5)[seed % 4] / (n - 1), 1, seed)


@pytest.fixture(scope="session")
def exhaustive_n4():
    """Every labeled graph on 1..4 vertices, shared by the whole session: the
    invariants memoized on these graphs (``graphs.per_graph``) carry over from
    one test to the next, so a fault-injection test builds its own graph."""
    return list(small_graphs(4))


@pytest.fixture(scope="session")
def exhaustive_n5():
    """Every labeled graph on 1..5 vertices, shared like ``exhaustive_n4``
    with their memos: a fault-injection test builds its own graph."""
    return list(small_graphs(5))
