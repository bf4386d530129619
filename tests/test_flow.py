import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy

import lapsum
from lapsum.flow import assign
from lapsum.graphs import gnp_graphs


def random_instance(rng, items, bins, top):
    demand = [rng.randint(0, top) for _ in range(items)]
    capacity = [rng.randint(0, top) for _ in range(bins)]
    adj = [rng.sample(range(bins), rng.randint(0, bins)) for _ in range(items)]
    return demand, capacity, adj


def deficiency(demand, capacity, adj, chosen):
    """d(I \\ X) + c(N(X)) for the item set X = chosen."""
    nbhd = {b for i in chosen for b in adj[i]}
    return sum(d for i, d in enumerate(demand) if i not in chosen) + sum(
        capacity[b] for b in nbhd
    )


def check_certificate(demand, capacity, adj, res):
    """Loads respect demands, capacities and adjacency, and the reached items
    X cut the total: it equals d(I \\ X) + c(N(X)), which bounds every
    assignment, and the reached bins are N(X)."""
    bin_load = [0] * len(capacity)
    for i, load in enumerate(res.load):
        assert sum(load.values()) <= demand[i]
        for b, amount in load.items():
            assert amount > 0 and b in adj[i]
            bin_load[b] += amount
    assert all(x <= c for x, c in zip(bin_load, capacity))
    assert sum(bin_load) == res.total
    short = {i for i, load in enumerate(res.load) if sum(load.values()) < demand[i]}
    assert short <= res.reached_items
    assert res.reached_bins == frozenset(b for i in res.reached_items for b in adj[i])
    assert res.total == deficiency(demand, capacity, adj, res.reached_items)


def excess_instance(g, p, q):
    """The density excess test of g at lambda = p/q."""
    return [q] * g.m, [p] * g.n, [list(e) for e in g.edges]


class TestBasics:
    def test_single_path(self):
        res = assign([5], [3, 1], [[0, 1]])
        assert res.total == 4
        assert res.load == ({0: 3, 1: 1},)
        assert res.reached_items == frozenset({0})
        assert res.reached_bins == frozenset({0, 1})

    def test_parallel_paths(self):
        # the greedy pass gives bin 0 to item 0; item 1 gets it back by
        # moving item 0 to bin 1, and nothing is left short
        res = assign([1, 1], [1, 1], [[0, 1], [0]])
        assert res.total == 2
        assert res.load == ({1: 1}, {0: 1})
        assert res.reached_items == res.reached_bins == frozenset()

    def test_disconnected(self):
        res = assign([2, 1], [4], [[], [0]])
        assert res.total == 1
        assert res.reached_items == frozenset({0}) and res.reached_bins == frozenset()
        res = assign([], [2], [])
        assert res.total == 0 and res.load == ()

    def test_flow_conservation(self):
        demand, capacity, adj = [3, 2, 2], [2, 2, 1], [[0, 1], [0], [1, 2]]
        res = assign(demand, capacity, adj)
        assert res.total == 5
        check_certificate(demand, capacity, adj, res)


class TestAgainstOracles:
    def test_brute_force_min_cut(self):
        # every item set of instances with at most 6 items and 6 bins: the
        # total is the least d(I \ X) + c(N(X)), and the reached items are
        # the intersection of all the sets X attaining it
        rng = random.Random(7)
        for _ in range(400):
            demand, capacity, adj = random_instance(
                rng, rng.randint(0, 6), rng.randint(0, 6), rng.choice((1, 4))
            )
            res = assign(demand, capacity, adj)
            values = {
                frozenset(chosen): deficiency(demand, capacity, adj, chosen)
                for r in range(len(demand) + 1)
                for chosen in itertools.combinations(range(len(demand)), r)
            }
            least = min(values.values())
            assert res.total == least
            assert res.reached_items == frozenset(range(len(demand))).intersection(
                *(chosen for chosen, value in values.items() if value == least)
            )
            check_certificate(demand, capacity, adj, res)

    def test_excess_networks(self):
        # 18 density excess tests: two G(40, p) at each p, three lambdas
        for p_edge in (0.1, 0.3, 0.6):
            for g in gnp_graphs(40, p_edge, 2, 5):
                for lam_num, lam_den in ((1, 1), (3, 2), (5, 1)):
                    instance = excess_instance(g, lam_num, lam_den)
                    check_certificate(*instance, assign(*instance))

    def test_cut_capacity_equals_value(self):
        rng = random.Random(11)
        for _ in range(100):
            instance = random_instance(rng, rng.randint(1, 30), rng.randint(1, 30), 6)
            check_certificate(*instance, assign(*instance))

    def test_flows_leave_scipy_unloaded(self):
        # density, orientation and the Hall assignment on inputs whose
        # networks have 150+ nodes; site is off, so no .pth file loads a
        # package before lapsum does
        code = (
            "import sys, lapsum\n"
            "g = next(lapsum.gnp_graphs(40, 0.3, 1, 5))\n"
            "assert g.m + g.n + 2 >= 150\n"
            "lapsum.density(g)\n"
            "lapsum.k_orientation(g, 2)\n"
            "kbip = lapsum.make_family('complete-bipartite:60,110')\n"
            "lapsum.structure_decomposition(kbip, 60, 'assume')\n"
            "tops = {name.partition('.')[0] for name in sys.modules}\n"
            "print(' '.join(sorted(tops - sys.stdlib_module_names)))\n"
        )
        path = os.pathsep.join(
            [str(Path(lapsum.__file__).resolve().parents[1]),
             str(Path(numpy.__file__).resolve().parents[1])]
        )
        out = subprocess.run(
            [sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert set(out.stdout.split()) <= {"__main__", "lapsum", "numpy"}
