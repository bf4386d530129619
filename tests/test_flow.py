import importlib
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lapsum
from lapsum.flow import FlowNetwork, max_flow
from lapsum.graphs import gnp_graphs


def build(n, s, t, arcs):
    net = FlowNetwork(n, s, t)
    ids = [net.add_arc(u, v, c) for u, v, c in arcs]
    return net, ids


class TestBasics:
    def test_single_path(self):
        net, ids = build(3, 0, 2, [(0, 1, 5), (1, 2, 3)])
        res = max_flow(net)
        assert res.value == 3
        assert res.flow[ids[0]] == 3 and res.flow[ids[1]] == 3
        assert res.cut == frozenset({0, 1})

    def test_parallel_paths(self):
        net, _ = build(4, 0, 3, [(0, 1, 2), (0, 2, 2), (1, 3, 1), (2, 3, 3)])
        assert max_flow(net).value == 3

    def test_disconnected(self):
        net, _ = build(3, 0, 2, [(0, 1, 4)])
        res = max_flow(net)
        assert res.value == 0 and 2 not in res.cut

    def test_fraction_capacities(self):
        net, ids = build(3, 0, 2, [(0, 1, Fraction(5, 2)), (1, 2, Fraction(7, 3))])
        res = max_flow(net)
        assert res.value == Fraction(7, 3)

    def test_rejects_bad_arcs(self):
        net = FlowNetwork(3, 0, 2)
        with pytest.raises(ValueError):
            net.add_arc(0, 1, -1)
        with pytest.raises(TypeError):
            net.add_arc(0, 1, 1.5)
        with pytest.raises(ValueError):
            FlowNetwork(2, 0, 5)

    def test_flow_conservation(self):
        net, ids = build(
            5, 0, 4, [(0, 1, 3), (0, 2, 2), (1, 3, 2), (2, 3, 2), (3, 4, 4), (1, 4, 1)]
        )
        res = max_flow(net)
        balance = [0] * 5
        for (u, v, _), a in zip(
            [(0, 1, 3), (0, 2, 2), (1, 3, 2), (2, 3, 2), (3, 4, 4), (1, 4, 1)], ids
        ):
            f = res.flow.get(a, 0)
            balance[u] -= f
            balance[v] += f
        assert balance[0] == -res.value and balance[4] == res.value
        assert all(balance[i] == 0 for i in (1, 2, 3))


def excess_network_arcs(g, p, q):
    """Arcs of the density excess network of g at lambda = p/q."""
    m, n = g.m, g.n
    arcs = []
    for i, (u, v) in enumerate(g.edges):
        arcs += [(0, 1 + i, q), (1 + i, m + 1 + u, q), (1 + i, m + 1 + v, q)]
    arcs += [(m + 1 + v, m + n + 1, p) for v in range(n)]
    return m + n + 2, arcs


def random_arcs(rng, n, count, top):
    """Random arcs among n nodes, parallel and antiparallel pairs included."""
    arcs = []
    for _ in range(count):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.append((u, v, rng.randint(0, top)))
    return arcs


def check_certificate(n, s, t, arcs, ids, res):
    """Capacities, conservation, and value = capacity of the reported cut."""
    balance = [0] * n
    for (u, v, c), a in zip(arcs, ids):
        f = res.flow.get(a, 0)
        assert 0 <= f <= c
        balance[u] -= f
        balance[v] += f
    assert balance[s] == -res.value and balance[t] == res.value
    assert all(b == 0 for i, b in enumerate(balance) if i not in (s, t))
    assert s in res.cut and t not in res.cut
    assert sum(c for u, v, c in arcs if u in res.cut and v not in res.cut) == res.value


class TestAgainstOracles:
    def test_brute_force_min_cut(self):
        # every source side of every network of at most 10 nodes: the value
        # is the least cut capacity, and the reported cut is the minimal
        # min cut (the intersection of all of them)
        rng = random.Random(7)
        for trial in range(150):
            n = rng.randint(2, 10)
            arcs = random_arcs(rng, n, rng.randint(0, 3 * n), 10)
            if trial % 5 == 0:
                arcs = [(u, v, Fraction(c, rng.randint(1, 4))) for u, v, c in arcs]
            net, ids = build(n, 0, n - 1, arcs)
            res = max_flow(net)
            sides = []
            inner = range(1, n - 1)
            for r in range(n - 1):
                for extra in itertools.combinations(inner, r):
                    side = frozenset((0,) + extra)
                    cap = sum(c for u, v, c in arcs if u in side and v not in side)
                    sides.append((cap, side))
            least = min(cap for cap, _ in sides)
            assert res.value == least
            assert res.cut == frozenset.intersection(*(side for cap, side in sides if cap == least))
            check_certificate(n, 0, n - 1, arcs, ids, res)

    def test_excess_networks(self):
        # 18 density excess networks: two G(40, p) at each p, three lambdas
        for p_edge in (0.1, 0.3, 0.6):
            for g in gnp_graphs(40, p_edge, 2, 5):
                for lam_num, lam_den in ((1, 1), (3, 2), (5, 1)):
                    n, arcs = excess_network_arcs(g, lam_num, lam_den)
                    net, ids = build(n, 0, n - 1, arcs)
                    check_certificate(n, 0, n - 1, arcs, ids, max_flow(net))

    def test_cut_capacity_equals_value(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(2, 8)
            arcs = random_arcs(rng, n, rng.randint(1, 14), 6)
            net, ids = build(n, 0, n - 1, arcs)
            check_certificate(n, 0, n - 1, arcs, ids, max_flow(net))

    def test_infinity_once_per_call(self, monkeypatch):
        # the push bound sums every capacity; it is taken once, not per path
        flow_module = importlib.import_module("lapsum.flow")
        calls = []
        original = flow_module._infinity

        def counting(caps):
            calls.append(len(caps))
            return original(caps)

        monkeypatch.setattr(flow_module, "_infinity", counting)
        g = next(gnp_graphs(20, 0.3, 1, 3))
        n, arcs = excess_network_arcs(g, 1, 1)
        net, _ = build(n, 0, n - 1, arcs)
        assert max_flow(net).value > 1
        assert len(calls) == 1

    def test_flows_leave_scipy_unloaded(self):
        # density, orientation and Hall flows on networks of 150+ nodes
        code = (
            "import sys, lapsum\n"
            "from lapsum import flow\n"
            "sizes = []\n"
            "post = flow.FlowNetwork.__post_init__\n"
            "def counting(net):\n"
            "    sizes.append(net.n)\n"
            "    post(net)\n"
            "flow.FlowNetwork.__post_init__ = counting\n"
            "g = next(lapsum.gnp_graphs(40, 0.3, 1, 5))\n"
            "lapsum.density(g)\n"
            "lapsum.k_orientation(g, 2)\n"
            "kbip = lapsum.make_family('complete-bipartite:60,110')\n"
            "lapsum.structure_decomposition(kbip, 60, 'assume')\n"
            "print(min(sizes), 'scipy' in sys.modules)\n"
        )
        src = str(Path(lapsum.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60, check=True,
        )
        smallest, loaded = out.stdout.split()
        assert int(smallest) >= 150
        assert loaded == "False"
