import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lapsum
from lapsum.flow import (
    SCIPY_MIN_NODES,
    FlowNetwork,
    _max_flow_dinic,
    _max_flow_scipy,
    _scipy_eligible,
    max_flow,
)
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


class TestBackendsAgree:
    def test_random_networks(self):
        rng = random.Random(7)
        cases = []
        for _ in range(200):
            n = rng.randint(2, 9)
            arcs = []
            pairs = set()
            for _ in range(rng.randint(0, 16)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v or (u, v) in pairs or (v, u) in pairs:
                    continue
                pairs.add((u, v))
                arcs.append((u, v, rng.randint(0, 10)))
            cases.append((n, arcs))
        # excess networks above the cutoff, where max_flow picks scipy
        for p_edge in (0.1, 0.3, 0.6):
            for g in gnp_graphs(40, p_edge, 2, 5):
                for lam_num, lam_den in ((1, 1), (3, 2), (5, 1)):
                    n, arcs = excess_network_arcs(g, lam_num, lam_den)
                    assert n >= SCIPY_MIN_NODES
                    cases.append((n, arcs))
        for n, arcs in cases:
            net1, _ = build(n, 0, n - 1, arcs)
            net2, _ = build(n, 0, n - 1, arcs)
            fast = _max_flow_scipy(net1)
            slow = _max_flow_dinic(net2)
            assert fast.value == slow.value
            assert fast.cut == slow.cut  # minimal min cut is flow-independent

    def test_small_networks_leave_scipy_unloaded(self):
        code = (
            "import sys, lapsum\n"
            "lapsum.k_orientation(lapsum.make_family('complete:4'), 2)\n"
            "lapsum.arboricity_value(lapsum.make_family('complete:6'))\n"
            "print('scipy' in sys.modules)\n"
        )
        src = str(Path(lapsum.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout.strip() == "False"

    def test_eligibility(self):
        net, _ = build(3, 0, 2, [(0, 1, 1), (1, 2, 1)])
        assert _scipy_eligible(net)
        net2, _ = build(3, 0, 2, [(0, 1, Fraction(1, 2))])
        assert not _scipy_eligible(net2)
        net3, _ = build(3, 0, 2, [(0, 1, 1), (1, 0, 1)])
        assert not _scipy_eligible(net3)  # antiparallel pair

    def test_cut_capacity_equals_value(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(2, 8)
            arcs = []
            pairs = set()
            for _ in range(rng.randint(1, 14)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v or (u, v) in pairs or (v, u) in pairs:
                    continue
                pairs.add((u, v))
                arcs.append((u, v, rng.randint(0, 6)))
            net, _ = build(n, 0, n - 1, arcs)
            res = max_flow(net)
            cut_cap = sum(
                c for u, v, c in arcs if u in res.cut and v not in res.cut
            )
            assert cut_cap == res.value  # max-flow min-cut certificate
