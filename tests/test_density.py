import importlib
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lapsum
from lapsum.density import (
    Orientation,
    OrientationInfeasible,
    SizeCapError,
    density,
    k_orientation,
    partition_density,
    partition_density_bracket,
    peel_to_low_partition_density,
    random_k_orientation,
)
from lapsum.flow import Assignment, assign
from lapsum.graphs import (
    AlgorithmError,
    Graph,
    GraphError,
    all_labeled_graphs,
    disjoint_union,
    gnp_graphs,
    graph_from_edges,
    make_family,
)

from conftest import sampled_graphs, small_graphs
from oracles import (
    edges_inside,
    loop_partition_witness,
    oracle_components,
    oracle_density,
    oracle_max_densest_set,
    oracle_min_maximizer,
    oracle_nu_ell,
    oracle_partition_density,
)


def _short_reaching_every_bin(demand, capacity, adj):
    # an assignment that places nothing and reaches every item and bin
    return Assignment(
        0, tuple({} for _ in demand), frozenset(range(len(demand))),
        frozenset(range(len(capacity))),
    )


_true_edge_counts = importlib.import_module("lapsum.density")._edge_counts


def _overstate_full_set(g):
    # the true edge-count table, but one edge too many inside V
    e = _true_edge_counts(g)
    e[-1] += 1
    return e


def _partition_faults():
    # _partition_parts wrapped to give a vertex twice, then to drop vertex 3
    true_parts = importlib.import_module("lapsum.density")._partition_parts
    yield lambda *args: true_parts(*args) + [frozenset({3})]
    yield lambda *args: [p - {3} for p in true_parts(*args)]


def _expected_witness(g):
    # edgeless graphs report the single vertex 0, not the union of all subsets
    return oracle_max_densest_set(g) if g.m else frozenset({0})


class TestDensity:
    def test_complete_graph(self):
        wit = density(make_family("complete:4"))
        assert wit.value == Fraction(3, 2)
        assert wit.subset == frozenset(range(4))

    def test_star(self):
        wit = density(make_family("star:7"))
        assert wit.value == Fraction(6, 7)

    def test_witness_achieves_value(self):
        for g in sampled_graphs(60, 7, seed=2):
            wit = density(g)
            if wit.value > 0:
                assert Fraction(edges_inside(g, wit.subset), len(wit.subset)) == wit.value

    def test_matches_oracle_exhaustively(self, exhaustive_n5):
        for g in exhaustive_n5:
            wit = density(g)
            assert wit.value == oracle_density(g)
            assert wit.subset == _expected_witness(g)

    def test_witness_is_largest_densest_set(self):
        for g in sampled_graphs(60, 12, seed=6):
            wit = density(g)
            assert wit.value == oracle_density(g)
            assert wit.subset == _expected_witness(g)

    def test_ceiling_is_least_orientable_k(self):
        # Hakimi: G has a k-orientation iff every U has e(U) <= k|U|
        for n in (16, 24, 32, 40):
            for degree in (3, 6):
                for g in gnp_graphs(n, degree / (n - 1), 3, seed=n + degree):
                    k = 1
                    while not isinstance(k_orientation(g, k), Orientation):
                        k += 1
                    assert math.ceil(density(g).value) == k

    def test_at_most_n_plus_one_flows(self, monkeypatch):
        density_module = importlib.import_module("lapsum.density")
        calls = []

        def counting(demand, capacity, adj):
            calls.append(len(capacity))
            return assign(demand, capacity, adj)

        monkeypatch.setattr(density_module, "assign", counting)
        for g in list(sampled_graphs(60, 12, seed=7)) + list(gnp_graphs(40, 0.15, 10, seed=8)):
            calls.clear()
            density(g)
            assert len(calls) <= g.n + 1

    def test_not_denser_cut_raises(self, monkeypatch):
        # V is exactly as dense as the first Newton step m/n
        density_module = importlib.import_module("lapsum.density")
        monkeypatch.setattr(density_module, "assign", _short_reaching_every_bin)
        with pytest.raises(AlgorithmError, match="not denser"):
            density(make_family("path:5"))

    def test_endless_improvement_raises(self, monkeypatch):
        # every fake assignment reaches V and every count of its edges grows,
        # so each step looks denser; the iteration must stop after n + 1 tests
        density_module = importlib.import_module("lapsum.density")
        calls = []

        def fake(demand, capacity, adj):
            calls.append(len(capacity))
            return _short_reaching_every_bin(demand, capacity, adj)

        counts = itertools.count(5)
        monkeypatch.setattr(density_module, "assign", fake)
        monkeypatch.setattr(density_module, "_edges_inside", lambda g, subset: next(counts))
        with pytest.raises(AlgorithmError, match="did not settle"):
            density(make_family("path:5"))
        assert len(calls) == 6

    def test_not_denser_cut_raises_under_optimize(self):
        code = (
            "import importlib\n"
            "from lapsum.flow import Assignment\n"
            "from lapsum.graphs import AlgorithmError, make_family\n"
            "mod = importlib.import_module('lapsum.density')\n"
            "mod.assign = lambda d, c, adj: Assignment(\n"
            "    0, ({},) * len(d), frozenset(range(len(d))), frozenset(range(len(c)))\n"
            ")\n"
            "try:\n"
            "    mod.density(make_family('path:5'))\n"
            "except AlgorithmError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(lapsum.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert "not denser" in out.stdout

    def test_empty_graph(self):
        assert density(Graph(3, ())).value == 0


class TestPartitionDensity:
    def test_triangle_pair(self):
        g = disjoint_union(make_family("complete:3"), make_family("complete:3"))
        wit = partition_density(g)
        assert wit.value == Fraction(2)
        assert wit.attained_part_size == 3
        assert len(wit.parts) == 2

    def test_path_alternating_edges(self):
        # P9 packs 4 disjoint edges into parts of size 2
        assert partition_density(make_family("path:9")).value == Fraction(2)

    def test_complete_bipartite_below_left_size(self):
        assert partition_density(make_family("complete-bipartite:3,5")).value < 3

    def test_parts_partition_vertices(self):
        for g in sampled_graphs(40, 7, seed=3):
            wit = partition_density(g)
            seen = sorted(v for p in wit.parts for v in p)
            assert seen == list(range(g.n))

    def test_matches_oracle_exhaustively(self, exhaustive_n5):
        for g in exhaustive_n5:
            wit = partition_density(g)
            assert wit.value == oracle_partition_density(g)
            assert sorted(v for p in wit.parts for v in p) == list(range(g.n))
            assert wit.attained_part_size == max(len(p) for p in wit.parts)
            covered = sum(edges_inside(g, p) for p in wit.parts)
            assert Fraction(covered, wit.attained_part_size) == wit.value

    def test_witness_matches_loop_reference(self, exhaustive_n5):
        # the same value, parts (in the order of their smallest vertices) and
        # part size as one loop DP per cap
        for g in [*exhaustive_n5, *sampled_graphs(40, 9, seed=10)]:
            wit = partition_density(g)
            assert (wit.value, wit.parts, wit.attained_part_size) == loop_partition_witness(g)

    def test_long_path_and_cycle(self):
        # both do best with disjoint edges as parts of size 2: 7 of them in
        # P14, 6 in C13
        assert partition_density(make_family("path:14")).value == Fraction(7, 2)
        assert partition_density(make_family("cycle:13")).value == Fraction(3)

    def test_chunked_table_gives_same_witnesses(self, monkeypatch):
        # a tiny entry budget splits every layer into many row and column
        # blocks; the table, and so the witness, must not change
        density_module = importlib.import_module("lapsum.density")
        graphs = list(sampled_graphs(30, 9, seed=9))
        expected = [partition_density(g) for g in graphs]
        monkeypatch.setattr(density_module, "PARTITION_DP_ENTRIES", 8)
        assert [partition_density(g) for g in graphs] == expected

    def test_overstated_table_raises(self, monkeypatch):
        # the witness is recounted from g.edges, not from the DP's own table
        density_module = importlib.import_module("lapsum.density")
        monkeypatch.setattr(density_module, "_edge_counts", _overstate_full_set)
        with pytest.raises(AlgorithmError, match="does not attain"):
            partition_density(make_family("path:3"))

    def test_overstated_table_raises_under_optimize(self):
        code = (
            "import importlib\n"
            "from lapsum.graphs import AlgorithmError, make_family\n"
            "mod = importlib.import_module('lapsum.density')\n"
            "true_counts = mod._edge_counts\n"
            "def overstated(g):\n"
            "    e = true_counts(g)\n"
            "    e[-1] += 1\n"
            "    return e\n"
            "mod._edge_counts = overstated\n"
            "try:\n"
            "    mod.partition_density(make_family('path:3'))\n"
            "except AlgorithmError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(lapsum.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert "does not attain" in out.stdout

    def test_parts_that_do_not_partition_raise(self, monkeypatch):
        density_module = importlib.import_module("lapsum.density")
        for fault in _partition_faults():
            monkeypatch.setattr(density_module, "_partition_parts", fault)
            with pytest.raises(AlgorithmError, match="do not partition"):
                partition_density(make_family("complete:4"))

    def test_parts_that_do_not_partition_raise_under_optimize(self):
        code = (
            "import importlib\n"
            "from lapsum.graphs import AlgorithmError, make_family\n"
            "from test_density import _partition_faults\n"
            "mod = importlib.import_module('lapsum.density')\n"
            "for fault in _partition_faults():\n"
            "    mod._partition_parts = fault\n"
            "    try:\n"
            "        mod.partition_density(make_family('complete:4'))\n"
            "    except AlgorithmError as exc:\n"
            "        print(exc)\n"
        )
        src = str(Path(lapsum.__file__).resolve().parents[1])
        tests = str(Path(__file__).resolve().parent)
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join((src, tests))),
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout.count("do not partition") == 2

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            partition_density(Graph(21, ()))

    def test_bracket_contains_exact_value(self):
        for g in sampled_graphs(40, 7, seed=4):
            lo, hi = partition_density_bracket(g)
            exact = partition_density(g).value
            assert lo <= exact <= hi
            # the components taken as parts
            assert lo == Fraction(g.m, max(map(len, oracle_components(g))))


class TestOrientation:
    def test_cycle_one_orientation(self):
        ori = k_orientation(make_family("cycle:5"), 1)
        assert isinstance(ori, Orientation)
        assert ori.max_indegree() == 1

    def test_k4_needs_two(self):
        g = make_family("complete:4")
        bad = k_orientation(g, 1)
        assert isinstance(bad, OrientationInfeasible)
        assert bad.edges_inside > len(bad.subset)
        good = k_orientation(g, 2)
        assert isinstance(good, Orientation)

    def test_infeasible_iff_density_exceeds_k(self):
        for g in sampled_graphs(60, 7, seed=5):
            rho = density(g).value
            for k in (1, 2, 3):
                res = k_orientation(g, k)
                if rho <= k:
                    assert isinstance(res, Orientation)
                    assert res.max_indegree() <= k
                else:
                    assert isinstance(res, OrientationInfeasible)
                    assert res.edges_inside > k * len(res.subset)

    def test_infeasible_subset_is_minimal(self):
        # the subset lies in every U that maximizes e(U) - k|U|
        found = 0
        for g in sampled_graphs(80, 8, seed=12):
            for k in (1, 2):
                res = k_orientation(g, k)
                if isinstance(res, OrientationInfeasible):
                    found += 1
                    assert res.subset == oracle_min_maximizer(
                        range(g.n), lambda u: edges_inside(g, u) - k * len(u)
                    )
        assert found >= 20

    def test_bogus_cut_raises_algorithm_error(self, monkeypatch):
        # an unsaturated assignment that reaches no vertex certifies nothing;
        # the check must raise even under python -O
        density_module = importlib.import_module("lapsum.density")
        monkeypatch.setattr(
            density_module,
            "assign",
            lambda demand, capacity, adj: Assignment(
                0, tuple({} for _ in demand), frozenset({0}), frozenset()
            ),
        )
        with pytest.raises(AlgorithmError):
            k_orientation(make_family("complete:4"), 1)

    def test_orientation_validates_heads(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError):
            Orientation(g, (2, 1))
        with pytest.raises(GraphError):
            Orientation(g, (0,))

    def test_arcs_and_in_neighbors_consistent(self):
        g = make_family("path:4")
        ori = k_orientation(g, 1)
        ins = ori.in_neighbors()
        for tail, head in ori.arcs():
            assert tail in ins[head]

    def test_random_orientation_seeded(self):
        g = make_family("complete:5")
        a = random_k_orientation(g, 2, seed=1)
        b = random_k_orientation(g, 2, seed=1)
        assert a.heads == b.heads
        assert a.max_indegree() <= 2
        heads = {random_k_orientation(g, 2, seed=s).heads for s in range(6)}
        assert len(heads) > 1  # seeds explore different orientations

    def test_random_orientation_infeasible_raises(self):
        with pytest.raises(GraphError):
            random_k_orientation(make_family("complete:4"), 1, seed=0)


class TestPeeling:
    def test_complete_graph_peels_everything(self):
        g = make_family("complete:5")
        h, log = peel_to_low_partition_density(g, 2)
        assert h.m == 0 and len(log) == 1
        assert log[0].value == Fraction(2)

    def test_removed_edges_are_the_graph_edge_tuples(self):
        # a peel log holds pointers to the input's edges, not copies of them
        g = make_family("complete:6")
        ids = {id(e) for e in g.edges}
        _, log = peel_to_low_partition_density(g, 2)
        assert log and all(id(e) in ids for step in log for e in step.removed_edges)

    def test_invariants_on_small_graphs(self):
        for g in small_graphs(4):
            for k in (1, 2):
                h, log = peel_to_low_partition_density(g, k)
                assert partition_density(h).value < k
                for step in log:
                    assert len(step.removed_edges) >= k * step.n_prime
                    assert step.value >= k
                # vertices never removed
                assert h.n == g.n

    def test_steps_match_their_definition(self, exhaustive_n5):
        # each step removes the edges inside its graph's witness parts, n' is
        # the largest component of the removed subgraph, and the final graph
        # is g less every removed edge
        for g in exhaustive_n5:
            for k in (1, 2, 3):
                h, log = peel_to_low_partition_density(g, k)
                cur = g
                for step in log:
                    wit = partition_density(cur)
                    assert step.value == wit.value
                    parts = wit.parts
                    removed = [e for e in cur.edges if any(set(e) <= p for p in parts)]
                    assert list(step.removed_edges) == removed
                    assert len(removed) == sum(edges_inside(cur, p) for p in parts)
                    sub = Graph(g.n, step.removed_edges)
                    assert step.n_prime == max(map(len, oracle_components(sub)))
                    cur = graph_from_edges(g.n, set(cur.edges) - set(removed))
                assert h == cur
                assert h.edges == tuple(
                    e for e in g.edges if all(e not in s.removed_edges for s in log)
                )

    def test_chain_reuses_the_memoized_witness(self, monkeypatch):
        # criterion 7's chain on all labeled n = 5: the peel at k = 1, 2, 3,
        # then the partition density of the peeled graph; without the memo on
        # ``partition_density`` it takes 6,600 tables
        density_module = importlib.import_module("lapsum.density")
        real = density_module._partition_table
        calls = []

        def counted(e, n):
            calls.append(n)
            return real(e, n)

        monkeypatch.setattr(density_module, "_partition_table", counted)
        for g in all_labeled_graphs(5):
            for k in (1, 2, 3):
                h, _ = peel_to_low_partition_density(g, k)
                partition_density(h)
        assert len(calls) == 1857

    def test_thin_step_raises_under_optimize(self):
        # a witness whose parts hold fewer than k * n' edges: P3 as one part
        # has 2 edges and n' = 3, below k = 1 times n'
        code = (
            "import importlib\n"
            "from fractions import Fraction\n"
            "from lapsum.graphs import AlgorithmError, make_family\n"
            "mod = importlib.import_module('lapsum.density')\n"
            "mod.partition_density = lambda g: mod.PartitionWitness(\n"
            "    Fraction(1), (frozenset(range(g.n)),), g.n\n"
            ")\n"
            "try:\n"
            "    mod.peel_to_low_partition_density(make_family('path:3'), 1)\n"
            "except AlgorithmError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(lapsum.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert "peel step of 2 edges is below 1 * n'" in out.stdout

    def test_peeled_nu_ell_is_bounded(self):
        for g in small_graphs(4):
            for k in (1, 2):
                h, _ = peel_to_low_partition_density(g, k)
                for ell in (1, 2):
                    assert oracle_nu_ell(h, ell) < (1 + 1 / ell) * k
