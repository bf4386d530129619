import importlib
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import lapsum
from lapsum import decomposition
from lapsum.decomposition import (
    STAR_ARB_EDGE_CAP,
    AssignmentExhausted,
    ForestDecomposition,
    KCAssignment,
    StarForestDecomposition,
    _star_assign,
    _star_plan,
    arboricity_value,
    build_assignment_aux,
    forest_decomposition,
    forest_to_two_star_forests,
    is_star_forest,
    random_kc_assignment,
    sa_upper_bound_pipeline,
    star_arboricity_exact,
    structure_decomposition,
)
from lapsum.density import Orientation, SizeCapError, partition_density, random_k_orientation
from lapsum.flow import assign
from lapsum.graphs import (
    AlgorithmError,
    Graph,
    GraphError,
    all_labeled_count,
    bits_graph,
    graph_from_edges,
    labeled_classes,
    make_family,
    mask_bits,
    mask_rows,
)

from conftest import sampled_graphs, search_graphs
from oracles import oracle_arboricity, oracle_is_forest, oracle_sa, oracle_two_star_split, static_sa


class TestArboricity:
    def test_known_values(self):
        assert arboricity_value(make_family("path:5"))[0] == 1
        assert arboricity_value(make_family("cycle:6"))[0] == 2
        assert arboricity_value(make_family("complete:4"))[0] == 2
        assert arboricity_value(make_family("complete:6"))[0] == 3
        assert arboricity_value(Graph(4, ()))[0] == 0

    def test_witness_achieves_ratio(self):
        for g in sampled_graphs(60, 7, seed=20):
            a, wit = arboricity_value(g)
            if a == 0:
                continue
            s = set(wit)
            inside = sum(1 for u, v in g.edges if u in s and v in s)
            assert -(-inside // (len(s) - 1)) == a

    def test_matches_oracle(self, exhaustive_n5):
        for g in exhaustive_n5:
            assert arboricity_value(g)[0] == oracle_arboricity(g)


#: P4 and one valid star-forest split of it, then each partition fault:
#: (name, classes)
P4_SPLIT = (((0, 1), (2, 3)), ((1, 2),))
PARTITION_FAULTS = [
    ("edge in two classes", (((0, 1), (2, 3)), ((0, 1), (1, 2)))),
    ("reversed edge", (((1, 0), (2, 3)), ((1, 2),))),
    ("non-edge", (((0, 1), (2, 3)), ((0, 3), (1, 2)))),
    ("missing edge", (((0, 1), (2, 3)),)),
]


class TestEdgePartitionCheck:
    @pytest.mark.parametrize("kind", [ForestDecomposition, StarForestDecomposition])
    @pytest.mark.parametrize("classes", [c for _, c in PARTITION_FAULTS],
                             ids=[name for name, _ in PARTITION_FAULTS])
    def test_faults_raise(self, kind, classes):
        kind(4, P4_SPLIT).validate(make_family("path:4"))
        with pytest.raises(AlgorithmError):
            kind(4, classes).validate(make_family("path:4"))

    def test_faults_raise_under_optimize(self):
        code = (
            "from lapsum.decomposition import ForestDecomposition, StarForestDecomposition\n"
            "from lapsum.graphs import AlgorithmError, make_family\n"
            f"faults = {[c for _, c in PARTITION_FAULTS]!r}\n"
            "for kind in (ForestDecomposition, StarForestDecomposition):\n"
            "    for classes in faults:\n"
            "        try:\n"
            "            kind(4, classes).validate(make_family('path:4'))\n"
            "        except AlgorithmError:\n"
            "            print('raised')\n"
        )
        src = str(Path(lapsum.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout == "raised\n" * (2 * len(PARTITION_FAULTS))

    def test_classes_in_any_order_validate(self):
        g = make_family("path:4")
        ForestDecomposition(4, (((2, 3), (0, 1), (1, 2)),)).validate(g)
        StarForestDecomposition(4, (((2, 3), (0, 1)), ((1, 2),))).validate(g)


class TestForestDecomposition:
    def test_class_count_is_arboricity(self):
        for g in sampled_graphs(60, 7, seed=21):
            fd = forest_decomposition(g)
            fd.validate(g)
            assert len(fd.classes) == arboricity_value(g)[0]

    def test_complete_graph(self):
        g = make_family("complete:6")
        fd = forest_decomposition(g)
        assert len(fd.classes) == 3
        assert sum(len(c) for c in fd.classes) == 15

    def test_empty(self):
        assert forest_decomposition(Graph(3, ())).classes == ()


class TestStarForests:
    def test_is_star_forest_characterization(self):
        assert is_star_forest(4, [(0, 1), (0, 2), (0, 3)])
        assert is_star_forest(4, [(0, 1), (2, 3)])
        assert not is_star_forest(3, [(0, 1), (1, 2), (0, 2)])
        assert not is_star_forest(4, [(0, 1), (1, 2), (2, 3)])  # P4 is one forest, two stars

    def test_two_star_split_of_path(self):
        classes = forest_to_two_star_forests(6, [(i, i + 1) for i in range(5)])
        assert len(classes) == 2
        for cls in classes:
            assert is_star_forest(6, cls)
        assert sum(len(c) for c in classes) == 5

    def test_two_star_split_rejects_cycles(self):
        with pytest.raises(GraphError):
            forest_to_two_star_forests(3, [(0, 1), (1, 2), (0, 2)])

    def test_split_keeps_ordered_edge_tuples(self):
        path = [(0, 1), (2, 1), (2, 3), (3, 4)]
        out = [e for cls in forest_to_two_star_forests(5, path) for e in cls]
        assert sorted(out) == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert {id(e) for e in out} & {id(e) for e in path} == {id(e) for e in path if e[0] < e[1]}

    def test_split_matches_oracle(self):
        for g in search_graphs():
            if oracle_is_forest(g):
                assert forest_to_two_star_forests(g.n, g.edges) == oracle_two_star_split(g), g
            else:
                with pytest.raises(GraphError, match="not acyclic"):
                    forest_to_two_star_forests(g.n, g.edges)
        for g in sampled_graphs(150, 12, seed=23):
            for cls in forest_decomposition(g).classes:
                want = oracle_two_star_split(Graph(g.n, cls))
                assert forest_to_two_star_forests(g.n, cls) == want, (g, cls)

    def test_split_on_random_forests(self):
        for g in sampled_graphs(80, 7, seed=22):
            fd = forest_decomposition(g)
            for cls in fd.classes:
                out = forest_to_two_star_forests(g.n, cls)
                assert 1 <= len(out) <= 2
                assert sorted(e for c in out for e in c) == sorted(cls)


def _sa_from_arboricity(g):
    """Reference: the iterative deepening of star_arboricity_exact started
    at a(G), as (sa, classes)."""
    if g.m == 0:
        return 0, ()
    t = arboricity_value(g)[0]
    while (classes := _star_assign(_star_plan(g), t)) is None:
        t += 1
    return len(classes), classes


def _one_per_class(n):
    return [bits_graph(n, row) for row in mask_rows(n, labeled_classes(n)[0])]


def _dense_core_graphs(seed, count, cores=(5, 6)):
    """Seeded relabeled K_q (q in cores) with pendant paths hung on random
    vertices and isolated vertices added, within STAR_ARB_EDGE_CAP."""
    rng = random.Random(seed)
    for _ in range(count):
        q = rng.choice(cores)
        edges = list(itertools.combinations(range(q), 2))
        n = q
        for _ in range(rng.randint(0, 3)):
            v = rng.randrange(n)
            for _ in range(rng.randint(1, 4)):
                if len(edges) < STAR_ARB_EDGE_CAP:
                    edges.append((v, n))
                    v, n = n, n + 1
        n += rng.randint(0, 3)
        perm = list(range(n))
        rng.shuffle(perm)
        yield graph_from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def _certify_gnm_graphs(seed, count):
    """count seeded G(n, m) graphs at each of the four sizes at which
    certify times exact star arboricity; the static-order reference search
    takes at most 0.02 s on each of these."""
    rng = random.Random(seed)
    for n, m in ((7, 12), (8, 16), (9, 18), (10, 20)):
        pairs = list(itertools.combinations(range(n), 2))
        for _ in range(count):
            yield graph_from_edges(n, rng.sample(pairs, m))


class TestStarSearchReference:
    """star_arboricity_exact gives the sa of the static-order search it
    replaced (``oracles.static_star_assign``), with a decomposition that
    passes ``validate``."""

    @staticmethod
    def check(graphs):
        for g in graphs:
            sa, sfd = star_arboricity_exact(g)
            sfd.validate(g)
            assert len(sfd.classes) == sa == static_sa(g), g

    def test_all_labeled_up_to_5(self, exhaustive_n5):
        self.check(exhaustive_n5)

    def test_one_per_class_at_6(self):
        self.check(_one_per_class(6))

    def test_dense_cores(self):
        self.check(_dense_core_graphs(27, 24))
        self.check(_dense_core_graphs(28, 1, cores=(7,)))

    def test_certify_sizes(self):
        self.check(_certify_gnm_graphs(31, 16))

    def test_only_the_lowest_empty_class_is_opened(self, monkeypatch):
        """Trying a second empty class at a node changes no value, only the
        work: the search nodes on K7, whose level t = 4 has no assignment,
        go from 6,904 to 35,968, counted by their calls to the edge choice."""
        counts = []
        fewest_fits = decomposition._fewest_fits

        def counting(*args):
            counts.append(1)
            return fewest_fits(*args)

        monkeypatch.setattr(decomposition, "_fewest_fits", counting)
        assert star_arboricity_exact(make_family("complete:7"))[0] == 5
        assert len(counts) <= 8000


class TestStarArboricity:
    def test_search_starts_at_or_below_arboricity(self, monkeypatch):
        """The first t tried is at most a(G) <= sa(G) on every labeled graph
        with an edge and 2 <= n <= 6, and on samples up to n = 10. a(G) is
        an isomorphism invariant, so it is computed once per class."""

        class Started(Exception):
            pass

        def first_try(g, t):
            raise Started(t)

        def first_t(g):
            try:
                star_arboricity_exact(g)
            except Started as start:
                return start.args[0]

        cases = []
        for n in range(2, 7):
            bits = mask_bits(n, 1, all_labeled_count(n))
            arb = {}
            for c, row in zip(labeled_classes(n)[1][1:].tolist(), bits):
                g = bits_graph(n, row)
                if c not in arb:
                    arb[c] = arboricity_value(g)[0]
                cases.append((g, arb[c]))
        samples = [g for g in sampled_graphs(200, 10, seed=26) if 0 < g.m <= STAR_ARB_EDGE_CAP]
        cases += [(g, arboricity_value(g)[0]) for g in samples]
        monkeypatch.setattr(decomposition, "_star_assign", first_try)
        for g, a in cases:
            assert 1 <= first_t(g) <= a, g

    def test_same_as_search_from_arboricity(self, exhaustive_n5):
        graphs = exhaustive_n5 + _one_per_class(6) + list(_dense_core_graphs(27, 24))
        graphs += _dense_core_graphs(28, 1, cores=(7,))
        for g in graphs:
            sa, sfd = star_arboricity_exact(g)
            assert (sa, sfd.classes) == _sa_from_arboricity(g), g

    def test_known_values(self):
        assert star_arboricity_exact(make_family("path:4"))[0] == 2
        assert star_arboricity_exact(make_family("complete:4"))[0] == 3
        assert star_arboricity_exact(make_family("complete-bipartite:3,5"))[0] == 3
        assert star_arboricity_exact(make_family("star:7"))[0] == 1
        assert star_arboricity_exact(Graph(2, ()))[0] == 0

    def test_between_a_and_2a(self):
        for g in sampled_graphs(60, 6, seed=23):
            a = arboricity_value(g)[0]
            sa, sfd = star_arboricity_exact(g)
            sfd.validate(g)
            assert a <= sa <= 2 * a or (a == 0 and sa == 0)

    def test_matches_brute_oracle(self, exhaustive_n4):
        for g in exhaustive_n4:
            assert star_arboricity_exact(g)[0] == oracle_sa(g)

    def test_edge_cap(self):
        with pytest.raises(SizeCapError):
            star_arboricity_exact(make_family("complete:9"))


class TestStructureDecomposition:
    def test_small_cover_case(self):
        g = make_family("star:9")
        sd = structure_decomposition(g, 2)
        assert sd.U == frozenset() and sd.C == frozenset({0, 1})

    def test_violator_case(self):
        g = make_family("star:9")
        sd = structure_decomposition(g, 1)
        sd.validate(g)
        assert sd.C == frozenset({0})
        assert sd.I == frozenset(range(2, 9))

    def test_rejects_high_partition_density(self):
        with pytest.raises(GraphError):
            structure_decomposition(make_family("complete:5"), 1)

    def test_invariants_on_samples(self):
        count = 0
        for g in sampled_graphs(120, 7, seed=24):
            for k in (1, 2, 3):
                if partition_density(g).value >= k:
                    continue
                sd = structure_decomposition(g, k)
                sd.validate(g)  # raises on any violated invariant
                count += 1
        assert count > 50

    def test_parden_modes(self):
        g = make_family("star:9")
        structure_decomposition(g, 1, parden_mode="assume")
        # the bracket certifies a single edge below k=1; a star it cannot
        single_edge = graph_from_edges(2, [(0, 1)])
        structure_decomposition(single_edge, 1, parden_mode="bound")
        with pytest.raises(GraphError):
            structure_decomposition(g, 1, parden_mode="bound")
        with pytest.raises(ValueError):
            structure_decomposition(g, 1, parden_mode="bogus")
        with pytest.raises(ValueError):
            structure_decomposition(g, 0)


def hall_condition(sets, ncolors):
    """Hall's theorem by brute force: every subfamily sees enough colors."""
    if len(sets) > ncolors:
        return False
    return all(
        len(frozenset().union(*sub)) >= r
        for r in range(1, len(sets) + 1)
        for sub in itertools.combinations(sets, r)
    )


def has_transversal(sets, ncolors):
    """The (k,c)-assignment check on one vertex whose in-neighbors hold
    ``sets``: k = 0 and c = ncolors admit every list of colors 1..ncolors."""
    return KCAssignment(0, ncolors, tuple(sets)).without_transversal([range(len(sets))]) == []


class TestTransversal:
    def test_matches_hall_oracle(self):
        rng = random.Random(3)
        for _ in range(2000):
            ncolors = rng.randint(1, 7)
            sets = [
                frozenset(rng.sample(range(1, ncolors + 1), rng.randint(0, ncolors)))
                for _ in range(rng.randint(0, 7))
            ]
            assert has_transversal(sets, ncolors) == hall_condition(sets, ncolors)

    def test_long_augmenting_path(self):
        # with the colors in this order the greedy pass gives color i to
        # (i, i+1), so (1,) needs an augmenting path through all 1999 others
        chain = [(i, i + 1) for i in range(1, 2000)] + [(1,)]
        assert has_transversal(chain, 2001)
        assert not has_transversal(chain + [(2000,)], 2001)
        sets = [frozenset(c) for c in chain]
        assert has_transversal(sets, 2001)
        assert not has_transversal(sets + [frozenset({2000})], 2001)


def full_recheck_kc_assignment(ori, k, c, rng, max_tries, pinned):
    """The (k,c)-assignment loop that checks every vertex on every try, with
    Hall's condition by brute force; draws from ``rng`` as lapsum does."""
    palette = list(range(1, k + c + 1))
    lists = [frozenset(rng.sample(palette, c)) for _ in range(ori.base.n)]
    for v, lst in pinned.items():
        lists[v] = frozenset(lst)
    ins = ori.in_neighbors()
    failure_counts = {}
    for attempt in range(1, max_tries + 1):
        failed = [
            v for v, nbrs in enumerate(ins)
            if not hall_condition([lists[u] for u in nbrs], k + c)
        ]
        if not failed:
            return ("found", tuple(lists)), attempt
        for v in failed:
            failure_counts[v] = failure_counts.get(v, 0) + 1
            for u in ins[v]:
                lists[u] = frozenset(rng.sample(palette, c))
    return ("exhausted", failure_counts), max_tries


class RecordingRandom(random.Random):
    """A seeded generator that logs every ``sample`` it returns."""

    def __init__(self, seed, log):
        super().__init__(seed)
        self.log = log

    def sample(self, population, k):
        out = super().sample(population, k)
        self.log.append(tuple(out))
        return out


class TestAssignments:
    def test_matches_full_recheck(self, monkeypatch):
        # pinning every list to {1} makes each vertex of in-degree >= 2 fail
        # the first try, so the result comes after several partial re-checks
        decomposition = importlib.import_module("lapsum.decomposition")
        cases, several = 0, 0
        for i, g in enumerate(sampled_graphs(40, 12, seed=11)):
            k = max(1, math.ceil(partition_density(g).value))
            for c in (1, 2):
                ori = random_k_orientation(g, k + 1, seed=i)
                kmax = max(ori.max_indegree(), 1)
                pin = {v: frozenset({1}) for v in range(g.n)} if c == 1 else {}
                seed = 100 * i + c
                drawn, ref_drawn = [], []
                recording = SimpleNamespace(Random=lambda s: RecordingRandom(s, drawn))
                monkeypatch.setattr(decomposition, "random", recording)
                res, tries = random_kc_assignment(ori, kmax, c, seed, max_tries=8, pinned=pin)
                monkeypatch.undo()
                ref, ref_tries = full_recheck_kc_assignment(
                    ori, kmax, c, RecordingRandom(seed, ref_drawn), 8, pin
                )
                if isinstance(res, KCAssignment):
                    assert ref == ("found", res.lists)
                else:
                    assert ref == ("exhausted", res.failure_counts)
                assert tries == ref_tries and drawn == ref_drawn
                cases += 1
                several += tries > 2
        assert cases == 80 and several >= 10

    def make_orientation(self):
        g = make_family("cycle:6")
        ori = random_k_orientation(g, 1, seed=0)
        return ori

    def test_assignment_found_and_validates(self):
        ori = self.make_orientation()
        res, tries = random_kc_assignment(ori, 1, 2, seed=0)
        assert isinstance(res, KCAssignment)
        res.validate(ori)
        assert tries >= 1

    def test_seeded_reproducibility(self):
        ori = self.make_orientation()
        a, _ = random_kc_assignment(ori, 1, 2, seed=5)
        b, _ = random_kc_assignment(ori, 1, 2, seed=5)
        assert a == b

    def test_pinned_lists_respected_on_success(self):
        ori = self.make_orientation()
        pin = {0: frozenset({1, 2})}
        res, tries = random_kc_assignment(ori, 1, 2, seed=1, pinned=pin)
        if tries == 1:
            assert res.lists[0] == frozenset({1, 2})

    def test_exhaustion_reported(self):
        # k=2 orientation with a vertex of in-degree 2; c=1 singleton lists
        g = graph_from_edges(3, [(0, 2), (1, 2)])
        ori = Orientation(g, (2, 2))
        pin = {0: frozenset({1}), 1: frozenset({1})}
        res, tries = random_kc_assignment(
            ori, 2, 1, seed=0, max_tries=1, pinned=pin
        )
        assert isinstance(res, AssignmentExhausted)
        assert tries == 1 and res.failure_counts == {2: 1}

    def test_rejects_overloaded_orientation(self):
        g = graph_from_edges(3, [(0, 2), (1, 2)])
        ori = Orientation(g, (2, 2))
        with pytest.raises(GraphError):
            random_kc_assignment(ori, 1, 2, seed=0)

    def test_validate_rejects_missing_transversal(self):
        g = graph_from_edges(3, [(0, 2), (1, 2)])
        ori = Orientation(g, (2, 2))
        bad = KCAssignment(2, 1, (frozenset({1}), frozenset({1}), frozenset({2})))
        with pytest.raises(AlgorithmError, match="of 2 has no transversal"):
            bad.validate(ori)

    def test_validate_rejects_missing_transversal_under_optimize(self):
        code = (
            "from lapsum.decomposition import KCAssignment\n"
            "from lapsum.density import Orientation\n"
            "from lapsum.graphs import AlgorithmError, graph_from_edges\n"
            "ori = Orientation(graph_from_edges(3, [(0, 2), (1, 2)]), (2, 2))\n"
            "bad = KCAssignment(2, 1, (frozenset({1}), frozenset({1}), frozenset({2})))\n"
            "try:\n"
            "    bad.validate(ori)\n"
            "except AlgorithmError as exc:\n"
            "    print('raised:', exc)\n"
        )
        src = str(Path(lapsum.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert "raised: in-neighborhood of 2 has no transversal" in out.stdout

    @pytest.mark.parametrize(
        "max_tries, pinned",
        [
            (0, {}),
            (-5, {}),
            (50, {0: frozenset({4})}),  # outside 1..k+c = 1..3
            (50, {0: frozenset({0})}),
            (50, {0: frozenset({1, 2, 3})}),  # more than c = 2 colors
            (50, {6: frozenset({1})}),  # cycle:6 has vertices 0..5
            (50, {-1: frozenset({1})}),
        ],
    )
    def test_rejects_bad_input_before_drawing(self, monkeypatch, max_tries, pinned):
        ori = self.make_orientation()
        drawn = []
        recording = SimpleNamespace(Random=lambda s: RecordingRandom(s, drawn))
        monkeypatch.setattr(decomposition, "random", recording)
        with pytest.raises(ValueError):
            random_kc_assignment(ori, 1, 2, seed=0, max_tries=max_tries, pinned=pinned)
        assert drawn == []

    def test_first_try_checks_each_vertex_once(self, monkeypatch):
        # criterion 9's K_{101,151}: a first-try success is one assign call
        # per vertex of the auxiliary graph, the certificate check included
        k = 101
        c = math.ceil(5 * math.log(k) + 20)
        g = make_family(f"complete-bipartite:{k},{k + 50}")
        aux, _, _ = build_assignment_aux(g, structure_decomposition(g, k, parden_mode="assume"), k)
        ori = random_k_orientation(aux, k, seed=0)
        calls = []

        def counted(*args):
            calls.append(1)
            return assign(*args)

        monkeypatch.setattr(decomposition, "assign", counted)
        res, tries = random_kc_assignment(ori, k, c, seed=0)
        assert (c, aux.n) == (44, 253)
        assert isinstance(res, KCAssignment) and tries == 1
        assert len(calls) == aux.n


class TestPipeline:
    def test_small_k_route(self):
        g = make_family("complete-bipartite:2,6")
        res = sa_upper_bound_pipeline(g, 3)
        assert res.route == "2a"
        res.star_classes.validate(g)
        assert len(res.star_classes.classes) <= 2 * (3 + 1)
        assert res.bound_claimed == pytest.approx(3 + 15 * math.log(3) + 65)

    def test_small_k_route_on_samples(self):
        for g in sampled_graphs(60, 7, seed=25):
            for k in (2, 3):
                if partition_density(g).value >= k:
                    continue
                res = sa_upper_bound_pipeline(g, k)
                assert res.route == "2a"
                res.star_classes.validate(g)
                assert len(res.star_classes.classes) <= 2 * (k + 1)

    def test_large_k_route(self):
        k = 101
        g = make_family(f"complete-bipartite:{k},{k + 20}")
        res = sa_upper_bound_pipeline(g, k, seed=3, parden_mode="assume")
        assert res.route == "assignment"
        assert isinstance(res.assignment, KCAssignment)
        assert res.assignment.c == math.ceil(5 * math.log(k) + 20)
        assert res.orientation.max_indegree() <= k
        res.assignment.validate(res.orientation)

    def test_rejects_dense_input(self):
        with pytest.raises(GraphError):
            sa_upper_bound_pipeline(make_family("complete:6"), 1)

    def test_aux_graph_shape(self):
        k = 101
        g = make_family(f"complete-bipartite:{k},{k + 20}")
        sd = structure_decomposition(g, k, parden_mode="assume")
        aux, labels, ori = build_assignment_aux(g, sd, k)
        assert aux.n == len(sd.U | sd.C) + 1
        apex = aux.n - 1
        apex_deg = len(aux.neighbors(apex))
        assert apex_deg == len(sd.C)
        assert ori.max_indegree() <= k
