import itertools
import math
import random

import pytest

from lapsum.decomposition import (
    AssignmentExhausted,
    KCAssignment,
    _without_transversal,
    arboricity_value,
    build_assignment_aux,
    forest_decomposition,
    forest_to_two_star_forests,
    is_star_forest,
    random_kc_assignment,
    sa_upper_bound_pipeline,
    sa_via_cover,
    star_arboricity_exact,
    structure_decomposition,
)
from lapsum.density import Orientation, SizeCapError, partition_density, random_k_orientation
from lapsum.graphs import Graph, GraphError, graph_from_edges, make_family
from lapsum.matching import min_vertex_cover

from conftest import sampled_graphs, small_graphs
from oracles import oracle_arboricity, oracle_sa


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

    def test_split_on_random_forests(self):
        for g in sampled_graphs(80, 7, seed=22):
            fd = forest_decomposition(g)
            for cls in fd.classes:
                out = forest_to_two_star_forests(g.n, cls)
                assert 1 <= len(out) <= 2
                assert sorted(e for c in out for e in c) == sorted(cls)


class TestStarArboricity:
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

    def test_cover_route(self):
        g = make_family("complete:4")
        cover = sorted(min_vertex_cover(g))
        sfd = sa_via_cover(g, cover)
        sfd.validate(g)
        assert len(sfd.classes) <= len(cover)
        with pytest.raises(GraphError):
            sa_via_cover(g, [0])  # not a cover


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
    """The (k,c)-assignment check on one vertex whose in-neighbors hold ``sets``."""
    return _without_transversal(sets, [range(len(sets))], ncolors) == []


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


class TestAssignments:
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
        with pytest.raises(Exception):
            bad.validate(ori)


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
        apex_deg = aux.degree(apex)
        assert apex_deg == len(sd.C)
        assert ori.max_indegree() <= k
