import random

import pytest

from lapsum.graphs import GraphError, disjoint_union, graph_from_edges, make_family
from lapsum.matching import (
    AlgorithmError,
    SizeCapError,
    gallai_edmonds,
    greedy_cover_2approx,
    hall_violator,
    matching_number,
    maximum_matching,
    min_vertex_cover,
    normalize_odd_set_cover,
    nu_ell,
    nu_ell_value,
    odd_set_cover,
)

from conftest import sampled_graphs, small_graphs
from oracles import (
    oracle_min_maximizer,
    oracle_nu,
    oracle_nu_ell,
    oracle_odd_cover_weight,
    oracle_tau,
)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_from_edges(10, outer + spokes + inner)


class TestMatching:
    def test_petersen_has_perfect_matching(self):
        assert matching_number(petersen()) == 5

    def test_odd_cycle(self):
        assert matching_number(make_family("cycle:5")) == 2

    def test_pairs_are_disjoint_edges(self):
        for g in sampled_graphs(60, 7, seed=8):
            mm = maximum_matching(g)
            used = set()
            for u, v in mm.pairs:
                assert g.has_edge(u, v)
                assert u not in used and v not in used
                used |= {u, v}

    def test_matches_oracle(self, exhaustive_n5):
        for g in exhaustive_n5:
            assert matching_number(g) == oracle_nu(g)


class TestVertexCover:
    def test_cycle5(self):
        assert len(min_vertex_cover(make_family("cycle:5"))) == 3

    def test_cover_covers(self):
        for g in sampled_graphs(60, 7, seed=9):
            cov = min_vertex_cover(g)
            assert all(u in cov or v in cov for u, v in g.edges)

    def test_matches_oracle(self, exhaustive_n4):
        for g in exhaustive_n4:
            assert len(min_vertex_cover(g)) == oracle_tau(g)

    def test_greedy_is_cover_within_double(self):
        for g in sampled_graphs(60, 7, seed=10):
            s = greedy_cover_2approx(g)
            assert all(u in s or v in s for u, v in g.edges)
            assert len(s) <= 2 * matching_number(g)


class TestGallaiEdmonds:
    def test_odd_cycle_all_exposable(self):
        ge = gallai_edmonds(make_family("cycle:5"))
        assert ge.D == frozenset(range(5)) and not ge.A and not ge.C

    def test_star_structure(self):
        ge = gallai_edmonds(make_family("star:5"))
        assert ge.A == frozenset({0})
        assert ge.D == frozenset({1, 2, 3, 4})

    def test_perfectly_matchable(self):
        ge = gallai_edmonds(make_family("path:4"))
        assert ge.C == frozenset(range(4))

    def test_verified_on_samples(self):
        # gallai_edmonds re-verifies its own structure; absence of raises is the test
        for g in sampled_graphs(40, 7, seed=12):
            gallai_edmonds(g)


class TestOddSetCover:
    def test_triangle(self):
        cov = odd_set_cover(make_family("complete:3"))
        assert cov.weight == 1 and cov.odd_sets == (frozenset({0, 1, 2}),)

    def test_weight_equals_nu_everywhere(self, exhaustive_n5):
        for g in exhaustive_n5:
            cov = odd_set_cover(g)
            assert cov.weight == matching_number(g)
            assert cov.covers(g) and cov.is_disjoint()

    def test_weight_matches_brute_force(self, exhaustive_n4):
        for g in exhaustive_n4:
            assert odd_set_cover(g).weight == oracle_odd_cover_weight(g)

    def test_normalize_merges_overlaps(self):
        # two triangles sharing vertex 2; union has 5 vertices (odd) -> one set
        g = graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        out = normalize_odd_set_cover(g, [], [{0, 1, 2}, {2, 3, 4}])
        assert out.is_disjoint() and out.covers(g)
        assert out.odd_sets == (frozenset(range(5)),)

    def test_normalize_even_union_drops_largest_vertex(self):
        # K4 minus the (0,3) edge; overlapping triangles with even union
        g = graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        out = normalize_odd_set_cover(g, [], [{0, 1, 2}, {1, 2, 3}])
        assert out.is_disjoint() and out.covers(g)
        assert 3 in out.vertices
        assert out.odd_sets == (frozenset({0, 1, 2}),)
        assert out.weight <= 1 + 1

    def test_normalize_rejects_even_sets_and_non_covers(self):
        g = make_family("complete:4")
        with pytest.raises(GraphError):
            normalize_odd_set_cover(g, [], [{0, 1}])
        with pytest.raises(GraphError):
            normalize_odd_set_cover(g, [0], [])

    def test_normalize_never_increases_weight(self):
        import random

        rng = random.Random(5)
        for g in sampled_graphs(30, 6, seed=13):
            if g.m == 0:
                continue
            # raw cover: all vertices plus random odd sets
            sets = []
            for _ in range(rng.randint(0, 2)):
                size = rng.choice([1, 3])
                if size <= g.n:
                    sets.append(set(rng.sample(range(g.n), size)))
            raw_vertices = list(range(g.n))
            out = normalize_odd_set_cover(g, raw_vertices, sets)
            raw_weight = len(raw_vertices) + sum((len(s) - 1) // 2 for s in sets)
            assert out.weight <= raw_weight


class TestStarPackings:
    def test_ell1_equals_matching(self):
        g = petersen()
        assert nu_ell_value(g, 1) == 5

    def test_star_graph(self):
        g = make_family("star:8")
        assert nu_ell_value(g, 3) == 1
        assert nu_ell_value(g, 7) == 1

    def test_matches_oracle(self, exhaustive_n5):
        for g in exhaustive_n5:
            for ell in (1, 2, 3):
                assert nu_ell_value(g, ell) == oracle_nu_ell(g, ell), (g, ell)

    def test_packing_validates(self):
        for g in sampled_graphs(40, 7, seed=14):
            for ell in (2, 3):
                nu_ell(g, ell).validate(g)

    def test_caps_and_bad_ell(self):
        with pytest.raises(ValueError):
            nu_ell(make_family("complete:3"), 0)
        from lapsum.graphs import Graph

        with pytest.raises(SizeCapError):
            nu_ell(Graph(17, ()), 2)


class TestHallViolator:
    def test_saturating_star(self):
        g = make_family("star:5")
        res = hall_violator(g, [0], [1, 2, 3, 4], 3)
        assert res.saturating
        assert res.packing.stars == ((0, (1, 2, 3)),)

    def test_violator_when_too_few_leaves(self):
        g = make_family("star:3")
        res = hall_violator(g, [0], [1, 2], 3)
        assert not res.saturating
        assert res.violator == frozenset({0})
        assert len(res.neighborhood) <= 3 * 1 - 1

    def test_violator_neighborhood_small(self):
        # two centers sharing two leaves: cannot both get 2 disjoint leaves...
        g = graph_from_edges(5, [(0, 2), (0, 3), (1, 2), (1, 3), (0, 4), (1, 4)])
        res = hall_violator(g, [0, 1], [2, 3, 4], 2)
        if not res.saturating:
            assert len(res.neighborhood) <= 2 * len(res.violator) - 1

    def test_partial_packing_certifies_saturated_part(self):
        g = graph_from_edges(6, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2)])
        res = hall_violator(g, [0, 1], [2, 3, 4, 5], 2)
        assert not res.saturating
        assert res.violator == frozenset({1})
        assert res.packing.count == 1  # vertex 0 still packs a 2-star

    def test_rejects_non_bipartition(self):
        g = make_family("complete:3")
        with pytest.raises(GraphError):
            hall_violator(g, [0], [1, 2], 1)
        g2 = graph_from_edges(4, [(0, 1)])
        with pytest.raises(GraphError):
            hall_violator(g2, [0], [1, 2], 1)  # sides must cover V

    def test_branches_track_exact_nu_ell(self):
        # saturating iff a perfect A-saturating packing exists (checked by oracle count)
        g = graph_from_edges(7, [(0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 6)])
        res = hall_violator(g, [0, 1, 2], [3, 4, 5, 6], 2)
        assert not res.saturating  # 3 centers need 6 distinct leaves, only 4 exist
        assert len(res.packing.stars) >= len(frozenset({0, 1, 2}) - res.violator)

    def test_violator_is_minimal(self):
        # the violator lies in every A' that maximizes ell |A'| - |N(A')|,
        # and that intersection is empty exactly when A is saturated
        rng = random.Random(13)
        found = 0
        for _ in range(300):
            na, nb, ell = rng.randint(1, 5), rng.randint(0, 6), rng.randint(1, 3)
            p = rng.random()
            g = graph_from_edges(
                na + nb,
                [(a, b) for a in range(na) for b in range(na, na + nb) if rng.random() < p],
            )
            res = hall_violator(g, range(na), range(na, na + nb), ell)
            minimal = oracle_min_maximizer(
                range(na), lambda x: ell * len(x) - len({w for a in x for w in g.neighbors(a)})
            )
            assert (res.violator or frozenset()) == minimal
            found += not res.saturating
        assert found >= 100
