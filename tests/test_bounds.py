import math

import numpy as np
import pytest

from lapsum.bounds import (
    BOUND_TAGS,
    CONJECTURE_TAGS,
    K_MAX,
    THEOREM_TAGS,
    MissingAuxError,
    aux_requirements,
    bound_spec,
    evaluate_bound,
    rhs_table,
)
from lapsum.decomposition import star_arboricity_exact
from lapsum.graphs import (
    all_labeled_count,
    bits_graph,
    components_info,
    is_bipartite,
    labeled_classes,
    make_family,
    mask_bits,
    non_isolated_count,
)
from lapsum.matching import matching_number, min_vertex_cover

from oracles import oracle_conjugate_degrees, oracle_eps, oracle_rhs


def full_aux(g):
    return {
        "conj_degrees": oracle_conjugate_degrees(g),
        "bipartite": is_bipartite(g),
        "n_prime": components_info(g)[1],
        "non_isolated": non_isolated_count(g),
        "nu": matching_number(g),
        "tau": len(min_vertex_cover(g)),
        "sa": star_arboricity_exact(g)[0],
    }


class TestRegistry:
    def test_tags_partition(self):
        assert set(BOUND_TAGS) == set(CONJECTURE_TAGS) | set(THEOREM_TAGS)
        assert set(CONJECTURE_TAGS) == {"brouwer", "conj-matching-improved", "conj-cover"}

    def test_unknown_tag(self):
        with pytest.raises(KeyError):
            bound_spec("nope")

    def test_aux_requirements_union(self):
        needs = aux_requirements(["matching-thm", "cover", "bipartite-sq"])
        assert needs == {"nu", "tau", "bipartite"}

    def test_missing_aux_raises(self):
        g = make_family("complete:3")
        with pytest.raises(MissingAuxError):
            evaluate_bound("cover", g, 1, {})


class TestRhsFormulas:
    def test_brouwer_rhs(self):
        g = make_family("complete:4")
        res = evaluate_bound("brouwer", g, 3, {})
        assert res.rhs == 6  # C(4,2)

    def test_bai_rhs_uses_conjugate_degrees(self):
        g = make_family("star:4")
        aux = {"conj_degrees": oracle_conjugate_degrees(g)}
        res = evaluate_bound("bai", g, 2, aux)
        assert res.rhs == (4 + 1) - 3

    def test_bai_k_beyond_n(self):
        g = make_family("complete:3")
        aux = {"conj_degrees": oracle_conjugate_degrees(g)}
        res = evaluate_bound("bai", g, 5, aux)
        assert res.rhs == g.m and res.lhs == g.m

    def test_weak_brouwer_rhs(self):
        g = make_family("complete:3")
        res = evaluate_bound("weak-brouwer", g, 2, {})
        assert res.rhs == pytest.approx(4 + 30 * math.log(2) + 130)

    def test_matching_rhs(self):
        g = make_family("complete:5")
        res = evaluate_bound("matching-thm", g, 3, {"nu": 2})
        assert res.rhs == 3 * 2 + 1

    def test_square_bounds(self):
        g = make_family("complete:5")
        assert evaluate_bound("matching-sq", g, 3, {}).rhs == 18 - 2
        aux = {"bipartite": True}
        gb = make_family("complete-bipartite:2,3")
        assert evaluate_bound("bipartite-sq", gb, 3, aux).rhs == 18 - 3

    def test_half_component_rhs_floors(self):
        g = make_family("complete:5")
        res = evaluate_bound("half-component", g, 3, {"n_prime": 5})
        assert res.rhs == 7  # floor(15/2)

    def test_conj_cover_rhs(self):
        g = make_family("star:6")
        res = evaluate_bound("conj-cover", g, 3, {"tau": 1})
        assert res.rhs == 3 * 1 - 0


class TestApplicability:
    def test_bipartite_only(self):
        g = make_family("complete:3")
        res = evaluate_bound("bipartite-sq", g, 1, {"bipartite": False})
        assert not res.applicable and res.holds and math.isnan(res.rhs)

    def test_conj_matching_k_window(self):
        g = make_family("complete:5")
        aux = {"nu": 2, "non_isolated": 5}
        assert evaluate_bound("conj-matching-improved", g, 3, aux).applicable
        assert not evaluate_bound("conj-matching-improved", g, 4, aux).applicable

    def test_conj_cover_needs_k_at_least_tau(self):
        g = make_family("complete:4")
        aux = {"tau": 3}
        assert not evaluate_bound("conj-cover", g, 2, aux).applicable
        assert evaluate_bound("conj-cover", g, 3, aux).applicable

    def test_bad_k(self):
        with pytest.raises(ValueError):
            evaluate_bound("brouwer", make_family("complete:3"), 0, {})
        with pytest.raises(ValueError):
            evaluate_bound("brouwer", make_family("complete:3"), K_MAX + 1, {})

    def test_largest_k_stays_exact(self):
        # the int64 formulas must not wrap at the largest k allowed
        g = make_family("complete-bipartite:3,4")
        aux = full_aux(g)
        for tag in BOUND_TAGS:
            got = evaluate_bound(tag, g, K_MAX, aux).rhs
            assert got.hex() == oracle_rhs(tag, g.n, g.m, K_MAX, aux).hex(), tag


class TestHoldsOnKnownCases:
    def test_star_k1_all_theorems(self):
        g = make_family("star:6")
        aux = full_aux(g)
        for tag in THEOREM_TAGS:
            res = evaluate_bound(tag, g, 1, aux)
            assert res.holds, tag

    def test_matching_equality_on_odd_complete(self):
        g = make_family("complete:5")
        res = evaluate_bound("matching-thm", g, 4, full_aux(g))
        assert abs(res.slack) <= 1e-6

    def test_conj_cover_equality_on_split_family(self):
        g = make_family("split-s:6,2")
        res = evaluate_bound("conj-cover", g, 3, full_aux(g))
        assert res.applicable and abs(res.slack) <= 1e-6

    def test_lhs_matches_independent_eigensolver(self):
        for fam in ("complete:6", "cycle:7", "star:8", "complete-bipartite:3,4"):
            g = make_family(fam)
            for k in (1, 2, g.n - 1):
                res = evaluate_bound("brouwer", g, k, {})
                assert res.lhs == pytest.approx(oracle_eps(g, k), abs=1e-7)

    def test_theorems_hold_exhaustively_n4(self, exhaustive_n4):
        for g in exhaustive_n4:
            aux = full_aux(g)
            for tag in THEOREM_TAGS:
                for k in range(1, g.n + 1):
                    assert evaluate_bound(tag, g, k, aux).holds, (g, tag, k)


@pytest.fixture(scope="module")
def labeled_upto6():
    """(n, edge bit rows, graphs, full aux) of all labeled graphs per n <= 6.

    Every aux quantity is an isomorphism invariant, so ``full_aux`` runs once
    per class and each graph gets its class's dict."""
    out = []
    for n in range(7):
        bits = mask_bits(n, 0, all_labeled_count(n))
        graphs = [bits_graph(n, row) for row in bits]
        by_class, auxes = {}, []
        for c, g in zip(labeled_classes(n)[1].tolist(), graphs):
            if c not in by_class:
                by_class[c] = full_aux(g)
            auxes.append(by_class[c])
        out.append((n, bits, graphs, auxes))
    return out


def _rhs_inputs(m, aux):
    """Everything a bound's RHS reads of a graph besides n and k."""
    keys = ("bipartite", "n_prime", "non_isolated", "nu", "tau", "sa")
    return (m, tuple(aux["conj_degrees"]), *(aux[key] for key in keys))


class TestRhsOracle:
    """Every registered RHS against ``oracle_rhs``, bit for bit, NaN where the
    side condition fails, on all labeled graphs with n <= 6 and k in 1..n+2."""

    def test_evaluate_bound(self, labeled_upto6):
        for n, _, graphs, auxes in labeled_upto6:
            # the RHS reads only (n, m, aux, k): one graph per distinct input
            seen = set()
            for g, aux in zip(graphs, auxes):
                key = _rhs_inputs(g.m, aux)
                if key in seen:
                    continue
                seen.add(key)
                for tag in BOUND_TAGS:
                    for k in range(1, n + 3):
                        got = evaluate_bound(tag, g, k, aux).rhs
                        assert got.hex() == oracle_rhs(tag, n, g.m, k, aux).hex(), (tag, g, k)

    def test_stack_tables(self, labeled_upto6):
        needs = aux_requirements(BOUND_TAGS)
        for n, bits, graphs, auxes in labeled_upto6:
            ks = np.arange(1, n + 3, dtype=np.int64)
            ms = bits.sum(axis=1, dtype=np.int64)[:, None]
            cols = {
                key: np.array([aux[key] for aux in auxes], dtype=np.int64).reshape(len(bits), -1)
                for key in needs
            }
            keys = [_rhs_inputs(g.m, aux) for g, aux in zip(graphs, auxes)]
            inputs = dict(zip(keys, zip(ms[:, 0].tolist(), auxes)))
            for tag in BOUND_TAGS:
                got = rhs_table(bound_spec(tag), ms, ks, cols)
                memo = {
                    key: [oracle_rhs(tag, n, m, k, aux) for k in ks.tolist()]
                    for key, (m, aux) in inputs.items()
                }
                want = np.array([memo[key] for key in keys], dtype=float).reshape(got.shape)
                nan = np.isnan(want)
                assert np.array_equal(np.isnan(got), nan), (tag, n)
                # bit for bit: the int64 images of the floats agree
                same = np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
                assert same, (tag, n)
