import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapsum.graphs import Graph, all_labeled_graphs, disjoint_union, gnp_graphs, graph_from_edges
from lapsum.graphs import encode_graph6, graph6_bits, graph_bits, make_family
from lapsum.spectral import (
    EpsProfile,
    SpectralError,
    Spectrum,
    eps,
    eps_profile,
    graph6_laplacians,
    graph6_spectra,
    spectrum,
    spectrum_fault,
    stack_size,
)

from conftest import sampled_graphs
from oracles import jacobi_laplacian_spectrum, oracle_laplacian
from test_graphs import random_graph_strategy

#: family graphs up to n = 150, most past graph6's n <= 62; with the seeded
#: G(n, p) of ``large_graphs`` (isolated vertices at p = 0.05) they are the
#: large graphs of the bit-for-bit checks
LARGE_FAMILIES = ("star:70", "complete:80", "kbip:30,40", "split-s:60,10", "cycle:101",
                  "path:150")


def large_graphs():
    for seed, n in enumerate((20, 40, 70, 100)):
        for p in (0.05, 0.3, 0.9):
            yield from gnp_graphs(n, p, 2, seed=seed)
    yield from map(make_family, LARGE_FAMILIES)


def oracle_spectrum(g) -> tuple[float, ...]:
    """LAPACK's eigenvalues of the entry-by-entry Laplacian, non-increasing."""
    mat = np.array(oracle_laplacian(g), dtype=float).reshape(g.n, g.n)
    return tuple(np.linalg.eigvalsh(mat)[::-1].tolist())


def assert_one_row_views_match_oracle(graphs):
    """spectrum and eps_profile equal, bit for bit, the oracle spectrum and
    its Python running sum minus |E|."""
    for g in graphs:
        ref = oracle_spectrum(g)
        assert spectrum(g).values == ref, g
        running, expected = 0.0, []
        for lam in ref:
            running += lam
            expected.append(running - g.m)
        assert eps_profile(g).eps == tuple(expected), g


class TestSpectrum:
    def test_triangle(self):
        vals = spectrum(make_family("complete:3")).values
        assert vals == pytest.approx((3.0, 3.0, 0.0), abs=1e-9)

    def test_complete_graph(self):
        vals = spectrum(make_family("complete:5")).values
        assert vals == pytest.approx((5.0,) * 4 + (0.0,), abs=1e-9)

    def test_star(self):
        vals = spectrum(make_family("star:6")).values
        assert vals == pytest.approx((6.0, 1.0, 1.0, 1.0, 1.0, 0.0), abs=1e-9)

    def test_validation_rejects_garbage(self):
        g = make_family("path:3")
        with pytest.raises(SpectralError):
            Spectrum((5.0, 1.0, 0.0)).validate(g)  # sum != 2|E|
        with pytest.raises(SpectralError):
            Spectrum((3.0, 1.0)).validate(g)

    @given(random_graph_strategy())
    @settings(max_examples=100, deadline=None)
    def test_structural_invariants(self, g):
        if g.n == 0:
            return
        vals = spectrum(g).values
        assert abs(sum(vals) - 2 * g.m) < 1e-7
        assert vals[-1] == pytest.approx(0.0, abs=1e-7)
        assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))

    def test_matches_jacobi_oracle(self):
        for g in sampled_graphs(40, 8, seed=5):
            ours = spectrum(g).values
            ref = jacobi_laplacian_spectrum(g)
            assert max(abs(a - b) for a, b in zip(ours, ref)) < 1e-7

    def test_stacked_spectra_equal_per_graph_spectra(self):
        by_n = {}
        for g in sampled_graphs(300, 12, seed=11):
            by_n.setdefault(g.n, []).append(g)
        for n, graphs in by_n.items():
            graphs = graphs[: stack_size(n)]
            vals = graph6_spectra(n, graph6_bits([encode_graph6(g) for g in graphs]))
            assert [tuple(row) for row in vals.tolist()] == [oracle_spectrum(g) for g in graphs]

    def test_one_row_views_equal_oracle_on_all_labeled_graphs(self):
        assert_one_row_views_match_oracle(g for n in range(7) for g in all_labeled_graphs(n))

    def test_one_row_views_equal_oracle_on_large_graphs(self):
        assert_one_row_views_match_oracle(large_graphs())

    def test_spectral_error_past_graph6_names_n_and_m(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(a) + 1.0)
        with pytest.raises(SpectralError, match=r"graph with n=70, m=69: smallest"):
            spectrum(make_family("star:70"))
        with pytest.raises(SpectralError, match=r"graph6 Bw: smallest"):
            spectrum(make_family("complete:3"))

    def test_stacked_check_reports_first_bad_row(self):
        good = (3.0, 3.0, 0.0)
        vals = np.array([good, (3.0, 2.0, 0.0), (4.0, 3.0, 0.0), good])
        row, reason = spectrum_fault(vals, np.array([3, 3, 3, 3]))
        assert row == 1 and "sum" in reason
        assert spectrum_fault(vals[[0, 3]], np.array([3, 3])) is None

    def test_laplacian_entries(self):
        g = graph_from_edges(3, [(0, 1)])
        L = graph6_laplacians(g.n, graph_bits(g)[None])[0]
        assert L[0][0] == 1 and L[0][1] == -1 and L[2][2] == 0

    def test_laplacian_has_no_negative_zero(self):
        # a -0.0 entry would move the last bit of LAPACK's eigenvalues
        for g in [*all_labeled_graphs(4), *large_graphs()]:
            L = graph6_laplacians(g.n, graph_bits(g)[None])[0]
            assert L.shape == (g.n, g.n)
            assert np.array_equal(np.signbit(L), L == -1.0), g
            assert L.tolist() == oracle_laplacian(g), g


class TestEps:
    def test_star_k1_equality(self):
        assert eps(make_family("star:6"), 1) == pytest.approx(1.0, abs=1e-9)

    def test_k_exceeding_n_returns_edge_count(self):
        g = make_family("complete:4")
        assert eps(g, 4) == pytest.approx(6.0, abs=1e-9)
        assert eps(g, 10) == 6.0

    def test_profile_matches_pointwise(self):
        g = make_family("cycle:6")
        prof = eps_profile(g)
        for k in range(1, 7):
            assert prof.value(k) == pytest.approx(eps(g, k), abs=1e-12)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            EpsProfile((0.0,), 1).value(0)

    @given(random_graph_strategy(max_n=7), st.integers(min_value=1, max_value=7))
    @settings(max_examples=100, deadline=None)
    def test_ky_fan_subadditivity(self, g, k):
        # split the edges into two spanning subgraphs; excess is subadditive
        if g.n == 0:
            return
        rng = random.Random(42)
        part = [e for e in g.edges if rng.random() < 0.5]
        g1 = Graph(g.n, tuple(part))
        g2 = Graph(g.n, tuple(e for e in g.edges if e not in part))
        assert eps(g, k) <= eps(g1, k) + eps(g2, k) + 1e-6

    def test_disjoint_union_spectrum_is_multiset_union(self):
        a, b = make_family("cycle:4"), make_family("star:5")
        both = sorted(spectrum(a).values + spectrum(b).values, reverse=True)
        union = spectrum(disjoint_union(a, b)).values
        assert max(abs(x - y) for x, y in zip(both, union)) < 1e-7
