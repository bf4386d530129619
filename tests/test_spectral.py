import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapsum.graphs import disjoint_union, graph_from_edges, make_family, remove_edges
from lapsum.graphs import encode_graph6, graph6_bits
from lapsum.spectral import (
    EpsProfile,
    SpectralError,
    Spectrum,
    eps,
    eps_profile,
    graph6_spectra,
    laplacian,
    spectrum,
    spectrum_fault,
    stack_size,
)

from conftest import sampled_graphs
from oracles import jacobi_laplacian_spectrum
from test_graphs import random_graph_strategy


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
            assert [tuple(row) for row in vals.tolist()] == [spectrum(g).values for g in graphs]

    def test_stacked_check_reports_first_bad_row(self):
        good = (3.0, 3.0, 0.0)
        vals = np.array([good, (3.0, 2.0, 0.0), (4.0, 3.0, 0.0), good])
        row, reason = spectrum_fault(vals, np.array([3, 3, 3, 3]))
        assert row == 1 and "sum" in reason
        assert spectrum_fault(vals[[0, 3]], np.array([3, 3])) is None

    def test_laplacian_entries(self):
        L = laplacian(graph_from_edges(3, [(0, 1)]))
        assert L[0][0] == 1 and L[0][1] == -1 and L[2][2] == 0


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
        g1 = remove_edges(g, [e for e in g.edges if e not in part])
        g2 = remove_edges(g, part)
        assert eps(g, k) <= eps(g1, k) + eps(g2, k) + 1e-6

    def test_disjoint_union_spectrum_is_multiset_union(self):
        a, b = make_family("cycle:4"), make_family("star:5")
        both = sorted(spectrum(a).values + spectrum(b).values, reverse=True)
        union = spectrum(disjoint_union(a, b)).values
        assert max(abs(x - y) for x, y in zip(both, union)) < 1e-7
