"""Laplacian matrices, spectra, and the eigenvalue-sum excess profile, by one route
(stacked edge bits, ``graph6_laplacians``, one ``eigvalsh``, ``spectrum_fault``,
``eps_rows``); ``spectrum`` and ``eps_profile`` are one-row views."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .graphs import (
    GRAPH6_MAX_N, Graph, degree_rows, graph6_pairs, graph6_strings, graph_bits, per_graph,
)

#: absolute eigenvalue tolerance for computed spectra
SPECTRUM_TOL = 1e-9
#: matrix entries per stacked ``eigvalsh`` call, and per scan work unit; it
#: bounds the working set of a scan process (see CHANGES.md for the
#: measurements behind the value)
STACK_ENTRIES = 1 << 16


class SpectralError(RuntimeError):
    """Eigensolver failure or a spectrum violating its structural invariants."""


@dataclass(frozen=True)
class Spectrum:
    """Laplacian eigenvalues sorted non-increasing."""

    values: tuple[float, ...]

    def validate(self, g: Graph):
        if len(self.values) != g.n:
            raise SpectralError(f"expected {g.n} eigenvalues, got {len(self.values)}")
        fault = spectrum_fault(np.array([self.values], dtype=float), np.array([g.m]))
        if fault is not None:
            raise SpectralError(fault[1])


def spectrum_fault(vals: np.ndarray, m: np.ndarray) -> tuple[int, str] | None:
    """The first spectrum of a stack that breaks a Laplacian invariant.

    ``vals`` holds one spectrum per row, non-increasing; ``m`` the edge counts.
    Each row must end in 0, sum to 2|E| and stay at most n. Returns the row
    and the reason of the first failure, or None when every row passes.
    """
    n = vals.shape[1]
    if n == 0:
        return None
    ntol = max(SPECTRUM_TOL * n, 1e-7)
    total = vals.cumsum(axis=1)[:, -1]
    smallest = np.abs(vals[:, -1]) > ntol
    wrong_sum = np.abs(total - 2 * m) > ntol
    largest = vals[:, 0] > n + ntol
    bad = (smallest | wrong_sum | largest).nonzero()[0]
    if not bad.size:
        return None
    i = int(bad[0])
    if smallest[i]:
        return i, f"smallest Laplacian eigenvalue {float(vals[i, -1])} != 0"
    if wrong_sum[i]:
        return i, f"eigenvalue sum {float(total[i])} != 2|E| = {2 * int(m[i])}"
    return i, f"largest eigenvalue {float(vals[i, 0])} exceeds n = {n}"


def stack_size(n: int) -> int:
    """Matrices of order n per stacked ``eigvalsh`` call: ``STACK_ENTRIES`` entries.

    Graphs on no vertex have an empty spectrum and take no entries.
    """
    return max(1, STACK_ENTRIES // max(1, n * n))


@cache
def _laplacian_positions(n: int) -> np.ndarray:
    """Flat positions of graph6's pairs (u, v), their (v, u) and the diagonal in n x n."""
    u, v = graph6_pairs(n).T
    return np.concatenate([u * n + v, v * n + u, np.arange(n) * (n + 1)])


def graph6_laplacians(n: int, bits: np.ndarray) -> np.ndarray:
    """(B, n, n) Laplacians of graphs on n vertices from their graph6 edge bit rows
    (``graphs.graph6_bits``, ``mask_bits`` or ``graph_bits``) by one flat-index
    assignment. Every entry starts as +0.0, an isolated vertex's diagonal too:
    LAPACK's Householder reflector takes the sign of its pivot, so a -0.0 (as
    ``-A`` writes for each non-edge) moves the last bit of eigenvalues."""
    off = np.where(bits, -1.0, 0.0)
    lap = np.zeros((len(bits), n * n))
    lap[:, _laplacian_positions(n)] = np.concatenate([off, off, degree_rows(n, bits)], axis=1)
    return lap.reshape(len(bits), n, n)


def graph6_spectra(n: int, bits: np.ndarray) -> np.ndarray:
    """Laplacian eigenvalues of graphs on n vertices given by their graph6 edge bits,
    B rows with B at most ``stack_size(n)``: the B ``graph6_laplacians`` go to one
    ``eigvalsh`` call. Row i of the result is graph i's spectrum, non-increasing."""
    try:
        vals = np.linalg.eigvalsh(graph6_laplacians(n, bits))
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigensolver failed: {exc}") from exc
    return vals[:, ::-1]


def checked_spectra(n: int, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge counts and ``graph6_spectra`` of a stack, each row checked by
    ``spectrum_fault``; a failed check raises the ``SpectralError`` that names
    the graph by its graph6 string, or by n and m past graph6's n <= 62."""
    ms = bits.sum(axis=1, dtype=np.int64)
    vals = graph6_spectra(n, bits)
    fault = spectrum_fault(vals, ms)
    if fault is not None:
        row, reason = fault
        name = f"graph with n={n}, m={int(ms[row])}"
        if n <= GRAPH6_MAX_N:
            name = f"graph6 {graph6_strings(n, bits[row : row + 1])[0]}"
        raise SpectralError(f"{name}: {reason}")
    return ms, vals


def eps_rows(ms: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Excess rows of a stack: entry (i, k-1) is the sum of the k largest
    eigenvalues of row i of ``vals`` (non-increasing) minus its edge count ``ms[i]``."""
    return vals.cumsum(axis=1) - ms[:, None]


def spectrum(g: Graph) -> Spectrum:
    """Laplacian eigenvalues, non-increasing: row 0 of ``checked_spectra``."""
    return Spectrum(tuple(checked_spectra(g.n, graph_bits(g)[None])[1][0].tolist()))


@dataclass(frozen=True)
class EpsProfile:
    """Excess values eps(k) = (sum of k largest Laplacian eigenvalues) - |E|.

    Stores eps for k = 1..n; ``value(k)`` applies the k > n convention,
    which returns |E|.
    """

    eps: tuple[float, ...]
    m: int

    @property
    def n(self) -> int:
        return len(self.eps)

    def value(self, k: int) -> float:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if k > self.n:
            return float(self.m)
        return self.eps[k - 1]


@per_graph
def eps_profile(g: Graph) -> EpsProfile:
    """Running-sum excess profile of the spectrum: row 0 of ``eps_rows``."""
    ms, vals = checked_spectra(g.n, graph_bits(g)[None])
    return EpsProfile(tuple(eps_rows(ms, vals)[0].tolist()), g.m)


def eps(g: Graph, k: int) -> float:
    """The excess eps_k(G); for k > n this is |E| by convention."""
    return eps_profile(g).value(k)
