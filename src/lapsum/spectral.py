"""Laplacian matrices, spectra, and the eigenvalue-sum excess profile."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, graph6_pairs, graph6_strings

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
        vals = np.array(self.values, dtype=float).reshape(1, g.n)
        fault = spectrum_fault(vals, np.array([g.m]))
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
    total = np.cumsum(vals, axis=1)[:, -1]
    smallest = np.abs(vals[:, -1]) > ntol
    wrong_sum = np.abs(total - 2 * m) > ntol
    largest = vals[:, 0] > n + ntol
    bad = np.flatnonzero(smallest | wrong_sum | largest)
    if not bad.size:
        return None
    i = int(bad[0])
    if smallest[i]:
        return i, f"smallest Laplacian eigenvalue {float(vals[i, -1])} != 0"
    if wrong_sum[i]:
        return i, f"eigenvalue sum {float(total[i])} != 2|E| = {2 * int(m[i])}"
    return i, f"largest eigenvalue {float(vals[i, 0])} exceeds n = {n}"


def laplacian(g: Graph) -> np.ndarray:
    """Dense Laplacian: degree diagonal, -1 at edges."""
    L = np.zeros((g.n, g.n))
    for u, v in g.edges:
        L[u, v] = L[v, u] = -1.0
        L[u, u] += 1.0
        L[v, v] += 1.0
    return L


def spectrum(g: Graph) -> Spectrum:
    """Eigenvalues of the Laplacian, sorted non-increasing."""
    if g.n == 0:
        return Spectrum(())
    try:
        vals = np.linalg.eigvalsh(laplacian(g))
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigensolver failed: {exc}") from exc
    spec = Spectrum(tuple(float(x) for x in vals[::-1]))
    spec.validate(g)
    return spec


def stack_size(n: int) -> int:
    """Matrices of order n per stacked ``eigvalsh`` call: ``STACK_ENTRIES`` entries.

    Graphs on no vertex have an empty spectrum and take no entries.
    """
    return max(1, STACK_ENTRIES // max(1, n * n))


def graph6_spectra(n: int, bits: np.ndarray) -> np.ndarray:
    """Laplacian eigenvalues of graphs on n vertices given by their graph6 edge bits.

    ``bits`` is a (B, C(n,2)) array in graph6 order, from ``graphs.graph6_bits``
    or ``graphs.mask_bits``, with B at most ``stack_size(n)``; the B Laplacians
    go to one ``eigvalsh`` call. Row i of the result is graph i's spectrum,
    non-increasing.

    Every entry starts as +0.0, the diagonal of an isolated vertex included:
    LAPACK's Householder reflector takes the sign of its pivot, so a -0.0
    (as ``-A`` writes for each non-edge) moves the last bit of eigenvalues.
    """
    if n == 0:
        return np.empty((len(bits), 0))
    pairs = graph6_pairs(n)
    u, v = pairs[:, 0], pairs[:, 1]
    off = np.where(bits, -1.0, 0.0)
    lap = np.zeros((len(bits), n, n))
    lap[:, u, v] = off
    lap[:, v, u] = off
    diag = np.arange(n)
    lap[:, diag, diag] = np.count_nonzero(lap, axis=2)
    try:
        vals = np.linalg.eigvalsh(lap)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigensolver failed: {exc}") from exc
    return vals[:, ::-1]


def checked_spectra(n: int, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge counts and ``graph6_spectra`` of a stack, each row checked by
    ``spectrum_fault``; a failed check raises the ``SpectralError`` that names
    the graph by its graph6 string."""
    ms = bits.sum(axis=1, dtype=np.int64)
    vals = graph6_spectra(n, bits)
    fault = spectrum_fault(vals, ms)
    if fault is not None:
        row, reason = fault
        raise SpectralError(f"graph6 {graph6_strings(n, bits[row : row + 1])[0]}: {reason}")
    return ms, vals


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


def eps_profile(g: Graph, spec: Spectrum | None = None) -> EpsProfile:
    """Running-sum excess profile of the spectrum."""
    if spec is None:
        spec = spectrum(g)
    running = 0.0
    out = []
    for lam in spec.values:
        running += lam
        out.append(running - g.m)
    return EpsProfile(tuple(out), g.m)


def eps(g: Graph, k: int) -> float:
    """The excess eps_k(G); for k > n this is |E| by convention."""
    return eps_profile(g).value(k)
