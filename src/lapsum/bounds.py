"""Registry of eigenvalue-sum bounds and conjectures, and their evaluation.

Every bound compares the excess eps_k(G) against a right-hand side computed
from cheap integer invariants. RHS values are exact integers wherever the
formula allows; comparisons use a single absolute tolerance so eigenvalue
noise cannot manufacture counterexamples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graphs import Graph
from .spectral import eps_profile

#: a "violation" requires lhs - rhs > this threshold
VIOLATION_TOL = 1e-6
#: |slack| at or below this counts as an equality case; it is at most
#: VIOLATION_TOL, so an equality case is never a violation
EQUALITY_TOL = 1e-6
#: largest k evaluated: every integer formula stays within int64 up to it
K_MAX = 10**9


class MissingAuxError(KeyError):
    """evaluate_bound was not given a quantity its RHS needs."""

    def __init__(self, bound: str, key: str):
        super().__init__(f"bound {bound!r} requires aux quantity {key!r}")
        self.bound = bound
        self.key = key


@dataclass(frozen=True)
class BoundSpec:
    """A bound eps_k(G) <= rhs(m, k, aux) where ``applicable(m, k, aux)``.

    Both are array formulas over R graphs and K values of k that return an
    array broadcasting to (R, K): ``m`` is an (R, 1) int64 column of edge
    counts, ``k`` an int64 row, ``aux`` maps each quantity in ``needs`` to an
    (R, 1) int64 column (``conj_degrees`` to an (R, n) block). Integer
    formulas stay in int64 up to the one cast to float in ``rhs_table``.
    """

    tag: str
    needs: tuple[str, ...]
    rhs: Callable[[np.ndarray, np.ndarray, dict], np.ndarray]
    applicable: Callable[[np.ndarray, np.ndarray, dict], np.ndarray]
    conjecture: bool = False


@dataclass(frozen=True)
class BoundResult:
    tag: str
    k: int
    lhs: float
    rhs: float
    applicable: bool
    holds: bool
    slack: float


def _binom2(x):
    return x * (x - 1) // 2


def _always(m, k, aux):
    return True


def _bai(m, k, aux):
    """sum of the min(k, n) first conjugate degrees minus |E|, or |E| for k > n."""
    conj = aux["conj_degrees"]
    n = conj.shape[1]
    sums = np.zeros((len(conj), n + 1), dtype=np.int64)
    np.cumsum(conj, axis=1, out=sums[:, 1:])
    return np.where(k <= n, sums[:, np.minimum(k, n)] - m, m)


_REGISTRY: dict[str, BoundSpec] = {}


def _register(tag, needs, rhs, applicable=_always, conjecture=False):
    _REGISTRY[tag] = BoundSpec(tag, tuple(needs), rhs, applicable, conjecture)


_register("brouwer", (), lambda m, k, aux: _binom2(k + 1), conjecture=True)
_register("bai", ("conj_degrees",), _bai)
# k^2 + 15 k log k + 65 k, per k with math.log and left to right: np.log or
# another order may round differently, and reports keep their exact floats
_register(
    "weak-brouwer",
    (),
    lambda m, k, aux: np.array([j * j + 15 * j * math.log(j) + 65 * j for j in k.tolist()]),
)
_register("matching-thm", ("nu",), lambda m, k, aux: k * aux["nu"] + k // 2)
_register("matching-sq", (), lambda m, k, aux: 2 * k * k - (k + 1) // 2)
_register(
    "bipartite-sq",
    ("bipartite",),
    lambda m, k, aux: 2 * k * k - k,
    applicable=lambda m, k, aux: aux["bipartite"] != 0,
)
_register("cover", ("tau",), lambda m, k, aux: k * aux["tau"])
_register("star-arb", ("sa",), lambda m, k, aux: k * aux["sa"])
_register("half-component", ("n_prime",), lambda m, k, aux: k * aux["n_prime"] // 2)
_register(
    "conj-matching-improved",
    ("nu", "non_isolated"),
    lambda m, k, aux: k * aux["nu"],
    applicable=lambda m, k, aux: (1 <= k) & (k <= aux["non_isolated"] - 2),
    conjecture=True,
)
_register(
    "conj-cover",
    ("tau",),
    lambda m, k, aux: k * aux["tau"] - _binom2(aux["tau"]),
    applicable=lambda m, k, aux: k >= aux["tau"],
    conjecture=True,
)

BOUND_TAGS = tuple(_REGISTRY)
CONJECTURE_TAGS = tuple(t for t, s in _REGISTRY.items() if s.conjecture)
THEOREM_TAGS = tuple(t for t, s in _REGISTRY.items() if not s.conjecture)


def bound_spec(tag: str) -> BoundSpec:
    try:
        return _REGISTRY[tag]
    except KeyError:
        raise KeyError(f"unknown bound id {tag!r}") from None


def aux_requirements(tags) -> set[str]:
    out: set[str] = set()
    for t in tags:
        out.update(bound_spec(t).needs)
    return out


def rhs_table(spec: BoundSpec, m: np.ndarray, k: np.ndarray, aux: dict) -> np.ndarray:
    """The (R, K) right-hand sides of one bound, NaN where its side condition
    fails; arguments as in ``BoundSpec``."""
    table = np.full((len(m), len(k)), math.nan)
    np.copyto(table, spec.rhs(m, k, aux), where=spec.applicable(m, k, aux))
    return table


def verdict(slack):
    """(violation, equality) of a check with slack = rhs - lhs.

    A NaN slack, a bound whose side condition fails, is neither. Works
    elementwise on numpy arrays as well as on floats.
    """
    return slack < -VIOLATION_TOL, abs(slack) <= EQUALITY_TOL


def evaluate_bound(tag: str, g: Graph, k: int, aux: dict) -> BoundResult:
    """Evaluate one bound at one k.

    ``aux`` must supply every quantity the RHS needs (``nu``, ``tau``, ``sa``,
    ``n_prime``, ``conj_degrees``, ``bipartite``, ``non_isolated`` as
    applicable); eps_k is read from ``eps_profile(g)``. A bound whose side
    condition fails reports applicable=False with holds vacuously True.
    """
    if not 1 <= k <= K_MAX:
        raise ValueError(f"k must be in 1..{K_MAX}, got {k}")
    spec = bound_spec(tag)
    for key in spec.needs:
        if key not in aux:
            raise MissingAuxError(tag, key)
    lhs = eps_profile(g).value(k)
    cols = {key: np.array(aux[key], dtype=np.int64).reshape(1, -1) for key in spec.needs}
    m = np.array([[g.m]], dtype=np.int64)
    rhs = float(rhs_table(spec, m, np.array([k], dtype=np.int64), cols)[0, 0])
    if math.isnan(rhs):
        return BoundResult(tag, k, lhs, math.nan, False, True, math.nan)
    slack = rhs - lhs
    return BoundResult(tag, k, lhs, rhs, True, not verdict(slack)[0], slack)
