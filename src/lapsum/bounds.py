"""Registry of eigenvalue-sum bounds and conjectures, and their evaluation.

Every bound compares the excess eps_k(G) against a right-hand side computed
from cheap integer invariants. RHS values are exact integers wherever the
formula allows; comparisons use a single absolute tolerance so eigenvalue
noise cannot manufacture counterexamples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .graphs import Graph
from .spectral import EpsProfile, eps_profile

#: a "violation" requires lhs - rhs > this threshold
VIOLATION_TOL = 1e-6
#: |slack| at or below this counts as an equality case; it is at most
#: VIOLATION_TOL, so an equality case is never a violation
EQUALITY_TOL = 1e-6


class MissingAuxError(KeyError):
    """evaluate_bound was not given a quantity its RHS needs."""

    def __init__(self, bound: str, key: str):
        super().__init__(f"bound {bound!r} requires aux quantity {key!r}")
        self.bound = bound
        self.key = key


class GraphSize(NamedTuple):
    """All a bound's formulas read of the graph itself."""

    n: int
    m: int


@dataclass(frozen=True)
class BoundSpec:
    """A bound eps_k(G) <= rhs(size, k, aux) where ``applicable(size, k, aux)``.

    Both formulas read only ``size`` (n and |E|), k and the aux quantities
    named in ``needs``.
    """

    tag: str
    needs: tuple[str, ...]
    rhs: Callable[[GraphSize, int, dict], float]
    applicable: Callable[[GraphSize, int, dict], bool]
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


def _binom2(x: int) -> int:
    return x * (x - 1) // 2


def _always(g, k, aux):
    return True


_REGISTRY: dict[str, BoundSpec] = {}


def _register(tag, needs, rhs, applicable=_always, conjecture=False):
    _REGISTRY[tag] = BoundSpec(tag, tuple(needs), rhs, applicable, conjecture)


_register("brouwer", (), lambda g, k, aux: _binom2(k + 1), conjecture=True)

_register(
    "bai",
    ("conj_degrees",),
    lambda g, k, aux: sum(aux["conj_degrees"][: min(k, g.n)]) - g.m
    if k <= g.n
    else g.m,
)

_register(
    "weak-brouwer",
    (),
    lambda g, k, aux: k * k + 15 * k * math.log(k) + 65 * k,
)

_register("matching-thm", ("nu",), lambda g, k, aux: k * aux["nu"] + k // 2)

_register("matching-sq", (), lambda g, k, aux: 2 * k * k - (k + 1) // 2)

_register(
    "bipartite-sq",
    ("bipartite",),
    lambda g, k, aux: 2 * k * k - k,
    applicable=lambda g, k, aux: bool(aux["bipartite"]),
)

_register("cover", ("tau",), lambda g, k, aux: k * aux["tau"])

_register("star-arb", ("sa",), lambda g, k, aux: k * aux["sa"])

_register(
    "half-component",
    ("n_prime",),
    lambda g, k, aux: (k * aux["n_prime"]) // 2,
)

_register(
    "conj-matching-improved",
    ("nu", "non_isolated"),
    lambda g, k, aux: k * aux["nu"],
    applicable=lambda g, k, aux: 1 <= k <= aux["non_isolated"] - 2,
    conjecture=True,
)

_register(
    "conj-cover",
    ("tau",),
    lambda g, k, aux: k * aux["tau"] - _binom2(aux["tau"]),
    applicable=lambda g, k, aux: k >= aux["tau"],
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


def bound_rhs(spec: BoundSpec, size: GraphSize, k: int, aux: dict) -> float:
    """The right-hand side at k, or NaN where the bound's side condition fails."""
    if not spec.applicable(size, k, aux):
        return math.nan
    return float(spec.rhs(size, k, aux))


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
    applicable); an ``eps`` EpsProfile entry is used when present, otherwise
    the spectrum is computed here. A bound whose side condition fails reports
    applicable=False with holds vacuously True.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    spec = bound_spec(tag)
    for key in spec.needs:
        if key not in aux:
            raise MissingAuxError(tag, key)
    prof = aux.get("eps")
    if prof is None:
        prof = eps_profile(g)
    elif not isinstance(prof, EpsProfile):
        raise TypeError("aux['eps'] must be an EpsProfile")
    lhs = prof.value(k)
    rhs = bound_rhs(spec, GraphSize(g.n, g.m), k, aux)
    if math.isnan(rhs):
        return BoundResult(tag, k, lhs, math.nan, False, True, math.nan)
    slack = rhs - lhs
    return BoundResult(tag, k, lhs, rhs, True, not verdict(slack)[0], slack)
