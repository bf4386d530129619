"""Bound scans over graph sources, tightness probes, and report serialization.

A scan spreads the work units of its source round-robin over this process
and its workers; each process folds its units into one partial report whose
records carry their place in the source, and the merge sorts them on it:
reports are byte-identical across worker counts (the ``runtime_ms`` field is
the only nondeterministic entry). Scans and probes read one route: each stack
of graphs on one n becomes a (bound, graph, k) table of stacked spectra, aux
columns shared by all requested bounds, and right-hand sides; a work unit is
one stack per n, and a probe's stack is one family graph. Only ``_tasks`` and
``_stacks`` know the two unit shapes. An exact invariant over its size cap
becomes a "skipped" record of the bounds that need it, instead of aborting
the run. ``spectrum_rows`` walks the same work units and stacks for the
spectra alone.

An all-labeled scan reads spectra per isomorphism class: before any worker
starts, ``_class_spectra`` labels every edge mask with its class
(``labeled_classes``) and computes the representatives' checked spectra, and
each process gets that table once. A unit's rows take their class spectrum,
and only the rows whose float the report reads (``_read_rows``) get their
own; aux columns stay per graph.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bounds import K_MAX, aux_requirements, bound_spec, rhs_table, verdict
from .graphs import (
    AlgorithmError,
    FamilyId,
    Graph6Error,
    GraphSource,
    SizeCapError,
    all_labeled_count,
    bits_graph,
    components_info,
    conjugate_rows,
    degree_rows,
    encode_graph6,
    graph6_bits,
    graph6_order,
    graph6_stream,
    graph6_strings,
    graph_bits,
    is_bipartite,
    labeled_classes,
    make_family,
    mask_bits,
    mask_rows,
)
from .spectral import STACK_ENTRIES, checked_spectra, eps_rows, stack_size

#: equality examples recorded per (bound, k); totals are always exact
EQUALITY_EXAMPLE_CAP = 10
#: distance from a verdict edge or a reported extreme within which a class
#: spectrum does not stand in for a graph's own, and the largest difference
#: allowed between the two: eigvalsh's backward error is about n * eps * |L|,
#: below 1e-13 for n <= 7
MARGIN = 1e-9


@dataclass(frozen=True)
class KRange:
    """Which k values a scan evaluates per graph.

    modes: ``all`` (1..n), ``list`` (fixed values, k > n allowed when asked
    for explicitly; a repeated value counts once, at its first place),
    ``nminus2`` (1..n-2, the improved-matching regime).
    """

    mode: str = "all"
    ks: tuple[int, ...] = ()

    def __post_init__(self):
        if self.mode not in ("all", "list", "nminus2"):
            raise ValueError(f"unknown k-range mode {self.mode!r}")
        if self.mode == "list":
            if not self.ks:
                raise ValueError("list k-range needs at least one value")
            if not all(1 <= k <= K_MAX for k in self.ks):
                raise ValueError(f"k values must be in 1..{K_MAX}")
            object.__setattr__(self, "ks", tuple(dict.fromkeys(self.ks)))

    def values(self, n: int) -> tuple[int, ...]:
        if self.mode == "all":
            return tuple(range(1, n + 1))
        if self.mode == "nminus2":
            return tuple(range(1, max(n - 1, 1)))
        return self.ks


def parse_krange(text: str) -> KRange:
    text = text.strip().lower()
    if text == "all":
        return KRange("all")
    if text == "nminus2":
        return KRange("nminus2")
    try:
        ks = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"bad k range {text!r}; expected 'all', 'nminus2' or a list like 1,2,3") from None
    return KRange("list", ks)


@dataclass
class BoundKAggregate:
    checked: int = 0
    violations: int = 0
    equalities: int = 0
    min_slack: float = math.inf

    def add(self, other: BoundKAggregate):
        """Fold in the counts of more checks (a NaN ``min_slack`` is skipped)."""
        self.checked += other.checked
        self.violations += other.violations
        self.equalities += other.equalities
        if other.min_slack < self.min_slack:
            self.min_slack = other.min_slack

    def to_row(self, tag: str, k: int) -> dict:
        return {
            "bound": tag,
            "k": k,
            "checked": self.checked,
            "violations": self.violations,
            "equalities": self.equalities,
            "min_slack": None if self.min_slack == math.inf else self.min_slack,
        }


@dataclass
class ScanReport:
    source: str
    bounds: tuple[str, ...]
    graphs: int = 0
    checks: int = 0
    aggregates: dict[tuple[str, int], BoundKAggregate] = field(default_factory=dict)
    violations: list[dict] = field(default_factory=list)
    equality_examples: list[dict] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)
    max_eps_over_k2: float = -math.inf
    runtime_ms: int = 0

    def add(self, other: ScanReport):
        """Fold in the counts, aggregates and records of another report."""
        self.graphs += other.graphs
        self.checks += other.checks
        for key, agg in other.aggregates.items():
            self.aggregates.setdefault(key, BoundKAggregate()).add(agg)
        self.violations += other.violations
        self.equality_examples += other.equality_examples
        self.skipped += other.skipped
        self.max_eps_over_k2 = max(self.max_eps_over_k2, other.max_eps_over_k2)

    @property
    def violation_count(self) -> int:
        return sum(a.violations for a in self.aggregates.values())

    def to_json_dict(self) -> dict:
        rows = [self.aggregates[key].to_row(*key) for key in sorted(self.aggregates)]
        return {
            "schema": 1,
            "source": self.source,
            "bounds": list(self.bounds),
            "totals": {
                "graphs": self.graphs,
                "checks": self.checks,
                "violations": self.violation_count,
                "equalities": sum(a.equalities for a in self.aggregates.values()),
                "skipped": len(self.skipped),
                "max_eps_over_k2": None
                if self.max_eps_over_k2 == -math.inf
                else self.max_eps_over_k2,
                "per_bound_k": rows,
            },
            "violations": self.violations,
            "equalities": self.equality_examples,
            "skipped": self.skipped,
            "runtime_ms": self.runtime_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_csv(self) -> str:
        lines = ["bound,k,checked,violations,equalities,min_slack"]
        for key in sorted(self.aggregates):
            r = self.aggregates[key].to_row(*key)
            slack = "" if r["min_slack"] is None else repr(r["min_slack"])
            lines.append(
                f"{r['bound']},{r['k']},{r['checked']},{r['violations']},"
                f"{r['equalities']},{slack}"
            )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Chunk evaluation

def _aux_columns(n: int, bits: np.ndarray, needs: set[str]):
    """The aux columns of graphs on n vertices given by their edge bit rows,
    as ``BoundSpec`` formulas read them, and the rows that lack a quantity.

    ``conj_degrees`` and ``non_isolated`` come from the degree rows, the rest
    from one Graph per row; ν is computed whenever ν or τ is needed, and τ
    reads the same maximum matching, memoized on the Graph. The exact τ and
    sa own their size caps: the ``SizeCapError`` one of them raises skips
    that quantity alone. Returns ``(cols, missing)``: int64 columns ((R, n)
    for ``conj_degrees``), 0 where a row lacks the quantity, and per row the
    skip reason of each quantity it lacks.
    """
    cols, missing = {}, {}
    if "conj_degrees" in needs or "non_isolated" in needs:
        degs = degree_rows(n, bits)
        if "conj_degrees" in needs:
            cols["conj_degrees"] = conjugate_rows(degs)
        if "non_isolated" in needs:
            cols["non_isolated"] = (degs > 0).sum(axis=1, dtype=np.int64)[:, None]
    if "tau" in needs:
        needs = needs | {"nu"}
    # the matching and decomposition layers load only for a scan that needs them
    if "nu" in needs:
        from .matching import matching_number, min_vertex_cover
    if "sa" in needs:
        from .decomposition import star_arboricity_exact
    keys = [q for q in ("bipartite", "n_prime", "nu", "tau", "sa") if q in needs]
    values = np.zeros((len(bits), len(keys)), dtype=np.int64)
    for i in range(len(bits)) if keys else ():
        g = bits_graph(n, bits[i])
        row, lacks = {}, {}
        if "bipartite" in needs:
            row["bipartite"] = is_bipartite(g)
        if "n_prime" in needs:
            row["n_prime"] = components_info(g)[1]
        if "nu" in needs:
            row["nu"] = nu = matching_number(g)
        if "tau" in needs:
            try:
                row["tau"] = len(min_vertex_cover(g))
            except SizeCapError:
                lacks["tau"] = f"nu={nu} exceeds exact-cover cap"
        if "sa" in needs:
            try:
                row["sa"] = star_arboricity_exact(g)[0]
            except SizeCapError:
                lacks["sa"] = f"|E|={g.m} exceeds exact star-arboricity cap"
        values[i] = [row.get(q, 0) for q in keys]
        if lacks:
            missing[i] = lacks
    cols.update((q, values[:, j : j + 1]) for j, q in enumerate(keys))
    return cols, missing


@dataclass
class _Table:
    """The (bound, graph, k) checks of a stack of graphs on one n: ``lhs`` is
    (R, K), ``rhs`` (B, R, K) and NaN where a bound is not applicable or is
    skipped; ``missing`` holds per row the skip reason of each aux quantity
    over its exact cap, which skips the bounds that need it and no other;
    ``checked`` counts the graphs per bound, ``skips`` lists (row, bound
    index, reason)."""

    ms: np.ndarray
    vals: np.ndarray
    eps: np.ndarray
    lhs: np.ndarray
    cols: dict
    missing: dict
    rhs: np.ndarray
    checked: list
    skips: list


def _table(n: int, bits: np.ndarray, bounds, ks, class_vals=None) -> _Table:
    """Edge counts, checked spectra (rows non-increasing), eps rows, aux
    columns, per-bound skips and right-hand sides of graphs on n vertices
    given by their edge bit rows, at the k values ``ks``.

    ``class_vals``, when given, holds each row's class spectrum: rows keep it
    unless ``_read_rows`` marks them, and a marked row's own checked spectrum
    replaces it. One that differs from its class's by more than MARGIN raises
    ``AlgorithmError``, so a wrong class cannot pass unseen on a marked row.
    """
    if class_vals is None:
        ms, vals = checked_spectra(n, bits)
    else:
        ms, vals = bits.sum(axis=1, dtype=np.int64), class_vals
    k_arr = np.array(ks, dtype=np.int64)
    eps, lhs = _lhs(n, ms, vals, k_arr)
    cols, missing = _aux_columns(n, bits, aux_requirements(bounds))
    rhs = np.full((len(bounds), len(bits), len(ks)), math.nan)
    checked, skips = [], []
    for b, tag in enumerate(bounds):
        spec = bound_spec(tag)
        rows = np.ones(len(bits), dtype=bool)
        for i, lacks in missing.items():
            reasons = [lacks[q] for q in spec.needs if q in lacks]
            if reasons:
                rows[i] = False
                skips.append((i, b, reasons[0]))
        if rows.any():
            np.copyto(rhs[b], rhs_table(spec, ms[:, None], k_arr, cols), where=rows[:, None])
        checked.append(int(rows.sum()))
    if class_vals is not None:
        read = np.flatnonzero(_read_rows(lhs, rhs, k_arr))
        vals = vals.copy()
        vals[read] = _own_spectra(n, bits[read], vals[read])
        eps[read], lhs[read] = _lhs(n, ms[read], vals[read], k_arr)
    return _Table(ms, vals, eps, lhs, cols, missing, rhs, checked, skips)


def _own_spectra(n: int, bits: np.ndarray, class_vals: np.ndarray) -> np.ndarray:
    """The checked spectra of graphs on n vertices given by their edge bit
    rows; one that differs from its class spectrum in ``class_vals`` by more
    than MARGIN raises ``AlgorithmError`` naming the graph."""
    vals = checked_spectra(n, bits)[1]
    drift = np.abs(vals - class_vals).max(axis=1, initial=0.0)
    over = np.flatnonzero(drift > MARGIN)
    if over.size:
        i = int(over[0])
        raise AlgorithmError(
            f"graph6 {graph6_strings(n, bits[i : i + 1])[0]}: spectrum differs from its "
            f"isomorphism class's by {float(drift[i])} > MARGIN = {MARGIN}"
        )
    return vals


def _lhs(n: int, ms: np.ndarray, vals: np.ndarray, k_arr: np.ndarray):
    """The eps rows of spectra ``vals`` with edge counts ``ms``, and their
    left-hand sides at the k values ``k_arr``: eps_k, or |E| for k > n."""
    eps = eps_rows(ms, vals)
    lhs = np.repeat(ms[:, None].astype(float), len(k_arr), axis=1)
    lhs[:, k_arr <= n] = eps[:, k_arr[k_arr <= n] - 1]
    return eps, lhs


def _read_rows(lhs: np.ndarray, rhs: np.ndarray, k_arr: np.ndarray) -> np.ndarray:
    """The rows of a stack whose float a scan report reads, from stand-in
    left-hand sides that are within MARGIN of the rows' own: each row that is
    a violation or an equality of some (bound, k) after a shift of its slack
    by MARGIN either way, or lies within MARGIN of the stack's least slack
    of some (bound, k) or of its largest eps/k^2.

    The verdicts and extremes of the other rows cannot change when their own
    floats take the stand-ins' place.
    """
    slack = rhs - lhs
    read = np.zeros(len(lhs), dtype=bool)
    for shift in (-MARGIN, MARGIN):
        violated, equal = verdict(slack + shift)
        read |= (violated | equal).any(axis=(0, 2))
    if read.all():  # a theorem scan: bai's k = n check is the trace identity
        return read
    least = np.fmin.reduce(slack, axis=1, keepdims=True)
    read |= (slack <= least + MARGIN).any(axis=(0, 2))
    if k_arr.size:
        ratio = lhs / k_arr**2
        read |= (ratio >= ratio.max() - MARGIN).any(axis=1)
    return read


def _witness_record(check: dict, t: _Table, i: int) -> dict:
    """Full serialized witness of row i: graph, spectrum, and every aux value
    computed for it, typed as the per-graph functions return them."""
    rec = {"graph6": check["graph6"], "n": t.vals.shape[1], "m": int(t.ms[i])}
    rec.update((key, check[key]) for key in ("bound", "k", "lhs", "rhs", "slack"))
    rec["spectrum"] = t.vals[i].tolist()
    invariants = {"eps_profile": t.eps[i].tolist()}
    for key, col in t.cols.items():
        if key not in t.missing.get(i, {}):
            value = col[i].tolist()
            if key != "conj_degrees":
                value = bool(value[0]) if key == "bipartite" else value[0]
            invariants[key] = value
    rec.update((key, invariants[key]) for key in sorted(invariants))
    return rec


def _scan_group(unit, n, bits, positions, class_vals, bounds, krange, report, kept):
    """Evaluate the bounds on graphs with one n of work unit ``unit``, given by
    their edge bit rows and, for a mask range, their class spectra (see
    ``_table``), into the partial ``report``; records go in keyed by (unit
    index, position in the unit, bound index, k index).

    Equality examples beyond the first EQUALITY_EXAMPLE_CAP per (n, bound, k)
    of the units a process runs are counted but not recorded; ``kept`` maps n
    to the examples recorded so far per (bound, k). graph6 strings are encoded
    only for the rows of records.
    """
    ks = krange.values(n)
    t = _table(n, bits, bounds, ks, class_vals)
    lhs, rhs = t.lhs, t.rhs
    if ks:
        ratio = (lhs / (np.array(ks, dtype=np.int64) ** 2)).max()
        report.max_eps_over_k2 = max(report.max_eps_over_k2, float(ratio))
    report.checks += sum(t.checked) * len(ks)
    slack = rhs - lhs
    violated, equal = verdict(slack)
    nviol = violated.sum(axis=1).tolist()
    neq = equal.sum(axis=1).tolist()
    least = np.fmin.reduce(slack, axis=1).tolist()  # NaN: nothing applicable
    for b, tag in enumerate(bounds):
        if not t.checked[b]:
            continue
        for j, k in enumerate(ks):
            report.aggregates.setdefault((tag, k), BoundKAggregate()).add(
                BoundKAggregate(t.checked[b], nviol[b][j], neq[b][j], least[b][j])
            )
    kept_n = kept.setdefault(n, np.zeros((len(bounds), len(ks)), dtype=np.int64))
    equal &= np.cumsum(equal, axis=1) + kept_n[:, None, :] <= EQUALITY_EXAMPLE_CAP
    kept_n += equal.sum(axis=1)
    hits = {
        "violations": np.flatnonzero(violated).tolist(),
        "equalities": np.flatnonzero(equal).tolist(),
    }
    per_bound = len(bits) * len(ks)
    named = {i for i, _, _ in t.skips}
    named.update(flat % per_bound // len(ks) for flats in hits.values() for flat in flats)
    named = sorted(named)
    g6 = dict(zip(named, graph6_strings(n, bits[named])))
    for i, b, reason in t.skips:
        report.skipped.append(
            ((unit, positions[i], b, 0), {"graph6": g6[i], "bound": bounds[b], "reason": reason})
        )
    for kind, flats in hits.items():
        for flat in flats:
            b, rest = divmod(flat, per_bound)
            i, j = divmod(rest, len(ks))
            check = {
                "graph6": g6[i],
                "bound": bounds[b],
                "k": ks[j],
                "lhs": float(lhs[i, j]),
                "rhs": float(rhs[b, i, j]),
                "slack": float(slack[b, i, j]),
            }
            if kind == "violations":
                report.violations.append(((unit, positions[i], b, j), _witness_record(check, t, i)))
            else:
                report.equality_examples.append(((unit, positions[i], b, j), check))


def _stacks(work, classes=None):
    """The stacks of one work unit: an (n, lo, hi) range of all-labeled edge
    masks, or a list of validated graph6 strings.

    The graphs are grouped by n, one stack per group, so one stacked eigvalsh
    call each; ``_tasks`` cutting units at each change of n instead makes
    one-graph units of interleaved input (brouwer scans, ``--jobs 1``, best of
    3 on a 2-CPU VM: 20,000 lines alternating n = 5 and 6 took 0.12 s grouped,
    3.6-3.9 s cut; 40 runs of 500 graphs 0.12 s and 0.09-0.12 s). ``_tasks``
    alone applies the entry budget: a unit from it holds at most STACK_ENTRIES
    entries, which also bounds each stack's other arrays. Yields ``(n, bits,
    positions, class_vals)``: the edge bit rows, per row the graph's index in
    the unit, and, for a mask range given the scan's ``_ClassSpectra``, the
    rows' class spectra (else None).
    """
    if isinstance(work, tuple):
        n, lo, hi = work
        class_vals = None if classes is None else classes.vals[classes.class_of[lo:hi]]
        yield n, mask_bits(n, lo, hi), range(hi - lo), class_vals
        return
    groups: dict[int, list[int]] = {}
    for pos, g6 in enumerate(work):
        groups.setdefault(graph6_order(g6), []).append(pos)
    for n, positions in groups.items():
        yield n, graph6_bits([work[p] for p in positions]), positions, None


@dataclass(frozen=True)
class _ClassSpectra:
    """The isomorphism class index of every edge mask on n vertices, and the
    (C, n) checked spectra of the classes' least masks, in class order."""

    class_of: np.ndarray
    vals: np.ndarray


def _class_spectra(n: int) -> _ClassSpectra:
    """``labeled_classes(n)`` and its representatives' checked spectra, one
    stacked eigvalsh call: for n <= 7 the 1,044 or fewer classes fit one
    ``stack_size(n)``."""
    reps, class_of = labeled_classes(n)
    return _ClassSpectra(class_of, checked_spectra(n, mask_rows(n, reps))[1])


class _Plan(NamedTuple):
    """What every unit of one scan reads: the bounds, the k range, and the
    ``_ClassSpectra`` of an all-labeled source (None for any other)."""

    bounds: tuple[str, ...]
    krange: KRange
    classes: _ClassSpectra | None


def _scan_chunk(unit, work, plan, kept):
    """The partial report (no source, no runtime) of work unit number ``unit``
    over its stacks, with a process's ``kept`` (see ``_scan_group``). A Graph
    is built only where a bound needs an invariant beyond the degree rows."""
    report = ScanReport("", plan.bounds)
    for n, bits, positions, class_vals in _stacks(work, plan.classes):
        _scan_group(unit, n, bits, positions, class_vals, plan.bounds, plan.krange, report, kept)
        report.graphs += len(bits)
    return report


def _first_examples(equalities) -> list[dict]:
    """The first EQUALITY_EXAMPLE_CAP equality examples per (bound, k)."""
    counts, kept = {}, []
    for eq in equalities:
        key = (eq["bound"], eq["k"])
        counts[key] = counts.get(key, 0) + 1
        if counts[key] <= EQUALITY_EXAMPLE_CAP:
            kept.append(eq)
    return kept


def _tasks(src: GraphSource):
    """The work units of a scan in source order: (n, lo, hi) edge-mask ranges
    for an all-labeled source, lists of graph6 strings for any other. This is
    the one place the entry budget is applied: a unit holds at most
    STACK_ENTRIES matrix entries, unless it is a single graph, so it is one
    stacked eigvalsh call per n."""
    if src.kind == "all-labeled":
        total = all_labeled_count(src.n)
        step = stack_size(src.n)
        return [(src.n, lo, min(lo + step, total)) for lo in range(0, total, step)]
    return _graph6_tasks(graph6_stream(src))


def _graph6_tasks(g6_stream):
    """Consecutive graph6 strings cut greedily at STACK_ENTRIES entries. A
    malformed string ends the units: the strings before it form the last
    one, and then its ``Graph6Error`` is raised."""
    task, entries = [], 0
    try:
        for g6 in g6_stream:
            cost = max(1, graph6_order(g6) ** 2)
            if task and entries + cost > STACK_ENTRIES:
                yield task
                task, entries = [], 0
            task.append(g6)
            entries += cost
    except Graph6Error:
        if task:
            yield task
        raise
    if task:
        yield task


def _fold(units, plan):
    """One partial report of the (unit index, work unit) pairs ``units``, and
    the failure that ends it early: (unit index, exception), or None."""
    report, kept = ScanReport("", plan.bounds), {}
    for index, work in units:
        try:
            report.add(_scan_chunk(index, work, plan, kept))
        except Exception as exc:
            return report, (index, exc)
    return report, None


def _worker(conn, plan):
    """A scan worker: the ``_fold`` of the (unit index, work unit) pairs that
    arrive on ``conn`` until None, sent back in one message. After a failed
    unit, the rest of the input is read and dropped."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops its workers
    units = iter(conn.recv, None)
    share = _fold(units, plan)
    for _ in units:
        pass
    conn.send(share)


def _start_worker(plan):
    """A started ``_worker`` process of the default multiprocessing context,
    and this process's end of its pipe; the worker gets ``plan``, its class
    table too, once, at its start."""
    import multiprocessing

    conn, child_conn = multiprocessing.Pipe()
    proc = multiprocessing.Process(target=_worker, args=(child_conn, plan), daemon=True)
    proc.start()
    child_conn.close()
    return proc, conn


def _shares(tasks, plan, jobs):
    """Run the work units in at most ``jobs`` processes: this one and one
    worker per unit read ahead but the last, so a one-unit source starts none.

    Units go round-robin in rounds of one per process; this process takes the
    last unit of each round, after sending the round's other units down the
    workers' pipes. Returns the ``_fold`` pair of each worker and then of this
    process. The source's own error comes after its last unit, so it is this
    process's failure at index ``math.inf``. The workers are stopped and
    joined whatever happens.
    """
    units = enumerate(tasks)
    head, error = [], None
    try:
        while len(head) < jobs and (unit := next(units, None)) is not None:
            head.append(unit)
    except Exception as exc:
        units, error = iter(()), exc
    procs = max(len(head), 1)
    workers = []

    def own_units():
        for index, work in itertools.chain(head, units):
            if index % procs < procs - 1:
                workers[index % procs][1].send((index, work))
            else:
                yield index, work
        if error is not None:
            raise error

    try:
        for _ in range(procs - 1):
            workers.append(_start_worker(plan))
        try:
            own = _fold(own_units(), plan)
        except Exception as exc:  # the source's own error, or a closed worker pipe
            own = ScanReport("", plan.bounds), (math.inf, exc)
        for _, conn in workers:
            conn.send(None)
        shares = []
        for proc, conn in workers:
            try:
                shares.append(conn.recv())
            except EOFError:
                raise RuntimeError(f"scan worker {proc.pid} exited without its report") from None
        for proc, _ in workers:
            proc.join()
    finally:
        for proc, conn in workers:
            conn.close()
            proc.terminate()  # a no-op once the worker is joined
            proc.join()
    return [*shares, own]


def scan(
    src: GraphSource,
    bounds,
    ks: KRange | None = None,
    jobs: int = 1,
) -> ScanReport:
    """Evaluate the requested bounds over every graph of the source, in at
    most ``jobs`` processes (see ``_shares``). An all-labeled source's class
    table is built here, once per call, before any worker starts.

    Records are sorted into source order, so the report and the failure that
    raises are those of jobs 1. Equality examples are capped per (bound, k) —
    the first few in source order — while the aggregate counts stay exact.
    """
    bounds = tuple(bounds)
    if not bounds:
        raise ValueError("bounds must be non-empty")
    for tag in bounds:
        bound_spec(tag)  # validates the id early
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    krange = ks or KRange("all")
    start = time.monotonic()
    report = ScanReport(src.describe(), bounds)
    tasks = _tasks(src)
    classes = _class_spectra(src.n) if src.kind == "all-labeled" else None
    shares = _shares(tasks, _Plan(bounds, krange, classes), jobs)
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    for share, _ in shares:
        report.add(share)
    for records in (report.violations, report.equality_examples, report.skipped):
        records.sort(key=lambda item: item[0])
        records[:] = [rec for _, rec in records]
    report.equality_examples = _first_examples(report.equality_examples)
    report.runtime_ms = int((time.monotonic() - start) * 1000)
    return report


def spectrum_rows(src: GraphSource):
    """CSV rows ``graph6,n,m,eigenvalues...`` of the graphs of a source, one
    string per scan work unit, in source order.

    The eigenvalues are the stacked, checked spectra a scan computes, equal
    to ``spectrum(g).values``; each graph is named by ``graph6_strings`` of its
    bit row, a graph6 line by itself (a validated line re-encodes to itself).
    """
    for work in _tasks(src):
        rows = {}
        for n, bits, positions, _ in _stacks(work):
            ms, vals = checked_spectra(n, bits)
            names = graph6_strings(n, bits)
            for pos, g6, m, row in zip(positions, names, ms.tolist(), vals.tolist()):
                rows[pos] = ",".join([g6, str(n), str(m), *map(repr, row)]) + "\n"
        yield "".join(rows[pos] for pos in sorted(rows))


# ---------------------------------------------------------------------------
# Tightness probes

@dataclass(frozen=True)
class ProbeRow:
    family: str
    graph6: str
    k: int
    lhs: float
    rhs: float
    slack: float
    applicable: bool

    @property
    def equality(self) -> bool:
        return self.applicable and bool(verdict(self.slack)[1])


def tightness_probe(families, bound: str, ks: KRange | None = None) -> list[ProbeRow]:
    """Slack table of one bound over a list of named family graphs, each
    checked as a one-row stack."""
    krange = ks or KRange("all")
    rows: list[ProbeRow] = []
    for fam in families:
        g = make_family(fam)
        label = str(fam) if isinstance(fam, FamilyId) else fam
        kvals = krange.values(g.n)
        t = _table(g.n, graph_bits(g)[None], (bound,), kvals)
        if t.missing:
            raise SizeCapError(f"probe of {label}: {'; '.join(t.missing[0].values())}")
        rows.extend(
            ProbeRow(label, encode_graph6(g), k, lhs, rhs, rhs - lhs, not math.isnan(rhs))
            for k, lhs, rhs in zip(kvals, t.lhs[0].tolist(), t.rhs[0, 0].tolist())
        )
    return rows


def probe_table_csv(rows) -> str:
    lines = ["family,graph6,k,lhs,rhs,slack,equality"]
    for r in rows:
        lines.append(
            f"{r.family},{r.graph6},{r.k},{r.lhs!r},{r.rhs!r},{r.slack!r},"
            f"{int(r.equality)}"
        )
    return "\n".join(lines) + "\n"
