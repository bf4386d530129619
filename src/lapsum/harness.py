"""Bound scans over graph sources, tightness probes, and report serialization.

A scan cuts its source into work units, spreads them round-robin over this
process and its workers, and merges the partial reports in source order:
reports are byte-identical across worker counts (the ``runtime_ms`` field is
the only nondeterministic entry). Scans and probes read one route: each stack
of graphs on one n becomes a (bound, graph, k) table of stacked spectra, aux
columns shared by all requested bounds, and right-hand sides; a work unit is
one stack per n, and a probe's stack is one family graph. Size-cap failures
become "skipped" records instead of aborting the run. ``spectrum_rows``
walks the same work units and stacks for the spectra alone.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bounds import K_MAX, aux_requirements, bound_spec, rhs_table, verdict
from .density import SizeCapError
from .graphs import (
    FamilyId,
    Graph6Error,
    GraphSource,
    all_labeled_count,
    bits_graph,
    components_info,
    conjugate_rows,
    degree_rows,
    encode_graph6,
    graph6_bits,
    graph6_stream,
    graph6_strings,
    graph_bits,
    is_bipartite,
    make_family,
    mask_bits,
)
from .spectral import STACK_ENTRIES, checked_spectra, stack_size

#: equality examples recorded per (bound, k); totals are always exact
EQUALITY_EXAMPLE_CAP = 10


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
    if text in ("nminus2", "n-2"):
        return KRange("nminus2")
    try:
        ks = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"bad k range {text!r}; expected 'all' or a list") from None
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
    krange: KRange
    graphs: int = 0
    checks: int = 0
    aggregates: dict[tuple[str, int], BoundKAggregate] = field(default_factory=dict)
    violations: list[dict] = field(default_factory=list)
    equality_examples: list[dict] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)
    max_eps_over_k2: float = -math.inf
    runtime_ms: int = 0

    @property
    def violation_count(self) -> int:
        return sum(a.violations for a in self.aggregates.values())

    def to_json_dict(self) -> dict:
        rows = [
            self.aggregates[key].to_row(*key)
            for key in sorted(self.aggregates, key=lambda t: (t[0], t[1]))
        ]
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
        for key in sorted(self.aggregates, key=lambda t: (t[0], t[1])):
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
    reuses its maximum matching. Returns ``(cols, missing)``: int64 columns
    ((R, n) for ``conj_degrees``), 0 where a row lacks the quantity, and per
    row the skip reason of each quantity it lacks, under None for a graph a
    ``SizeCapError`` skips whole.
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
        from .matching import VERTEX_COVER_NU_CAP, _cover_at_nu, matching_number
    if "sa" in needs:
        from .decomposition import STAR_ARB_EDGE_CAP, star_arboricity_exact
    keys = [q for q in ("bipartite", "n_prime", "nu", "tau", "sa") if q in needs]
    values = np.zeros((len(bits), len(keys)), dtype=np.int64)
    for i in range(len(bits)) if keys else ():
        g = bits_graph(n, bits[i])
        row, lacks = {}, {}
        try:
            if "bipartite" in needs:
                row["bipartite"] = is_bipartite(g)
            if "n_prime" in needs:
                row["n_prime"] = components_info(g)[1]
            if "nu" in needs:
                row["nu"] = nu = matching_number(g)
            if "tau" in needs and nu > VERTEX_COVER_NU_CAP:
                lacks["tau"] = f"nu={nu} exceeds exact-cover cap"
            elif "tau" in needs:
                row["tau"] = len(_cover_at_nu(g, nu))
            if "sa" in needs and g.m > STAR_ARB_EDGE_CAP:
                lacks["sa"] = f"|E|={g.m} exceeds exact star-arboricity cap"
            elif "sa" in needs:
                row["sa"] = star_arboricity_exact(g)[0]
            values[i] = [row.get(q, 0) for q in keys]
        except SizeCapError as exc:
            lacks = {None: str(exc)}
        if lacks:
            missing[i] = lacks
    cols.update((q, values[:, j : j + 1]) for j, q in enumerate(keys))
    return cols, missing


@dataclass
class _Table:
    """The (bound, graph, k) checks of a stack of graphs on one n: ``lhs`` is
    (R, K), ``rhs`` (B, R, K) and NaN where a bound is not applicable or is
    skipped; ``live`` marks the graphs no ``SizeCapError`` skipped, ``checked``
    counts the graphs per bound, ``skips`` lists (row, bound index, reason)."""

    ms: np.ndarray
    vals: np.ndarray
    eps: np.ndarray
    lhs: np.ndarray
    cols: dict
    missing: dict
    live: np.ndarray
    rhs: np.ndarray
    checked: list
    skips: list


def _table(n: int, bits: np.ndarray, bounds, ks) -> _Table:
    """Edge counts, checked spectra (rows non-increasing), eps rows, aux
    columns, per-bound skips and right-hand sides of graphs on n vertices
    given by their edge bit rows, at the k values ``ks``."""
    ms, vals = checked_spectra(n, bits)
    eps = np.cumsum(vals, axis=1) - ms[:, None]
    k_arr = np.array(ks, dtype=np.int64)
    lhs = np.repeat(ms[:, None].astype(float), len(ks), axis=1)  # |E| for k > n
    lhs[:, k_arr <= n] = eps[:, k_arr[k_arr <= n] - 1]
    cols, missing = _aux_columns(n, bits, aux_requirements(bounds))
    live = np.ones(len(bits), dtype=bool)
    live[[i for i, lacks in missing.items() if None in lacks]] = False
    rhs = np.full((len(bounds), len(bits), len(ks)), math.nan)
    checked, skips = [], []
    for b, tag in enumerate(bounds):
        spec = bound_spec(tag)
        rows = live.copy()
        for i, lacks in missing.items():
            reasons = [lacks[q] for q in (None, *spec.needs) if q in lacks]
            if reasons:
                rows[i] = False
                skips.append((i, b, reasons[0]))
        if rows.any():
            np.copyto(rhs[b], rhs_table(spec, ms[:, None], k_arr, cols), where=rows[:, None])
        checked.append(int(rows.sum()))
    return _Table(ms, vals, eps, lhs, cols, missing, live, rhs, checked, skips)


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


def _scan_group(n, bits, positions, bounds, krange, report, found, kept):
    """Evaluate the bounds on graphs with one n, given by their edge bit rows,
    into the partial ``report``; records go to ``found`` keyed by (position in
    the work unit, bound index, k index).

    Equality examples beyond the first EQUALITY_EXAMPLE_CAP per (n, bound, k)
    of the work unit are counted but not recorded; ``kept`` maps n to the
    examples recorded so far per (bound, k). graph6 strings are encoded only
    for the rows of records.
    """
    ks = krange.values(n)
    t = _table(n, bits, bounds, ks)
    lhs, rhs = t.lhs, t.rhs
    if ks and t.live.any():
        ratio = (lhs[t.live] / (np.array(ks, dtype=np.int64) ** 2)).max()
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
        found["skipped"].append(
            ((positions[i], b, 0), {"graph6": g6[i], "bound": bounds[b], "reason": reason})
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
                check = _witness_record(check, t, i)
            found[kind].append(((positions[i], b, j), check))


def _stacks(work):
    """The stacks of one work unit: an (n, lo, hi) range of all-labeled edge
    masks, or a list of validated graph6 strings.

    Graphs are grouped by n, and each group is cut into stacks of at most
    ``stack_size(n)`` graphs, one stacked eigvalsh call each; that stack also
    bounds the group's other arrays. A unit from ``_tasks`` fits one stack
    per n. Yields ``(n, bits, positions)``: the edge bit rows and, per row,
    the graph's index in the unit.
    """
    if isinstance(work, tuple):
        n, lo, hi = work
        step = stack_size(n)
        for start in range(lo, hi, step):
            end = min(start + step, hi)
            yield n, mask_bits(n, start, end), range(start - lo, end - lo)
        return
    groups: dict[int, list[int]] = {}
    for pos, g6 in enumerate(work):
        groups.setdefault(ord(g6[0]) - 63, []).append(pos)
    for n, positions in groups.items():
        step = stack_size(n)
        for start in range(0, len(positions), step):
            part = positions[start : start + step]
            yield n, graph6_bits([work[p] for p in part]), part


def _scan_chunk(work, bounds, krange):
    """Evaluate the bounds over the stacks of one work unit. A Graph is built
    only where a bound needs an invariant beyond the degree rows. Returns a
    partial report (no source, no runtime) whose records are in source order.
    """
    report = ScanReport("", bounds, krange)
    found: dict[str, list] = {"violations": [], "equalities": [], "skipped": []}
    kept: dict[int, np.ndarray] = {}
    for n, bits, positions in _stacks(work):
        _scan_group(n, bits, positions, bounds, krange, report, found, kept)
    report.graphs = work[2] - work[1] if isinstance(work, tuple) else len(work)
    for records in found.values():
        records.sort(key=lambda item: item[0])
    report.violations = [rec for _, rec in found["violations"]]
    report.equality_examples = [rec for _, rec in found["equalities"]]
    report.skipped = [rec for _, rec in found["skipped"]]
    return report


def _first_examples(equalities, counts: dict) -> list[dict]:
    """The equality examples within EQUALITY_EXAMPLE_CAP per (bound, k), given
    the ``counts`` kept so far (updated in place)."""
    kept = []
    for eq in equalities:
        key = (eq["bound"], eq["k"])
        if counts.get(key, 0) < EQUALITY_EXAMPLE_CAP:
            counts[key] = counts.get(key, 0) + 1
            kept.append(eq)
    return kept


def _tasks(src: GraphSource, strict: bool):
    """The work units of a scan in source order: (n, lo, hi) edge-mask ranges
    for an all-labeled source, lists of graph6 strings for any other. A unit
    holds at most STACK_ENTRIES matrix entries, unless it is a single graph,
    so it is one stacked eigvalsh call per n."""
    if src.kind == "all-labeled":
        total = all_labeled_count(src.n)
        step = stack_size(src.n)
        return [(src.n, lo, min(lo + step, total)) for lo in range(0, total, step)]
    return _graph6_tasks(graph6_stream(src, strict=strict))


def _graph6_tasks(g6_stream):
    """Consecutive graph6 strings cut greedily at STACK_ENTRIES entries. A
    malformed string ends the units: the strings before it form the last
    one, and then its ``Graph6Error`` is raised."""
    task, entries = [], 0
    try:
        for g6 in g6_stream:
            n = ord(g6[0]) - 63
            cost = max(1, n * n)
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


def _worker(conn, bounds, krange):
    """A scan worker: the partial reports of the units that arrive on
    ``conn`` until None, sent back in one list. A failed unit ends the list
    with its exception, and the rest of the input is read and dropped."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops its workers
    partials = []
    try:
        for work in iter(conn.recv, None):
            partials.append(_scan_chunk(work, bounds, krange))
    except Exception as exc:
        partials.append(exc)
        for _ in iter(conn.recv, None):
            pass
    conn.send(partials)


def _start_worker(bounds, krange):
    """A started ``_worker`` process of the default multiprocessing context,
    and this process's end of its pipe."""
    import multiprocessing

    conn, child_conn = multiprocessing.Pipe()
    proc = multiprocessing.Process(
        target=_worker, args=(child_conn, bounds, krange), daemon=True
    )
    proc.start()
    child_conn.close()
    return proc, conn


def _shares(tasks, bounds, krange, jobs):
    """Run the work units in at most ``jobs`` processes: this one and one
    worker per unit read ahead but the last, so a one-unit source starts none.

    Units go round-robin in rounds of one per process; this process takes the
    last unit of each round, after sending the round's other units down the
    workers' pipes. Returns the lists of partial reports of each worker and
    then of this process, a list ending early at a failed unit's exception,
    and the error the source raised after its last unit (or None). The
    workers are stopped and joined whatever happens.
    """
    units = iter(tasks)
    head, error = [], None
    try:
        while len(head) < jobs and (work := next(units, None)) is not None:
            head.append(work)
    except Exception as exc:
        units, error = iter(()), exc
    procs = max(len(head), 1)
    workers, own = [], []
    try:
        for _ in range(procs - 1):
            workers.append(_start_worker(bounds, krange))
        try:
            for i, work in enumerate(itertools.chain(head, units)):
                if i % procs < procs - 1:
                    workers[i % procs][1].send(work)
                    continue
                try:
                    own.append(_scan_chunk(work, bounds, krange))
                except Exception as exc:
                    own.append(exc)
                    break
        except Exception as exc:
            error = exc
        for _, conn in workers:
            conn.send(None)
        shares = []
        for proc, conn in workers:
            try:
                shares.append(conn.recv())
            except EOFError:
                raise RuntimeError(f"scan worker {proc.pid} exited without its reports") from None
        for proc, _ in workers:
            proc.join()
    finally:
        for proc, conn in workers:
            conn.close()
            proc.terminate()  # a no-op once the worker is joined
            proc.join()
    return [*shares, own], error


def _partials(tasks, bounds, krange, jobs):
    """The partial reports of the work units in source order, run by
    ``_shares``. The first failure in source order raises, as at jobs 1: a
    unit's error, or the source's own error after its last unit."""
    shares, error = _shares(tasks, bounds, krange, jobs)
    procs = len(shares)
    for i in itertools.count():
        share, j = shares[i % procs], i // procs
        if j == len(share):
            break
        if isinstance(share[j], Exception):
            raise share[j]
        yield share[j]
    if error is not None:
        raise error


def scan(
    src: GraphSource,
    bounds,
    ks: KRange | None = None,
    jobs: int = 1,
    strict: bool = True,
) -> ScanReport:
    """Evaluate the requested bounds over every graph of the source, in at
    most ``jobs`` processes (see ``_shares``).

    Results are merged in source order, so the report is identical for any
    worker count. Equality examples are capped per (bound, k) — the first
    few in source order — while the aggregate counts stay exact.
    """
    bounds = tuple(bounds)
    if not bounds:
        raise ValueError("bounds must be non-empty")
    for tag in bounds:
        bound_spec(tag)  # validates the id early
    krange = ks or KRange("all")
    start = time.monotonic()
    report = ScanReport(src.describe(), bounds, krange)
    eq_counts: dict[tuple[str, int], int] = {}
    for p in _partials(_tasks(src, strict), bounds, krange, jobs):
        report.graphs += p.graphs
        report.checks += p.checks
        for key, agg in p.aggregates.items():
            report.aggregates.setdefault(key, BoundKAggregate()).add(agg)
        report.violations.extend(p.violations)
        report.equality_examples.extend(_first_examples(p.equality_examples, eq_counts))
        report.skipped.extend(p.skipped)
        report.max_eps_over_k2 = max(report.max_eps_over_k2, p.max_eps_over_k2)
    report.runtime_ms = int((time.monotonic() - start) * 1000)
    return report


def spectrum_rows(src: GraphSource):
    """CSV rows ``graph6,n,m,eigenvalues...`` of the graphs of a source, one
    string per scan work unit, in source order.

    The eigenvalues are the stacked, checked spectra a scan computes, equal
    to ``spectrum(g).values``; each graph is named by its unit's graph6 string.
    """
    for work in _tasks(src, strict=True):
        rows = {}
        for n, bits, positions in _stacks(work):
            ms, vals = checked_spectra(n, bits)
            if isinstance(work, tuple):
                names = graph6_strings(n, bits)
            else:
                names = [work[p] for p in positions]
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
