"""In-process span tracer for the per-layer benchmark run.

Spans are recorded from the benchmark's own code: each layer's public
functions are replaced, for the duration of a traced run, by wrappers that
open a span around the call. A wrapper is installed under every name a
caller looks the function up by (the defining module, the modules that
import it by name, and the ``lapsum`` package re-exports), so a call from
inside the library is traced exactly like a call from a user.

Only aggregates are kept in memory: per span name the number of calls and
the summed self time, where self time is the span's duration minus the time
its child spans cover. A call that re-enters the span it is already in
(``eps_profile`` calling ``spectrum``, ``matching_number`` calling
``maximum_matching``) stays part of the outer span and is not counted again.

Spans recorded in pool workers never reach the parent, so a traced scan
must run with ``--jobs 1``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

#: max-flow networks with at most this many nodes count as ``flow.small``.
#: Exhaustive theorem scans (n <= 6) build networks of <= 23 nodes; the
#: certify workload's density and orientation networks on n <= 40 are larger.
FLOW_SMALL_MAX_NODES = 64

#: (module, function, span name) for every traced public function
SPANS = (
    ("graphs", "encode_graph6", "graphs.codec"),
    ("graphs", "parse_graph6", "graphs.codec"),
    ("spectral", "spectrum", "spectral"),
    ("spectral", "eps_profile", "spectral"),
    ("spectral", "eps", "spectral"),
    ("bounds", "evaluate_bound", "bounds.evaluate"),
    ("harness", "scan", "harness"),
    ("density", "density", "density.density"),
    ("density", "partition_density", "density.parden"),
    ("density", "k_orientation", "density.orient"),
    ("density", "peel_to_low_partition_density", "density.peel"),
    ("matching", "maximum_matching", "matching.nu"),
    ("matching", "matching_number", "matching.nu"),
    ("matching", "min_vertex_cover", "matching.cover"),
    ("matching", "gallai_edmonds", "matching.gallai"),
    ("matching", "odd_set_cover", "matching.oddcover"),
    ("matching", "nu_ell", "matching.nu_ell"),
    ("matching", "nu_ell_value", "matching.nu_ell"),
    ("matching", "hall_violator", "matching.hall"),
    ("decomposition", "arboricity_value", "decomposition.arboricity"),
    ("decomposition", "star_arboricity_exact", "decomposition.star_arb"),
    ("decomposition", "forest_decomposition", "decomposition.forest"),
    ("decomposition", "structure_decomposition", "decomposition.structure"),
    ("decomposition", "random_kc_assignment", "decomposition.kc"),
    ("cli", "main", "cli"),
)

#: graph sources are generators: each item they yield is one span
SOURCE_SPANS = (
    ("graphs", "all_labeled_graphs"),
    ("graphs", "gnp_graphs"),
    ("graphs", "read_graph6_file"),
)

#: (outer span, inner span): count inner spans opened inside the outer one
NESTED = (
    ("decomposition.arboricity", "flow"),
    ("density.peel", "density.parden"),
)


class Tracer:
    """Span aggregates of one traced run."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.nested: Counter = Counter()
        self.flow_arcs = 0
        self.kernel_flops = 0
        self.kc_tries = 0
        self.kc_found = 0
        self._stack: list[list] = []  # [name, child seconds]
        self._open: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        for outer, inner in NESTED:
            if self._open[outer] and name.startswith(inner):
                self.nested[(outer, inner)] += 1
        frame = [name, 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def _exit(self, frame: list, seconds: float):
        self._stack.pop()
        name = frame[0]
        self._open[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += seconds - frame[1]
        if self._stack:
            self._stack[-1][1] += seconds

    def _wrap(self, fn, name_of, after=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args)
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = self._enter(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, clock() - start)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_source(self, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)

            def spans():
                while True:
                    frame = self._enter("graphs.source")
                    start = clock()
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self._exit(frame, clock() - start)
                    yield item

            return spans()

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        """Replace every traced function under every name it is bound to."""
        lapsum_modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "lapsum" or key.startswith("lapsum.")
        ]
        for mod_name, fn_name, span in SPANS:
            original = getattr(_module(mod_name), fn_name, None)
            if original is None:
                continue
            after = self._after_kc if span == "decomposition.kc" else None
            self._rebind(
                lapsum_modules, original, self._wrap(original, _const(span), after)
            )
        for mod_name, fn_name in SOURCE_SPANS:
            original = getattr(_module(mod_name), fn_name, None)
            if original is not None:
                self._rebind(lapsum_modules, original, self._wrap_source(original))
        flow = getattr(_module("flow"), "max_flow", None)
        if flow is not None:
            self._rebind(
                lapsum_modules, flow, self._wrap(flow, _flow_span, self._after_flow)
            )
        import numpy.linalg

        eigvalsh = numpy.linalg.eigvalsh
        self._set(
            numpy.linalg,
            "eigvalsh",
            self._wrap(eigvalsh, _const("spectral.kernel"), self._after_eigvalsh),
        )

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _rebind(self, modules, original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- per-call counters ---------------------------------------------------

    def _after_flow(self, args, result):
        net = args[0]
        self.flow_arcs += len(net.to) // 2

    def _after_eigvalsh(self, args, result):
        n = len(args[0])
        self.kernel_flops += 4 * n**3 // 3

    def _after_kc(self, args, result):
        outcome, tries = result
        self.kc_tries += tries
        if type(outcome).__name__ == "KCAssignment":
            self.kc_found += 1

    # -- results -------------------------------------------------------------

    def count(self, name: str) -> int:
        return self.calls[name]

    def seconds(self, name: str) -> float:
        return self.self_s[name]


def _module(name: str):
    return importlib.import_module(f"lapsum.{name}")


def _const(name: str):
    return lambda args: name


def _flow_span(args) -> str:
    return "flow.small" if args[0].n <= FLOW_SMALL_MAX_NODES else "flow.large"
