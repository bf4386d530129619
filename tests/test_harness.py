import collections
import functools
import itertools
import json
import math
import multiprocessing
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lapsum
from lapsum import bounds, decomposition, harness, matching, spectral
from lapsum.bounds import (
    BOUND_TAGS,
    EQUALITY_TOL,
    K_MAX,
    THEOREM_TAGS,
    BoundSpec,
    aux_requirements,
    evaluate_bound,
)
from lapsum.cli import main
from lapsum.decomposition import STAR_ARB_EDGE_CAP, star_arboricity_exact
from lapsum.graphs import (
    AlgorithmError,
    Graph,
    Graph6Error,
    GraphError,
    GraphSource,
    all_labeled_count,
    all_labeled_graph6,
    all_labeled_graphs,
    bits_graph,
    components_info,
    encode_graph6,
    gnp_graphs,
    graph6_stream,
    graph_bits,
    graph_stream,
    graph_from_edges,
    is_bipartite,
    labeled_classes,
    make_family,
    mask_bits,
    mask_rows,
    non_isolated_count,
    parse_graph6,
)
from lapsum.harness import (
    EQUALITY_EXAMPLE_CAP,
    KRange,
    ScanReport,
    parse_krange,
    probe_table_csv,
    scan,
    tightness_probe,
)
from lapsum.matching import (
    VERTEX_COVER_NU_CAP,
    SizeCapError,
    matching_number,
    min_vertex_cover,
)
from lapsum.spectral import (
    STACK_ENTRIES,
    SpectralError,
    eps_profile,
    graph6_laplacians,
    spectrum,
    stack_size,
)

from oracles import oracle_conjugate_degrees, oracle_tau


def single(g):
    return GraphSource("single", graph=g)


def _mixed_graphs():
    """Graphs with n in {0, 1, 2, 5, 7, 12, 40}, interleaved: every labeled
    graph on 5 vertices, edgeless graphs, and sparse graphs with isolated
    vertices."""
    rng = random.Random(7)
    others = [
        graph_from_edges(0, []),
        make_family("empty:1"),
        make_family("complete:2"),
        make_family("empty:2"),
        make_family("empty:7"),
        graph_from_edges(7, [(0, 1), (1, 2), (4, 5)]),
        make_family("complete:7"),
        graph_from_edges(12, [(0, 11), (3, 4)]),
        graph_from_edges(40, [(0, 1), (1, 2), (2, 0), (10, 39)]),
        *gnp_graphs(7, 0.5, 3, rng.randrange(1 << 30)),
        *gnp_graphs(12, 0.15, 4, rng.randrange(1 << 30)),
        *gnp_graphs(40, 0.5, 2, rng.randrange(1 << 30)),
    ]
    five = list(all_labeled_graphs(5))
    out = []
    for i, g in enumerate(five):
        out.append(g)
        if i % 50 == 0 and others:
            out.append(others.pop())
    return out + others


@pytest.fixture(scope="module")
def mixed_g6_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("mixed") / "mixed.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in _mixed_graphs()))
    return str(path)


def _report_text(rep) -> str:
    """A report's JSON without its runtime and its source description."""
    doc = rep.to_json_dict()
    doc.pop("runtime_ms")
    doc.pop("source")
    return json.dumps(doc, indent=2)


def _oracle_aux(g, needs):
    """The aux values of one graph from the public per-graph functions, and
    the skip reason of each quantity over its exact cap (nu comes with tau)."""
    aux, unavailable = {}, {}
    if "conj_degrees" in needs:
        aux["conj_degrees"] = oracle_conjugate_degrees(g)
    if "bipartite" in needs:
        aux["bipartite"] = is_bipartite(g)
    if "n_prime" in needs:
        aux["n_prime"] = components_info(g)[1]
    if "non_isolated" in needs:
        aux["non_isolated"] = non_isolated_count(g)
    if "nu" in needs or "tau" in needs:
        aux["nu"] = matching_number(g)
    if "tau" in needs:
        if aux["nu"] > VERTEX_COVER_NU_CAP:
            unavailable["tau"] = f"nu={aux['nu']} exceeds exact-cover cap"
        else:
            aux["tau"] = len(min_vertex_cover(g))
    if "sa" in needs:
        if g.m > STAR_ARB_EDGE_CAP:
            unavailable["sa"] = f"|E|={g.m} exceeds exact star-arboricity cap"
        else:
            aux["sa"] = star_arboricity_exact(g)[0]
    return aux, unavailable


def _oracle_report(graphs, tags, krange):
    """Aggregates, equality examples and max eps/k^2 from the per-graph API."""
    needs = aux_requirements(tags)
    agg, equalities, skipped, kept, max_ratio = {}, [], [], {}, -math.inf
    for g in graphs:
        aux, unavailable = _oracle_aux(g, needs)
        prof = eps_profile(g)
        for k in krange.values(g.n):
            max_ratio = max(max_ratio, prof.value(k) / (k * k))
        for tag in tags:
            missing = [q for q in bounds.bound_spec(tag).needs if q in unavailable]
            if missing:
                skipped.append((encode_graph6(g), tag, unavailable[missing[0]]))
                continue
            for k in krange.values(g.n):
                res = evaluate_bound(tag, g, k, aux)
                row = agg.setdefault((tag, k), [0, 0, 0, math.inf])
                row[0] += 1
                if not res.applicable:
                    continue
                row[3] = min(row[3], res.slack)
                if not res.holds:
                    row[1] += 1
                elif abs(res.slack) <= EQUALITY_TOL:
                    row[2] += 1
                    if kept.get((tag, k), 0) < EQUALITY_EXAMPLE_CAP:
                        kept[(tag, k)] = kept.get((tag, k), 0) + 1
                        equalities.append((encode_graph6(g), tag, k, res.lhs, res.rhs))
    return agg, equalities, skipped, max_ratio


class TestKRange:
    def test_all(self):
        assert KRange("all").values(4) == (1, 2, 3, 4)

    def test_list_allows_k_beyond_n(self):
        assert KRange("list", (2, 9)).values(4) == (2, 9)

    def test_nminus2(self):
        assert KRange("nminus2").values(6) == (1, 2, 3, 4)
        assert KRange("nminus2").values(2) == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            KRange("weird")
        with pytest.raises(ValueError):
            KRange("list", ())
        with pytest.raises(ValueError):
            KRange("list", (0,))

    def test_list_keeps_first_occurrence(self):
        assert KRange("list", (3, 1, 3, 1)).values(2) == (3, 1)
        assert parse_krange("1,1") == KRange("list", (1,))
        with pytest.raises(ValueError):
            KRange("list", (K_MAX + 1,))

    @pytest.mark.parametrize("repeated, once", [("1,1", "1"), ("3,1,3", "3,1")])
    def test_repeated_k_counts_once(self, repeated, once, tmp_path):
        def report(k, bound):
            out = tmp_path / "report.json"
            main(["scan", "--all-labeled", "3", "--bound", bound, "--k", k,
                  "--format", "json", "--out", str(out)])
            doc = json.loads(out.read_text())
            doc.pop("runtime_ms")
            return doc

        for bound in ("brouwer", "theorem"):
            assert report(repeated, bound) == report(once, bound)

    def test_parse(self):
        assert parse_krange("all") == KRange("all")
        assert parse_krange("nminus2") == KRange("nminus2")
        assert parse_krange("1,3") == KRange("list", (1, 3))
        with pytest.raises(ValueError):
            parse_krange("1,x")
        message = "bad k range 'n-2'; expected 'all', 'nminus2' or a list like 1,2,3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_krange("n-2")


class TestStackAux:
    def test_degree_rows_match_per_graph(self):
        for n in range(7):
            bits = mask_bits(n, 0, all_labeled_count(n))
            graphs = [bits_graph(n, row) for row in bits]
            cols, missing = harness._aux_columns(n, bits, {"conj_degrees", "non_isolated"})
            assert not missing
            conj = cols["conj_degrees"].tolist()
            assert conj == [oracle_conjugate_degrees(g) for g in graphs]
            assert cols["non_isolated"][:, 0].tolist() == [non_isolated_count(g) for g in graphs]

    def test_degree_bounds_build_no_graph(self, monkeypatch):
        def no_graph(n, bits):
            raise AssertionError("a Graph was built")

        monkeypatch.setattr(harness, "bits_graph", no_graph)
        rep = scan(GraphSource("all-labeled", n=5), ["brouwer", "bai"], KRange("all"))
        assert rep.graphs == 1024 and not rep.skipped

    def test_one_matching_for_nu_and_tau(self, monkeypatch):
        # the searches of one maximum matching share its one ``match`` list;
        # a memo hit on ``maximum_matching`` runs none
        searches = []
        real = matching._alternating_search

        def counted(adj, match, root):
            searches.append(match)
            return real(adj, match, root)

        monkeypatch.setattr(matching, "_alternating_search", counted)
        for g in itertools.islice(all_labeled_graphs(5), 0, None, 37):
            searches.clear()
            matching.maximum_matching(g)  # _aux_columns builds its own equal graph
            one = len(searches)
            searches.clear()
            cols, _ = harness._aux_columns(g.n, graph_bits(g)[None], {"nu", "tau"})
            assert one and len(searches) == one
            assert cols["nu"][0, 0] == matching_number(g)
        searches.clear()
        rep = scan(GraphSource("all-labeled", n=4), ["matching-thm", "cover"], KRange("all"))
        assert len({id(match) for match in searches}) == rep.graphs == 64

    def test_tau_matches_oracle(self, exhaustive_n5):
        for g in exhaustive_n5:
            cols, missing = harness._aux_columns(g.n, graph_bits(g)[None], {"tau"})
            assert not missing and cols["tau"][0, 0] == oracle_tau(g), g


def _aux_stacks():
    """(n, edge bit rows) of every labeled graph with n <= 5, and of one graph
    per isomorphism class at n = 6."""
    for n in range(6):
        yield n, mask_bits(n, 0, all_labeled_count(n))
    yield 6, mask_rows(6, labeled_classes(6)[0])


class TestAuxColumns:
    """The columns of ``harness._aux_columns`` against the public per-graph
    functions, value by value."""

    def test_columns_match_per_graph_functions(self):
        needs = aux_requirements(BOUND_TAGS)
        assert needs == {"conj_degrees", "bipartite", "n_prime", "non_isolated", "nu", "tau", "sa"}
        for n, bits in _aux_stacks():
            cols, missing = harness._aux_columns(n, bits, needs)
            assert not missing and set(cols) == needs
            graphs = [bits_graph(n, row) for row in bits]
            want = {
                "conj_degrees": [oracle_conjugate_degrees(g) for g in graphs],
                "bipartite": [[int(is_bipartite(g))] for g in graphs],
                "n_prime": [[components_info(g)[1]] for g in graphs],
                "non_isolated": [[non_isolated_count(g)] for g in graphs],
                "nu": [[matching_number(g)] for g in graphs],
                "tau": [[oracle_tau(g)] for g in graphs],
                "sa": [[star_arboricity_exact(g)[0]] for g in graphs],
            }
            for key, col in cols.items():
                assert col.dtype == np.int64 and col.tolist() == want[key], (n, key)

    def test_tau_alone_brings_nu(self):
        bits = mask_bits(4, 0, all_labeled_count(4))
        cols, missing = harness._aux_columns(4, bits, {"tau"})
        assert not missing and set(cols) == {"nu", "tau"}
        assert cols["nu"][:, 0].tolist() == [matching_number(bits_graph(4, r)) for r in bits]

    def test_skip_reasons(self, monkeypatch):
        k9 = make_family("complete:9")
        cols, missing = harness._aux_columns(9, graph_bits(k9)[None], {"sa", "nu"})
        assert missing == {0: {"sa": "|E|=36 exceeds exact star-arboricity cap"}}
        assert cols["sa"].tolist() == [[0]] and cols["nu"].tolist() == [[4]]
        # a perfect matching on 16 edges: nu = 16 is over the exact-cover cap
        pm = graph_from_edges(32, [(2 * i, 2 * i + 1) for i in range(16)])
        cols, missing = harness._aux_columns(32, graph_bits(pm)[None], {"tau"})
        assert missing == {0: {"tau": "nu=16 exceeds exact-cover cap"}}
        assert cols["nu"].tolist() == [[16]] and cols["tau"].tolist() == [[0]]
        # the exact invariant owns its cap: its SizeCapError skips sa alone
        real = decomposition.star_arboricity_exact

        def capped(g):
            if g.m == 3:
                raise SizeCapError("over the cap")
            return real(g)

        monkeypatch.setattr(decomposition, "star_arboricity_exact", capped)
        bits = mask_bits(3, 0, all_labeled_count(3))
        cols, missing = harness._aux_columns(3, bits, {"bipartite", "nu", "sa"})
        assert missing == {7: {"sa": "|E|=3 exceeds exact star-arboricity cap"}}
        assert cols["bipartite"][:, 0].tolist() == [1] * 7 + [0]
        assert cols["nu"][:, 0].tolist() == [0] + [1] * 7
        assert cols["sa"][:, 0].tolist() == [0] + [1] * 6 + [0]

    def test_one_search_per_graph(self, monkeypatch):
        # bipartiteness and n' both read the graph's one cached search
        real = Graph.search.func
        searched = []

        def counted(g):
            searched.append(g)
            return real(g)

        search = functools.cached_property(counted)
        search.__set_name__(Graph, "search")
        monkeypatch.setattr(Graph, "search", search)
        bits = mask_bits(5, 0, all_labeled_count(5))
        harness._aux_columns(5, bits, {"bipartite", "n_prime"})
        assert len(searched) == 1024

    def test_brouwer_scan_computes_no_aux(self, monkeypatch):
        def no_aux(*args):
            raise AssertionError("an aux quantity was computed")

        monkeypatch.setattr(harness, "bits_graph", no_aux)
        monkeypatch.setattr(harness, "degree_rows", no_aux)
        rep = scan(GraphSource("all-labeled", n=5), ["brouwer"], KRange("all"))
        assert rep.graphs == 1024 and not rep.skipped


#: bounds whose violation records carry every aux quantity between them
WITNESS_BOUNDS = ("cover", "bipartite-sq", "bai", "star-arb", "conj-matching-improved")


class TestWitnessRecords:
    @pytest.fixture
    def rhs_minus_100(self, monkeypatch):
        for tag in WITNESS_BOUNDS:
            spec = bounds.bound_spec(tag)
            monkeypatch.setitem(
                bounds._REGISTRY,
                tag,
                BoundSpec(tag, spec.needs, lambda m, k, aux: -100, spec.applicable, spec.conjecture),
            )

    @pytest.mark.parametrize(
        "src, tags, violated, aux_keys",
        [
            (GraphSource("all-labeled", n=4), WITNESS_BOUNDS, WITNESS_BOUNDS,
             ["bipartite", "conj_degrees", "eps_profile", "non_isolated", "nu", "sa", "tau"]),
            # |E| = 36 is over the exact-sa cap: star-arb is skipped and sa has
            # no key; K9 is not bipartite and brouwer holds on it
            (single(make_family("complete:9")), (*WITNESS_BOUNDS, "brouwer"),
             ("cover", "bai", "conj-matching-improved"),
             ["bipartite", "conj_degrees", "eps_profile", "non_isolated", "nu", "tau"]),
        ],
    )
    def test_keys_values_and_json_types(self, src, tags, violated, aux_keys, rhs_minus_100):
        doc = json.loads(scan(src, tags, KRange("all")).to_json())
        graphs = list(graph_stream(src))
        needs = aux_requirements(WITNESS_BOUNDS)
        expected = []
        for g in graphs:
            aux, unavailable = _oracle_aux(g, needs)
            for tag in tags:
                if any(q in unavailable for q in bounds.bound_spec(tag).needs):
                    continue
                for k in range(1, g.n + 1):
                    if not evaluate_bound(tag, g, k, aux).holds:
                        expected.append((encode_graph6(g), tag, k))
        records = doc["violations"]
        assert [(r["graph6"], r["bound"], r["k"]) for r in records] == expected
        assert {r["bound"] for r in records} == set(violated)
        head = ["graph6", "n", "m", "bound", "k", "lhs", "rhs", "slack", "spectrum"]
        for r in records:
            g = parse_graph6(r["graph6"])
            aux, _ = _oracle_aux(g, needs)
            assert list(r) == head + aux_keys
            prof = eps_profile(g)
            assert type(r["n"]) is int and type(r["m"]) is int and (r["n"], r["m"]) == (g.n, g.m)
            assert r["lhs"].hex() == prof.value(r["k"]).hex()
            assert type(r["rhs"]) is float and r["rhs"] == -100.0
            assert r["slack"].hex() == (-100.0 - r["lhs"]).hex()
            assert r["spectrum"] == list(spectrum(g).values)
            assert r["eps_profile"] == list(prof.eps)
            assert all(type(x) is float for x in r["spectrum"] + r["eps_profile"])
            assert type(r["bipartite"]) is bool
            assert type(r["conj_degrees"]) is list
            assert all(type(x) is int for x in r["conj_degrees"])
            for key in aux_keys:
                if key != "eps_profile":
                    assert r[key] == aux[key], (r["graph6"], key)
                if key not in ("bipartite", "conj_degrees", "eps_profile"):
                    assert type(r[key]) is int, key


class TestScan:
    def test_counts_small_exhaustive(self):
        rep = scan(GraphSource("all-labeled", n=4), ["brouwer"], KRange("all"))
        assert rep.graphs == 64
        assert rep.checks == 64 * 4
        assert rep.violation_count == 0

    def test_theorem_bounds_no_violations_n4(self):
        rep = scan(
            GraphSource("all-labeled", n=4),
            ["bai", "cover", "star-arb", "half-component", "matching-thm",
             "matching-sq", "weak-brouwer"],
            KRange("all"),
        )
        assert rep.violation_count == 0
        # min slack respects the report invariant
        for agg in rep.aggregates.values():
            assert agg.violations == 0
            if agg.min_slack != float("inf"):
                assert agg.min_slack >= -1e-6

    def test_deterministic_across_worker_counts(self, mixed_g6_file, tmp_path):
        cases = [(GraphSource("all-labeled", n=n), list(BOUND_TAGS)) for n in range(6)]
        cases.append((GraphSource("all-labeled", n=6), ["brouwer"]))
        cases.append((GraphSource("graph6-file", path=mixed_g6_file), list(BOUND_TAGS)))
        # three units with skip and equality records, merged across processes
        cases.append((GraphSource("graph6-file", path=_g40_file(tmp_path, 100)), list(BOUND_TAGS)))
        for src, tags in cases:
            a, b, c = (_report_text(scan(src, tags, KRange("all"), jobs=j)) for j in (1, 2, 3))
            assert a == b == c, src

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_all_labeled_match_graph6_file(self, n, tmp_path):
        # the single graph ? (n = 0) or @ (n = 1) as a mask range and as a line
        path = tmp_path / "one.g6"
        path.write_text("?@"[n] + "\n")
        for krange in (KRange("all"), KRange("list", (1, 3, 9))):
            want = _report_text(scan(GraphSource("graph6-file", path=str(path)), BOUND_TAGS, krange))
            for jobs in (1, 2):
                rep = scan(GraphSource("all-labeled", n=n), BOUND_TAGS, krange, jobs=jobs)
                assert rep.graphs == 1 and _report_text(rep) == want

    def test_all_labeled_cap_raises_before_pool(self, monkeypatch):
        def no_worker(*args, **kwargs):
            raise AssertionError("a worker was started")

        monkeypatch.setattr(harness, "_start_worker", no_worker)
        with pytest.raises(GraphError, match="capped at n=7"):
            scan(GraphSource("all-labeled", n=8), ["brouwer"], jobs=2)

    def test_tasks_within_entry_budget(self, mixed_g6_file):
        sources = [GraphSource("all-labeled", n=n) for n in range(8)]
        sources.append(GraphSource("graph6-file", path=mixed_g6_file))
        sources.append(GraphSource("gnp", n=40, p=0.3, count=100, seed=2))
        sources.append(GraphSource("single", graph=make_family("complete:62")))
        for src in sources:
            tasks = list(harness._tasks(src))
            if src.kind == "all-labeled":
                n = src.n
                assert [lo for _, lo, _ in tasks] == [0] + [hi for _, _, hi in tasks[:-1]]
                assert tasks[-1][2] == 2 ** (n * (n - 1) // 2)
                assert all(n2 == n for n2, _, _ in tasks)
                entries = [(hi - lo) * n * n for _, lo, hi in tasks]
                sizes = [hi - lo for _, lo, hi in tasks]
            else:
                assert [g6 for task in tasks for g6 in task] == list(graph6_stream(src))
                entries = [sum((ord(g6[0]) - 63) ** 2 for g6 in task) for task in tasks]
                sizes = [len(task) for task in tasks]
            for size, used in zip(sizes, entries):
                assert used <= STACK_ENTRIES or size == 1

    def test_mask_range_records_name_their_graphs(self, monkeypatch, tmp_path):
        # brouwer violated everywhere (eps_k >= -|E|), star-arb skipped where
        # |E| = 3 (mod 4): every record names its graph by the graph6 of the
        # mask's edges. The cap goes in through star_arboricity_exact, which
        # the scan calls for star-arb's sa
        spec = bounds.bound_spec("brouwer")
        monkeypatch.setitem(
            bounds._REGISTRY,
            "brouwer",
            BoundSpec("brouwer", (), lambda size, k, aux: -100, spec.applicable, True),
        )
        real = decomposition.star_arboricity_exact

        def capped(g):
            if g.m % 4 == 3:
                raise SizeCapError("over the cap")
            return real(g)

        monkeypatch.setattr(decomposition, "star_arboricity_exact", capped)
        n = 5
        pairs = list(itertools.combinations(range(n), 2))
        names = [
            encode_graph6(Graph(n, tuple(e for i, e in enumerate(pairs) if mask >> i & 1)))
            for mask in range(2 ** len(pairs))
        ]
        capped_m = [g6 for g6 in names if parse_graph6(g6).m % 4 == 3]
        rep = scan(GraphSource("all-labeled", n=n), ["star-arb", "brouwer"], KRange("all"))
        assert [v["graph6"] for v in rep.violations] == [g6 for g6 in names for _ in range(n)]
        assert [(s["graph6"], s["bound"], s["reason"]) for s in rep.skipped] == [
            (g6, "star-arb", f"|E|={parse_graph6(g6).m} exceeds exact star-arboricity cap")
            for g6 in capped_m
        ]
        # equality examples: the same as a scan of those graph6 strings
        path = tmp_path / "al5.g6"
        path.write_text("".join(g6 + "\n" for g6 in names))
        by_file = scan(
            GraphSource("graph6-file", path=str(path)), ["star-arb", "brouwer"], KRange("all")
        )
        assert rep.equality_examples and rep.equality_examples == by_file.equality_examples
        assert _report_text(rep) == _report_text(by_file)

    def test_mask_range_ending_mid_stack(self):
        # masks 3..1999 on 6 vertices, off the stack_size(6) = 1820 grid of
        # _tasks and longer than its units: _stacks does not cut a unit, so
        # this is one stack, as the same graphs given as graph6 strings are;
        # the masks take the class route and the strings the per-graph one
        assert stack_size(6) == 1820
        plan = harness._Plan(tuple(BOUND_TAGS), KRange("all"), harness._class_spectra(6))
        by_mask = harness._scan_chunk(0, (6, 3, 2000), plan, {})
        g6s = list(itertools.islice(all_labeled_graph6(6), 3, 2000))
        assert by_mask == harness._scan_chunk(0, g6s, plan, {})
        assert by_mask.graphs == 1997 and by_mask.equality_examples

    @pytest.mark.parametrize(
        "krange", [KRange("all"), KRange("nminus2"), KRange("list", (1, 3, 9, 41))]
    )
    def test_mixed_n_file_matches_per_graph_api(self, krange, mixed_g6_file):
        graphs = _mixed_graphs()
        tags = list(BOUND_TAGS)
        rep = scan(GraphSource("graph6-file", path=mixed_g6_file), tags, krange)
        agg, equalities, skipped, max_ratio = _oracle_report(graphs, tags, krange)
        assert rep.graphs == len(graphs)
        assert [(s["graph6"], s["bound"], s["reason"]) for s in rep.skipped] == skipped
        assert skipped  # the dense n = 40 graphs exceed the sa and tau caps
        got = {
            key: [a.checked, a.violations, a.equalities, a.min_slack]
            for key, a in rep.aggregates.items()
        }
        assert got == agg
        assert rep.max_eps_over_k2 == max_ratio
        assert [
            (e["graph6"], e["bound"], e["k"], e["lhs"], e["rhs"])
            for e in rep.equality_examples
        ] == equalities
        for e in rep.equality_examples:
            lhs = eps_profile(parse_graph6(e["graph6"])).value(e["k"])
            assert e["lhs"].hex() == lhs.hex()

    def test_lenient_scan_skips_non_ascii_line(self, tmp_path, capsys):
        # there is no lenient scan: the non-ASCII line raises and nothing is printed
        path = tmp_path / "mixed.g6"
        path.write_bytes(b"A_\nB\xe9\nBw\n")  # one non-ASCII byte
        src = GraphSource("graph6-file", path=str(path))
        with pytest.raises(Graph6Error, match=f"{path}:2: .*byte offset 1"):
            scan(src, ["brouwer"], KRange("all"))
        assert capsys.readouterr() == ("", "")

    def test_violation_witness_records(self, monkeypatch, tmp_path):
        spec = bounds.bound_spec("brouwer")
        monkeypatch.setitem(
            bounds._REGISTRY,
            "brouwer",
            BoundSpec("brouwer", (), lambda size, k, aux: -1, spec.applicable, True),
        )
        for family in ("complete:5", "star:6"):
            g = make_family(family)
            out = tmp_path / "report.json"
            code = main(
                ["scan", "--family", family, "--bound", "brouwer",
                 "--format", "json", "--out", str(out)]
            )
            assert code == 1
            violations = json.loads(out.read_text())["violations"]
            prof = eps_profile(g)
            expected = [k for k in range(1, g.n + 1) if prof.value(k) > -1 + 1e-6]
            assert violations and [v["k"] for v in violations] == expected
            for v in violations:
                assert v["spectrum"] == list(spectrum(g).values)
                assert v["eps_profile"] == list(eps_profile(g).eps)
                assert parse_graph6(v["graph6"]) == g
                assert (v["n"], v["m"], v["rhs"]) == (g.n, g.m, -1.0)

    def test_failed_stacked_check_names_graph(self, monkeypatch, tmp_path):
        # a graph6 file takes the per-graph route: one stack of its 64 graphs
        graphs = list(all_labeled_graphs(4))
        path = tmp_path / "all4.g6"
        path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
        original = np.linalg.eigvalsh
        calls = []

        def perturbed(a, *args, **kwargs):
            vals = original(a, *args, **kwargs)
            calls.append(a.shape)
            if a.ndim == 3:
                vals[9, -1] += 1.0  # the largest eigenvalue: the sum check fails
                vals[20, 0] += 1.0
            return vals

        monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
        with pytest.raises(SpectralError, match=f"graph6 {encode_graph6(graphs[9])}: "):
            scan(GraphSource("graph6-file", path=str(path)), ["brouwer"], KRange("all"))
        assert calls == [(64, 4, 4)]

    def test_stacks_stay_within_entry_budget(self, monkeypatch, mixed_g6_file):
        original = np.linalg.eigvalsh
        shapes = []

        def recording(a, *args, **kwargs):
            shapes.append(a.shape)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        rep = scan(GraphSource("gnp", n=40, p=0.3, count=100, seed=1), ["brouwer"])
        assert rep.graphs == 100
        # one stacked call per work unit: 2^16 entries hold 40 graphs on 40 vertices
        assert shapes == [(40, 40, 40), (40, 40, 40), (20, 40, 40)]
        assert all(s[0] * s[1] * s[2] <= STACK_ENTRIES for s in shapes)
        # a mixed-n file: one call per (unit, n) group, in the unit's order of n
        shapes.clear()
        src = GraphSource("graph6-file", path=mixed_g6_file)
        rep = scan(src, ["brouwer"])
        groups = []
        for task in harness._tasks(src):
            counts = collections.Counter(ord(g6[0]) - 63 for g6 in task)
            groups.extend((count, n, n) for n, count in counts.items())
        assert len(groups) > 2 and shapes == groups
        assert sum(s[0] for s in shapes) == rep.graphs == len(_mixed_graphs())
        assert all(s[0] * s[1] * s[2] <= STACK_ENTRIES for s in shapes)

    def test_sa_skip_record_for_large_graphs(self):
        g = make_family("complete:9")  # 36 edges, beyond the exact-sa cap
        rep = scan(single(g), ["star-arb", "brouwer"], KRange("list", (1,)))
        assert len(rep.skipped) == 1
        assert rep.skipped[0]["bound"] == "star-arb"
        assert "cap" in rep.skipped[0]["reason"]
        # the other bound still ran
        assert rep.aggregates[("brouwer", 1)].checked == 1

    def test_json_shape(self):
        rep = scan(single(make_family("complete:4")), ["brouwer"], KRange("all"))
        doc = rep.to_json_dict()
        assert doc["schema"] == 1
        assert set(doc) == {
            "schema", "source", "bounds", "totals", "violations",
            "equalities", "skipped", "runtime_ms",
        }
        assert doc["totals"]["graphs"] == 1
        json.dumps(doc)  # serializable

    def test_csv_shape(self):
        rep = scan(single(make_family("complete:4")), ["brouwer"], KRange("all"))
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "bound,k,checked,violations,equalities,min_slack"
        assert len(lines) == 5

    def test_equality_examples_recorded(self):
        # K5, matching-thm, k=4 is a known equality case
        rep = scan(single(make_family("complete:5")), ["matching-thm"], KRange("all"))
        eqs = [e for e in rep.equality_examples if e["k"] == 4]
        assert len(eqs) == 1
        assert abs(eqs[0]["slack"]) <= EQUALITY_TOL

    def test_max_eps_ratio_logged(self):
        rep = scan(single(make_family("complete:5")), ["brouwer"], KRange("all"))
        assert rep.max_eps_over_k2 > 0

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            scan(GraphSource("all-labeled", n=3), [], KRange("all"))
        with pytest.raises(KeyError):
            scan(GraphSource("all-labeled", n=3), ["nope"], KRange("all"))

    def test_violation_invariant(self):
        # all theorem aggregates: violations empty <=> min slack >= -1e-6
        rep = scan(GraphSource("all-labeled", n=3), ["bai", "cover"], KRange("all"))
        assert rep.violations == []
        assert all(a.min_slack >= -1e-6 for a in rep.aggregates.values())


def _rows_per_call(monkeypatch, name, arg) -> list:
    """Record the rows of argument ``arg`` of each call to ``spectral.name``
    in the scans that follow."""
    rows, real = [], getattr(spectral, name)

    def counting(*args):
        rows.append(len(args[arg]))
        return real(*args)

    monkeypatch.setattr(spectral, name, counting)
    return rows


def _misclassified(monkeypatch, mask, like):
    """Give edge mask ``mask`` the class of mask ``like`` in the class tables
    of the scans that follow."""
    real = harness.labeled_classes

    def wrong(n):
        reps, class_of = real(n)
        class_of[mask] = class_of[like]
        return reps, class_of

    monkeypatch.setattr(harness, "labeled_classes", wrong)


def _mask_graph6(n, mask):
    pairs = list(itertools.combinations(range(n), 2))
    return encode_graph6(Graph(n, tuple(e for i, e in enumerate(pairs) if mask >> i & 1)))


class TestClassSpectra:
    """All-labeled scans: one spectrum per isomorphism class, and a graph's
    own spectrum only where the report reads its float."""

    @pytest.mark.parametrize(
        "n, tags, kranges",
        [
            *((n, ["brouwer"], (KRange("all"), KRange("nminus2"), KRange("list", (1, 3, 9))))
              for n in range(7)),
            # a right-hand side that varies within a stack: the largest
            # eps/k^2, 1.0000000000000009 by its graph's own float, is on a
            # row that is no equality and no least slack
            (6, ["half-component"], (KRange("all"),)),
        ],
    )
    def test_reports_equal_the_per_graph_route(self, n, tags, kranges, tmp_path):
        path = tmp_path / "all.g6"
        path.write_text("".join(g6 + "\n" for g6 in all_labeled_graph6(n)))
        for krange in kranges:
            want = _report_text(scan(GraphSource("graph6-file", path=str(path)), tags, krange))
            got = _report_text(scan(GraphSource("all-labeled", n=n), tags, krange))
            assert got == want, (n, krange)

    def test_read_rows_rule(self):
        # one bound at k = 1: a row is read when a shift of its slack by
        # MARGIN either way makes it an equality or a violation, or when it
        # lies within MARGIN of the least slack or of the largest eps/k^2
        m, tol, k = harness.MARGIN, EQUALITY_TOL, np.array([1])
        slack = np.array([5.0, tol + m / 2, tol + 2 * m, -tol - 2 * m, 0.0, -tol + m / 2])
        read = harness._read_rows(10 - slack[:, None], np.full((1, 6, 1), 10.0), k)
        assert read.tolist() == [False, True, False, True, True, True]
        lhs = np.array([[10.0], [8 - m / 2], [8.0], [6.0]])
        rhs = np.array([20.0, 10.0, 10.0, 10.0])[None, :, None]  # slacks 10, 2 + m/2, 2, 4
        assert harness._read_rows(lhs, rhs, k).tolist() == [True, True, True, False]

    @pytest.mark.parametrize("tags, read", [(("brouwer",), 2889), (THEOREM_TAGS, 32768)])
    def test_rows_given_to_eigvalsh(self, monkeypatch, tags, read):
        # work pin: the 156 class representatives in one stack, then the
        # rows whose float the report reads. The brouwer equalities are
        # threshold graphs; bai's k = n check is the trace identity, an
        # equality on every graph, so a theorem scan reads every row
        rows = _rows_per_call(monkeypatch, "graph6_spectra", 1)
        rep = scan(GraphSource("all-labeled", n=6), tags)
        assert rep.graphs == 32768
        assert rows[0] == 156 and sum(rows[1:]) == read

    def test_spectrum_fault_checks_every_computed_row(self, monkeypatch):
        computed = _rows_per_call(monkeypatch, "graph6_spectra", 1)
        checked = _rows_per_call(monkeypatch, "spectrum_fault", 0)
        scan(GraphSource("all-labeled", n=6), ["brouwer"])
        assert checked == computed and computed[0] == 156 and len(computed) == 20

    @pytest.mark.parametrize("mask", [1, 2])
    def test_failed_check_names_representative_or_member(self, monkeypatch, mask):
        # mask 1, the edge 01, is its class's least mask; mask 2, the edge
        # 02, is in that class, and as a brouwer equality it is read
        n = 6
        bad = graph6_laplacians(n, mask_bits(n, mask, mask + 1))[0]
        original = np.linalg.eigvalsh

        def perturbed(a, *args, **kwargs):
            vals = original(a, *args, **kwargs)
            vals[(a == bad).all(axis=(1, 2)), -1] += 1.0  # the sum check fails
            return vals

        monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
        for jobs in (1, 2):
            with pytest.raises(SpectralError, match=f"^graph6 {re.escape(_mask_graph6(n, mask))}: "):
                scan(GraphSource("all-labeled", n=n), ["brouwer"], jobs=jobs)
            assert multiprocessing.active_children() == []

    def test_wrong_class_raises(self, monkeypatch):
        # mask 2 (the edge 02) given the class of mask 3 (the path 1-0-2):
        # both are brouwer equalities at k = 1, so the row is read, and its
        # own spectrum is 1 away from the class's. Unit 0 runs in a worker
        # at jobs 2
        _misclassified(monkeypatch, 2, 3)
        for jobs in (1, 2):
            with pytest.raises(AlgorithmError, match=(
                f"^graph6 {re.escape(_mask_graph6(6, 2))}: spectrum differs from its "
                "isomorphism class's by 1.0"
            )):
                scan(GraphSource("all-labeled", n=6), ["brouwer"], jobs=jobs)
            assert multiprocessing.active_children() == []

    def test_wrong_class_raises_under_optimize(self):
        code = (
            "from lapsum import harness\n"
            "from lapsum.graphs import AlgorithmError, GraphSource\n"
            "real = harness.labeled_classes\n"
            "def wrong(n):\n"
            "    reps, class_of = real(n)\n"
            "    class_of[2] = class_of[3]\n"
            "    return reps, class_of\n"
            "harness.labeled_classes = wrong\n"
            "try:\n"
            "    harness.scan(GraphSource('all-labeled', n=6), ['brouwer'])\n"
            "except AlgorithmError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(lapsum.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout.startswith(
            f"graph6 {_mask_graph6(6, 2)}: spectrum differs from its isomorphism class's"
        )


def _counting_starts(monkeypatch) -> list:
    """Record each worker start of the scans that follow."""
    starts = []
    real = harness._start_worker

    def counting(*args):
        starts.append(args)
        return real(*args)

    monkeypatch.setattr(harness, "_start_worker", counting)
    return starts


def _g40_file(tmp_path, count, tail=""):
    """A graph6 file of ``count`` G(40, 0.3) graphs, 40 to a work unit, then
    the lines ``tail``."""
    path = tmp_path / "g40.g6"
    graphs = gnp_graphs(40, 0.3, count, 5)
    path.write_text("".join(encode_graph6(g) + "\n" for g in graphs) + tail)
    return str(path)


class TestWorkers:
    """The worker route: this process plus up to jobs - 1 workers."""

    def test_no_more_workers_than_units(self, monkeypatch, tmp_path):
        starts = _counting_starts(monkeypatch)
        src = single(parse_graph6("E?zw"))
        want = _report_text(scan(src, ["brouwer"]))
        assert _report_text(scan(src, ["brouwer"], jobs=4)) == want
        assert starts == []
        src = GraphSource("graph6-file", path=_g40_file(tmp_path, 41))
        assert len(list(harness._tasks(src))) == 2
        want = _report_text(scan(src, ["brouwer"]))
        assert _report_text(scan(src, ["brouwer"], jobs=3)) == want
        assert len(starts) == 1
        assert multiprocessing.active_children() == []

    def test_each_process_sends_one_folded_report(self):
        # all-labeled:6 is 19 units: two workers and this process, one pair each
        src = GraphSource("all-labeled", n=6)
        plan = harness._Plan(("brouwer",), KRange("all"), harness._class_spectra(6))
        shares = harness._shares(harness._tasks(src), plan, 3)
        assert len(shares) == 3
        assert all(isinstance(report, ScanReport) and failure is None for report, failure in shares)
        assert sum(report.graphs for report, _ in shares) == 32768
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "masks, named",
        [((9, 2016), 9), ((2016, 3683), 2016), ((3683,), 3683)],
    )
    def test_failed_unit_raises_the_jobs_1_error(self, monkeypatch, masks, named):
        # all-labeled:6 is 19 units of 1820 masks: at jobs 2 a worker runs
        # units 0, 2, 4, ... and this process 1, 3, ...; at jobs 3 this
        # process runs units 2, 5, ... Masks 9, 2016 and 3683, in units 0, 1
        # and 2, are no class's least mask, and the brouwer scan computes
        # their own spectra
        n = 6
        bad = graph6_laplacians(n, np.concatenate([mask_bits(n, m, m + 1) for m in masks]))
        original = np.linalg.eigvalsh

        def perturbed(a, *args, **kwargs):
            vals = original(a, *args, **kwargs)
            if a.ndim == 3:
                hit = (a[:, None] == bad[None]).all(axis=(2, 3)).any(axis=1)
                vals[hit, -1] += 1.0  # the largest eigenvalue: the sum check fails
            return vals

        monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
        g6 = encode_graph6(bits_graph(n, mask_bits(n, named, named + 1)[0]))
        for jobs in (1, 2, 3):
            with pytest.raises(SpectralError, match=f"^graph6 {re.escape(g6)}: "):
                scan(GraphSource("all-labeled", n=n), ["brouwer"], jobs=jobs)
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("line", [2, 101])
    def test_strict_graph6_error_names_its_line(self, tmp_path, line):
        path = _g40_file(tmp_path, line - 1, "B!\nBw\n")
        src = GraphSource("graph6-file", path=path)
        for stream in (graph6_stream, graph_stream):
            with pytest.raises(Graph6Error, match=f"{re.escape(path)}:{line}: "):
                list(stream(src))
        for jobs in (1, 2, 3):
            with pytest.raises(Graph6Error, match=f"{re.escape(path)}:{line}: "):
                scan(src, ["brouwer"], jobs=jobs)
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
    def test_parent_error_stops_the_workers(self, monkeypatch, error):
        starts = _counting_starts(monkeypatch)
        parent, real = os.getpid(), harness._scan_chunk

        def failing(*args):
            if os.getpid() == parent:
                raise error("stop")
            return real(*args)

        monkeypatch.setattr(harness, "_scan_chunk", failing)
        for jobs in (2, 3):
            with pytest.raises(error, match="stop"):
                scan(GraphSource("all-labeled", n=6), ["brouwer"], jobs=jobs)
            assert multiprocessing.active_children() == []
        assert len(starts) == 3

    def test_worker_exit_raises(self, monkeypatch):
        parent, real = os.getpid(), harness._scan_chunk

        def exiting(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(harness, "_scan_chunk", exiting)
        with pytest.raises((RuntimeError, OSError)):
            scan(GraphSource("all-labeled", n=6), ["brouwer"], jobs=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_start_methods_give_the_jobs_1_report(self, method, tmp_path):
        # a spawned or forkserver worker inherits nothing: the class table
        # reaches it only through its start arguments
        script = tmp_path / "start_method.py"
        script.write_text(START_METHOD_SCRIPT)
        src = str(Path(lapsum.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, str(script), method], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=300, check=True,
        )
        assert out.stdout.splitlines() == [
            f"{method} all-labeled 5 theorem: 0 workers, same report",
            f"{method} all-labeled 6 brouwer: 2 workers, same report",
        ]


#: run as a script with a start method: ``scan`` at jobs 1 and 3 through
#: ``cli.main``, the reports compared without ``runtime_ms``
START_METHOD_SCRIPT = """
import contextlib, io, json, multiprocessing, sys
from lapsum import harness
from lapsum.cli import main


def report(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    doc = json.loads(buf.getvalue())
    doc.pop("runtime_ms")
    return code, json.dumps(doc, indent=2)


if __name__ == "__main__":
    method = sys.argv[1]
    multiprocessing.set_start_method(method)
    starts, real = [], harness._start_worker
    harness._start_worker = lambda *args: starts.append(args) or real(*args)
    for n, bound in (("5", "theorem"), ("6", "brouwer")):
        argv = ["scan", "--all-labeled", n, "--bound", bound, "--format", "json"]
        one = report([*argv, "--jobs", "1"])
        del starts[:]
        three = report([*argv, "--jobs", "3"])
        assert multiprocessing.active_children() == []
        same = "same report" if one == three else "DIFFERENT reports"
        print(f"{method} all-labeled {n} {bound}: {len(starts)} workers, {same}")
"""


#: README's three tightness tables: (bound, families, k range)
README_PROBES = [
    ("matching-thm", [f"complete:{n}" for n in (3, 5, 7, 9)], KRange("all")),
    ("matching-thm", [f"star:{n}" for n in range(2, 11)], KRange("list", (1,))),
    ("conj-cover", [f"split-s:{n},{r}" for n in range(2, 10) for r in range(1, n + 1)],
     KRange("all")),
]


class TestProbe:
    @pytest.mark.parametrize("bound, families, krange", README_PROBES)
    def test_rows_match_per_graph_api(self, bound, families, krange):
        rows = iter(tightness_probe(families, bound, krange))
        for fam in families:
            g = make_family(fam)
            aux, _ = _oracle_aux(g, aux_requirements([bound]))
            for k in krange.values(g.n):
                row, res = next(rows), evaluate_bound(bound, g, k, aux)
                assert (row.family, row.graph6, row.k) == (fam, encode_graph6(g), k)
                got = [row.lhs.hex(), row.rhs.hex(), row.slack.hex(), row.applicable]
                assert got == [res.lhs.hex(), res.rhs.hex(), res.slack.hex(), res.applicable]
        assert next(rows, None) is None

    def test_capped_family_raises(self):
        with pytest.raises(SizeCapError) as exc:
            tightness_probe(["star:3", "complete:9"], "star-arb")
        assert str(exc.value) == "probe of complete:9: |E|=36 exceeds exact star-arboricity cap"

    def test_complete_graph_equalities(self):
        rows = tightness_probe(
            [f"complete:{n}" for n in (3, 5, 7)], "matching-thm"
        )
        for n in (3, 5, 7):
            row = next(
                r for r in rows if r.family == f"complete:{n}" and r.k == n - 1
            )
            assert row.equality, row

    def test_star_k1_equalities(self):
        rows = tightness_probe(
            [f"star:{n}" for n in range(2, 11)], "matching-thm", KRange("list", (1,))
        )
        assert all(r.equality for r in rows)

    def test_split_family_conj_cover(self):
        rows = tightness_probe(["split-s:6,2"], "conj-cover")
        for r in rows:
            if 2 <= r.k <= 5:
                assert r.applicable and r.equality, r

    def test_csv_output(self):
        rows = tightness_probe(["complete:4"], "brouwer", KRange("list", (1,)))
        csv = probe_table_csv(rows)
        assert csv.startswith("family,graph6,k,")
        assert "complete:4" in csv
