import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lapsum
from lapsum.bounds import THEOREM_TAGS
from lapsum.cli import main
from lapsum.graphs import all_labeled_graphs, encode_graph6, gnp_graphs, parse_edge_list
from lapsum.graphs import parse_graph6
from lapsum.spectral import spectrum

from test_harness import _mixed_graphs

#: an edge-list file: a 5-cycle with a chord, and one isolated vertex
EDGE_LIST = "6 6\n0 1\n1 2\n2 3\n3 4\n0 4\n1 3\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSingleGraphCommands:
    def test_stararbor_triangle(self, capsys):
        code, out, _ = run(capsys, "stararbor", "--graph6", "Bw")
        assert code == 0 and out.strip() == "2"

    def test_eps_star(self, capsys):
        code, out, _ = run(capsys, "eps", "--family", "star:6", "--k", "1")
        assert code == 0 and float(out.strip()) == pytest.approx(1.0)

    def test_spectrum_csv_row(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--graph6", "Bw")
        parts = out.strip().split(",")
        assert code == 0
        assert parts[:3] == ["Bw", "3", "3"]
        assert float(parts[3]) == pytest.approx(3.0)

    def test_density_json(self, capsys):
        code, out, _ = run(
            capsys, "density", "--family", "complete:4", "--format", "json"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["density"] == {"num": 3, "den": 2}

    def test_parden_and_bracket(self, capsys):
        code, out, _ = run(capsys, "parden", "--family", "complete:4", "--format", "json")
        assert code == 0 and json.loads(out)["partition_density"] == {"num": 3, "den": 2}

    def test_orient_feasible_and_not(self, capsys):
        code, out, _ = run(
            capsys, "orient", "--family", "cycle:5", "--k", "1", "--format", "json"
        )
        assert code == 0 and json.loads(out)["feasible"] is True
        code, out, _ = run(
            capsys, "orient", "--family", "complete:4", "--k", "1", "--format", "json"
        )
        assert code == 0 and json.loads(out)["feasible"] is False

    def test_match_cover_oddcover_arbor(self, capsys):
        code, out, _ = run(capsys, "match", "--family", "cycle:5", "--format", "json")
        assert code == 0 and json.loads(out)["nu"] == 2
        code, out, _ = run(capsys, "cover", "--family", "cycle:5", "--format", "json")
        assert code == 0 and json.loads(out)["tau"] == 3
        code, out, _ = run(capsys, "oddcover", "--graph6", "Bw", "--format", "json")
        assert code == 0 and json.loads(out)["weight"] == 1
        code, out, _ = run(capsys, "arbor", "--family", "complete:4", "--format", "json")
        assert code == 0 and json.loads(out)["arboricity"] == 2

    def test_structure_and_pipeline(self, capsys):
        code, out, _ = run(
            capsys, "structure", "--family", "star:9", "--k", "1", "--format", "json"
        )
        assert code == 0 and json.loads(out)["C"] == [0]
        code, out, _ = run(
            capsys, "pipeline", "--family", "star:9", "--k", "2", "--format", "json"
        )
        doc = json.loads(out)
        assert code == 0 and doc["route"] == "2a"
        # k > 100 takes the (k,c)-assignment route, which succeeds on the first try here
        code, out, _ = run(
            capsys, "pipeline", "--family", "kbip:101,151", "--k", "101",
            "--parden-mode", "assume", "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0 and (doc["route"], doc["assignment"]) == ("assignment", "found")
        assert (doc["tries"], doc["c"], doc["aux_n"], doc["aux_m"]) == (1, 44, 253, 15251)

    def test_file_inputs(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_text("3 2\n0 1\n1 2\n")
        code, out, _ = run(capsys, "match", "--file", str(p), "--format", "json")
        assert code == 0 and json.loads(out)["nu"] == 1
        p6 = tmp_path / "g.g6"
        p6.write_text("Bw\n")
        code, out, _ = run(capsys, "stararbor", "--file", str(p6))
        assert code == 0 and out.strip() == "2"

    def test_family_beyond_graph6_size(self, capsys):
        # graph6 short form stops at n = 62; a family graph never passes through it
        code, out, _ = run(capsys, "match", "--family", "star:70", "--format", "json")
        assert code == 0 and json.loads(out)["nu"] == 1
        # the star K_{1,69} has Laplacian spectrum 70, 1 (68 times), 0, so
        # eps_k = 70 + (k - 1) - 69 = k up to k = 69, and eps_70 = 2|E| - |E| = 69
        code, out, _ = run(capsys, "eps", "--family", "star:70", "--k", "all", "--format", "json")
        doc = json.loads(out)
        assert code == 0 and list(doc) == [f"eps_{k}" for k in range(1, 71)]
        assert list(doc.values()) == pytest.approx([min(k, 69) for k in range(1, 71)], abs=1e-9)

    def test_graph6_file_led_by_comment(self, tmp_path, capsys):
        p6 = tmp_path / "g.g6"
        p6.write_text("# a triangle\n\nBw\n")
        code, out, _ = run(capsys, "stararbor", "--file", str(p6))
        assert code == 0 and out == "2\n"

    def test_edge_list_led_by_comment(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_text("# a path\n\n3 2\n0 1\n1 2\n")
        code, out, _ = run(capsys, "match", "--file", str(p), "--format", "json")
        assert code == 0 and json.loads(out)["nu"] == 1

    @pytest.mark.parametrize("argv", [["match"], ["scan", "--bound", "all"]])
    def test_edge_list_repeated_pair_exit_2(self, tmp_path, capsys, argv):
        p = tmp_path / "g.txt"
        p.write_text("3 3\n0 1\n1 0\n1 2\n")
        code, out, err = run(capsys, *argv, "--file", str(p))
        assert (code, out) == (2, "")
        assert err.startswith("error: repeated edge (0,1)")

    def test_empty_file(self, tmp_path, capsys):
        p = tmp_path / "empty.g6"
        p.write_text("# nothing\n")
        code, _, err = run(capsys, "density", "--file", str(p))
        assert code == 2 and err == f"error: no graph in graph6-file:{p}\n"

    def test_spectrum_edge_list_file(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_text(EDGE_LIST)
        code, by_file, _ = run(capsys, "spectrum", "--file", str(p))
        assert code == 0
        g6 = encode_graph6(parse_edge_list(EDGE_LIST))
        assert (code, by_file) == run(capsys, "spectrum", "--graph6", g6)[:2]


class TestExitCodes:
    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "eps", "--family", "star:6")  # missing --k
        assert code == 2 and "error:" in err

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2

    def test_bad_graph6(self, capsys):
        code, _, err = run(capsys, "match", "--graph6", "B")
        assert code == 2 and err.startswith("error:")

    def test_size_cap_exit_3(self, capsys):
        code, _, err = run(capsys, "stararbor", "--family", "complete:9")
        assert code == 3 and err.startswith("error:")

    def test_parden_cap_exit_3(self, capsys):
        code, _, err = run(capsys, "parden", "--family", "complete:21")
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [["probe", "--bound", "brouwer"], ["scan", "--bound", "brouwer"], ["spectrum"]],
    )
    def test_graph6_named_output_past_n_62_exit_2(self, capsys, argv):
        # probe, scan and spectrum name each graph in graph6 short form
        code, out, err = run(capsys, *argv, "--family", "star:70")
        assert (code, out) == (2, "")
        assert err == "error: graph6 short form supports n <= 62, got n=70\n"

    @pytest.mark.parametrize("argv", [["scan", "--graph6", "E?zw"], ["probe", "--family", "star:4"]])
    def test_unknown_bound_exit_2(self, capsys, argv):
        # the message itself, not str() of the KeyError, which quotes it
        code, out, err = run(capsys, *argv, "--bound", "nope")
        assert (code, out) == (2, "")
        assert err == "error: unknown bound id 'nope'\n"

    def test_k_range_names_every_form(self, capsys):
        # "n-2" is not a spelling of nminus2
        code, out, err = run(capsys, "scan", "--graph6", "E?zw", "--bound", "brouwer", "--k", "n-2")
        assert (code, out) == (2, "")
        assert err == "error: bad k range 'n-2'; expected 'all', 'nminus2' or a list like 1,2,3\n"


class TestScanCommand:
    def test_scan_clean_exit_0(self, capsys):
        # --jobs 2 and 3 run the worker route (all-labeled:6 is 19 work units);
        # their reports must equal the --jobs 1 report but for runtime_ms
        docs = []
        for jobs in ("1", "2", "3"):
            code, out, _ = run(
                capsys, "scan", "--all-labeled", "6", "--bound", "brouwer",
                "--format", "json", "--jobs", jobs,
            )
            doc = json.loads(out)
            assert code == 0 and doc["schema"] == 1 and doc["totals"]["violations"] == 0
            doc.pop("runtime_ms")
            docs.append(doc)
        assert docs[1] == docs[0] and docs[2] == docs[0]

    def test_scan_bad_file_names_offset_once(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        path.write_text("A_\nB!\n")
        code, out, err = run(capsys, "scan", "--file", str(path), "--bound", "brouwer")
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path}:2: character '!' outside graph6 range 63..126 (byte offset 1)\n"
        )

    def test_scan_csv_and_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.csv"
        code, out, _ = run(
            capsys, "scan", "--all-labeled", "3", "--bound", "bai,cover",
            "--format", "csv", "--out", str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("bound,k,")

    def test_scan_edge_list_file(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_text(EDGE_LIST)
        g6 = encode_graph6(parse_edge_list(EDGE_LIST))
        docs = []
        for flag, value in (("--file", str(p)), ("--graph6", g6)):
            code, out, _ = run(capsys, "scan", flag, value, "--bound", "all", "--format", "json")
            doc = json.loads(out)
            assert code == 0 and doc.pop("source") == f"single:{g6}"
            doc.pop("runtime_ms")
            docs.append(doc)
        assert docs[0] == docs[1] and docs[0]["totals"]["graphs"] == 1

    def test_graph6_scan_encodes_its_graph_once(self, monkeypatch, capsys):
        """The source name and the scanned row share one graph6 encoding."""
        import lapsum.graphs
        import lapsum.harness

        calls = []

        def counting(g):
            calls.append(g)
            return encode_graph6(g)

        monkeypatch.setattr(lapsum.graphs, "encode_graph6", counting)
        monkeypatch.setattr(lapsum.harness, "encode_graph6", counting)
        code, out, _ = run(capsys, "scan", "--graph6", "E?zw", "--bound", "theorem",
                           "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["source"] == "single:E?zw"
        assert doc["totals"]["graphs"] == 1 and len(calls) == 1

    def test_scan_csv_stdout_ends_in_one_newline(self, tmp_path, capsys):
        out_path = tmp_path / "report.csv"
        argv = ("scan", "--all-labeled", "3", "--bound", "bai", "--format", "csv")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.endswith(",0.0\n")
        assert run(capsys, *argv, "--out", str(out_path))[:2] == (0, "")
        assert out_path.read_text() == out

    def test_scan_k_list(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--all-labeled", "3", "--bound", "brouwer",
            "--k", "1,2", "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0 and doc["totals"]["checks"] == 8 * 2

    def test_scan_gnp_source(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--gnp", "8", "0.5", "5", "3", "--bound", "bai",
            "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0 and doc["totals"]["graphs"] == 5

    def test_scan_bound_group(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--all-labeled", "3", "--bound", "theorem,brouwer",
            "--k", "1", "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["bounds"] == list(THEOREM_TAGS) + ["brouwer"]
        assert doc["totals"]["checks"] == 8 * (len(THEOREM_TAGS) + 1)

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--all-labeled", "3", "--jobs", "0"], "jobs must be at least 1, got 0"),
            (["--all-labeled", "3", "--jobs", "-3"], "jobs must be at least 1, got -3"),
            (["--gnp", "5", "0.5", "-3", "1"], "count must be at least 0, got -3"),
        ],
    )
    def test_scan_out_of_range_input_exit_2(self, capsys, args, message):
        code, out, err = run(capsys, "scan", *args, "--bound", "brouwer")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_scan_bad_bound(self, capsys):
        code, _, err = run(
            capsys, "scan", "--all-labeled", "3", "--bound", "nope"
        )
        assert code == 2 and "error:" in err


class TestProbeCommand:
    def test_probe_csv(self, capsys):
        code, out, _ = run(
            capsys, "probe", "--family", "complete:5", "--bound", "matching-thm",
            "--k", "4",
        )
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("complete:5")][0]
        assert line.rstrip().endswith(",1")  # equality flag

    def test_probe_json_multiple_families(self, capsys):
        code, out, _ = run(
            capsys, "probe", "--family", "star:3", "--family", "star:4",
            "--bound", "matching-thm", "--k", "1", "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0 and len(doc) == 2
        assert all(row["equality"] for row in doc)


def oracle_rows(graphs) -> str:
    """``lapsum spectrum`` output by the per-graph API: one row per graph."""
    return "".join(
        ",".join([encode_graph6(g), str(g.n), str(g.m), *map(repr, spectrum(g).values)]) + "\n"
        for g in graphs
    )


class TestSpectrumCommand:
    """``lapsum spectrum`` reads the scan's stacked spectra; the per-graph
    ``spectrum`` is the oracle, bit for bit."""

    @pytest.mark.parametrize("n", range(6))
    def test_all_labeled(self, capsys, n):
        code, out, _ = run(capsys, "spectrum", "--all-labeled", str(n))
        assert code == 0 and out == oracle_rows(all_labeled_graphs(n))

    def test_gnp_source(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--gnp", "9", "0.4", "30", "5")
        assert code == 0 and out == oracle_rows(gnp_graphs(9, 0.4, 30, seed=5))

    def test_mixed_n_file_in_source_order(self, tmp_path, capsys):
        graphs = _mixed_graphs()
        path = tmp_path / "mixed.g6"
        path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
        code, out, _ = run(capsys, "spectrum", "--file", str(path))
        assert code == 0 and out == oracle_rows(graphs)

    def test_graph6_file_with_comments_and_tiny_graphs(self, tmp_path, capsys):
        path = tmp_path / "tiny.g6"
        path.write_text("# no vertex, one vertex, a triangle\n\n?\n@\n\n# last\nBw\n")
        code, out, _ = run(capsys, "spectrum", "--file", str(path))
        assert code == 0 and out == oracle_rows(map(parse_graph6, ("?", "@", "Bw")))
        assert out.splitlines()[:2] == ["?,0,0", "@,1,0,0.0"]

    def test_malformed_line_mid_file(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        path.write_text("A_\nBw\nB!\nBw\n")
        code, out, err = run(capsys, "spectrum", "--file", str(path))
        assert code == 2
        assert err == (
            f"error: {path}:3: character '!' outside graph6 range 63..126 (byte offset 1)\n"
        )
        # the rows before the bad line are written, as they were per graph
        assert out == oracle_rows(map(parse_graph6, ("A_", "Bw")))


class TestOutputRoute:
    """Every command writes through one writer: ``--out`` and ``--format``
    hold for all of them, and ``--format`` offers only what is written."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", "--all-labeled", "3"),
            ("eps", "--family", "star:6", "--k", "1"),
            ("stararbor", "--graph6", "Bw"),
        ],
    )
    def test_out_file(self, tmp_path, capsys, argv):
        code, want, _ = run(capsys, *argv)
        out_path = tmp_path / "out.txt"
        assert run(capsys, *argv, "--out", str(out_path)) == (code, "", "")
        assert code == 0 and want and out_path.read_text() == want

    def test_scalar_payloads_as_json(self, tmp_path, capsys):
        # a bare number reads the same as text and as JSON on stdout; the
        # --out file shows that the JSON route wrote it
        out_path = tmp_path / "out.json"
        for argv, want in (
            (("eps", "--family", "star:6", "--k", "1"), pytest.approx(1.0)),
            (("stararbor", "--graph6", "Bw"), 2),
        ):
            code, out, _ = run(capsys, *argv, "--format", "json")
            assert code == 0 and json.loads(out) == want
            assert run(capsys, *argv, "--format", "json", "--out", str(out_path))[:2] == (0, "")
            assert out_path.read_text() == out

    @pytest.mark.parametrize(
        "argv",
        [
            ("density", "--family", "complete:4", "--format", "csv"),
            ("spectrum", "--graph6", "Bw", "--format", "json"),
            ("scan", "--all-labeled", "3", "--bound", "bai", "--format", "text"),
        ],
    )
    def test_format_not_written_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")

    def test_scan_writes_csv_by_default(self, capsys):
        argv = ("scan", "--all-labeled", "4", "--bound", "theorem")
        code, out, _ = run(capsys, *argv)
        assert (code, out) == run(capsys, *argv, "--format", "csv")[:2]
        assert out.startswith("bound,k,checked,")


#: runs ``lapsum`` with the brouwer bound violated by every graph
VIOLATED = """
import sys
from lapsum import bounds
from lapsum.cli import main
spec = bounds.bound_spec("brouwer")
bounds._REGISTRY["brouwer"] = bounds.BoundSpec(
    "brouwer", (), lambda size, k, aux: -100, spec.applicable, True
)
sys.exit(main(sys.argv[1:]))
"""


class TestClosedPipe:
    """A reader that closes stdout early ends the command quietly, with the
    command's own exit code."""

    def close_after(self, lines, *argv):
        """Run python with ``argv``, read ``lines`` lines of its stdout, close
        the pipe; return the exit code, the lines read and stderr."""
        src = str(Path(lapsum.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, *argv], env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        read = [proc.stdout.readline() for _ in range(lines)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return proc.wait(timeout=60), read, err

    def test_spectrum_exits_0(self):
        # 32768 rows, written unit by unit: far more than a pipe holds
        code, read, err = self.close_after(
            1, "-m", "lapsum.cli", "spectrum", "--all-labeled", "6"
        )
        assert (code, read, err) == (0, ["E???,6,0,0.0,0.0,0.0,0.0,0.0,0.0\n"], "")

    @pytest.mark.parametrize("lines", [0, 1])
    def test_scan_with_violations_exits_1(self, lines):
        # the report is written in one piece once the scan is done: with no
        # line read, the pipe is closed before that write
        argv = ("scan", "--all-labeled", "5", "--bound", "brouwer", "--format", "json")
        code, read, err = self.close_after(lines, "-c", VIOLATED, *argv)
        assert (code, read, err) == (1, ["{\n"][:lines], "")
