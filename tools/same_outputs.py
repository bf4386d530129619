"""Compare the outputs of `lapsum scan`, `lapsum probe`, `lapsum spectrum` and
the single-graph commands of this checkout with another checkout's.

    python3 tools/same_outputs.py PARENT_CHECKOUT

Runs one fixed list of cases through ``lapsum.cli.main`` in this tree and in
PARENT_CHECKOUT, each tree in its own interpreter that imports lapsum from the
tree's ``src/``. Every scan case runs at ``--jobs`` 1, 2 and 3, once with
``--format json`` and once with ``--format csv``; each single-graph case runs
once as text and once as JSON, and so does each of the commands that read
components, bipartiteness or forest depths on two disconnected graphs, each
of the commands run on an edge-list file, and ``eps`` (``--k all`` and
``--k 3``) on those inputs and on ``star:70`` and ``kbip:30,40``, past
graph6's n <= 62, and so does ``oddcover`` on ``complete:7`` and ``path:6``;
each probe case runs once, in the format it names, and each spectrum case
once.
The compared text is the exit code plus the output: scan JSON without
``runtime_ms`` (the one field that is not deterministic), everything else as
written, so a capped probe, which writes nothing, compares by its exit code.
Prints one line per case and exits 1 on any difference. The input files are
written once, to a temporary directory, by this tree's lapsum; the mixed-n
file is the one ``tests/test_harness.py`` scans, and the edge-list file holds
the edges of the single graph, each pair reversed and the lines in reverse
order; the commented file holds the mixed-n graphs with ``#`` comment lines,
blank lines and lines padded with spaces, and this tree's spectrum rows of it
must also be named by its stripped graph6 lines, in order.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]

#: two disconnected graphs: C5 + P4 + K1 (n' = 5) and C6 + P3 + K1 (bipartite)
DISCONNECTED = ("Ihc?GC@??", "IhEG?C@??")
#: (name, scan arguments); {g40}, {mixed}, {commented} and {edges} name the
#: generated input files
CASES = [
    *((f"all-labeled:{n} all", ["--all-labeled", str(n), "--bound", "all"]) for n in range(6)),
    ("all-labeled:6 theorem", ["--all-labeled", "6", "--bound", "theorem"]),
    ("all-labeled:6 brouwer", ["--all-labeled", "6", "--bound", "brouwer"]),
    ("all-labeled:7 brouwer", ["--all-labeled", "7", "--bound", "brouwer"]),
    # all-labeled scans that read fewer graphs by the scan's own least slack
    # and largest eps/k^2 than by each work unit's
    ("all-labeled:7 brouwer k=1,3,9", ["--all-labeled", "7", "--bound", "brouwer",
                                       "--k", "1,3,9"]),
    ("all-labeled:6 half-component", ["--all-labeled", "6", "--bound", "half-component"]),
    ("all-labeled:6 theorem nminus2", ["--all-labeled", "6", "--bound", "theorem",
                                       "--k", "nminus2"]),
    ("gnp40 file brouwer", ["--file", "{g40}", "--bound", "brouwer"]),
    ("gnp40 file all", ["--file", "{g40}", "--bound", "all"]),
    ("mixed-n file all", ["--file", "{mixed}", "--bound", "all"]),
    ("commented file all", ["--file", "{commented}", "--bound", "all"]),
    ("gnp 12 0.5 200 3 nminus2", ["--gnp", "12", "0.5", "200", "3", "--bound", "all",
                                  "--k", "nminus2"]),
    ("graph6 E?zw theorem", ["--graph6", "E?zw", "--bound", "theorem"]),
    ("edge-list E?zw all", ["--file", "{edges}", "--bound", "all"]),
    *((f"graph6 {g6} half-component,bipartite-sq",
       ["--graph6", g6, "--bound", "half-component,bipartite-sq"]) for g6 in DISCONNECTED),
]
#: (name, probe arguments): README's three tightness tables, one of them also
#: as JSON, a k list reaching past n, and a family over the exact-sa cap
_TABLES = [
    ("matching-thm odd complete", ["--bound", "matching-thm",
                                   *(a for n in (3, 5, 7, 9) for a in ("--family", f"complete:{n}"))]),
    ("matching-thm stars k=1", ["--bound", "matching-thm", "--k", "1",
                                *(a for n in range(2, 11) for a in ("--family", f"star:{n}"))]),
    ("conj-cover split family", ["--bound", "conj-cover",
                                 *(a for n in range(2, 10) for r in range(1, n + 1)
                                   for a in ("--family", f"split-s:{n},{r}"))]),
]
PROBES = [
    *((f"{name} csv", [*args, "--format", "csv"]) for name, args in _TABLES),
    (f"{_TABLES[2][0]} json", [*_TABLES[2][1], "--format", "json"]),
    ("cover k=1,3", ["--bound", "cover", "--k", "1,3", "--family", "complete:2",
                     "--family", "cycle:5", "--family", "kbip:2,3", "--format", "csv"]),
    ("star-arb capped K9", ["--bound", "star-arb", "--family", "complete:9"]),
]
#: (name, spectrum arguments)
SPECTRA = [
    *((f"all-labeled:{n}", ["--all-labeled", str(n)]) for n in range(7)),
    ("gnp40 file", ["--file", "{g40}"]),
    ("mixed-n file", ["--file", "{mixed}"]),
    ("commented file", ["--file", "{commented}"]),
    ("gnp 12 0.5 200 3", ["--gnp", "12", "0.5", "200", "3"]),
]
#: every single-graph command, with the arguments it needs, on one graph;
#: eps and stararbor also with their bare-number payloads, orient at an
#: infeasible k (1) and at a feasible one (2)
SINGLE_GRAPH = "E?zw"
SINGLES = [
    ["eps", "--k", "all"], ["eps", "--k", "2"], ["density"], ["parden"],
    ["orient", "--k", "1"], ["orient", "--k", "2"], ["match"], ["cover"], ["oddcover"],
    ["arbor"], ["stararbor"], ["stararbor", "--classes"], ["structure", "--k", "2"],
    ["pipeline", "--k", "2"],
]
#: eps over its whole profile and at one k, on every graph input below
EPS = [["eps", "--k", "all"], ["eps", "--k", "3"]]
#: the commands that read components, bipartiteness or forest depths, run on
#: each DISCONNECTED graph; both have partition density 2, so k = 3 is the
#: smallest k that pipeline and structure take
DISCONNECTED_SINGLES = [
    ["parden", "--bracket"], ["oddcover"], ["arbor"], ["pipeline", "--k", "3"],
    ["structure", "--k", "3"], *EPS,
]
#: single-graph commands on their own graph: k > 100 takes the
#: (k,c)-assignment route of the pipeline; eps on graphs past graph6's n <= 62;
#: oddcover with one odd set that holds all of D (K7), and with C all six
#: vertices (P6), so that the cover peels C one vertex at a time
OWN_GRAPH = [
    ["pipeline", "--family", "kbip:101,151", "--k", "101", "--parden-mode", "assume"],
    ["oddcover", "--family", "complete:7"], ["oddcover", "--family", "path:6"],
    *([*args, "--family", fam] for fam in ("star:70", "kbip:30,40") for args in EPS),
]
#: single-graph commands on the edge-list file: parse_edge_list and
#: graph_from_edges have to put its pairs in order
EDGE_LIST_SINGLES = [["arbor"], ["stararbor", "--classes"], ["pipeline", "--k", "2"], *EPS]
JOBS = (1, 2, 3)
FORMATS = ("json", "csv")

#: run in a fresh interpreter per tree: argv = src dir, case file, result file
RUNNER = r"""
import contextlib, io, json, sys
src, cases, out = sys.argv[1:]
sys.path.insert(0, src)
import lapsum
from lapsum.cli import main
if not lapsum.__file__.startswith(src):
    sys.exit(f"imported lapsum from {lapsum.__file__}, not from {src}")
results = []
for argv in json.load(open(cases)):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    results.append([code, buf.getvalue()])
with open(out, "w") as fh:
    json.dump(results, fh)
"""


def write_inputs(tmp: Path) -> dict[str, str]:
    sys.path[:0] = [str(HERE / "src"), str(HERE / "tests")]
    from lapsum.graphs import encode_graph6, gnp_graphs, parse_graph6
    from test_harness import _mixed_graphs

    g40 = tmp / "gnp40.g6"
    lines = [
        encode_graph6(g)
        for seed, p in enumerate((0.1, 0.5, 0.9))
        for g in gnp_graphs(40, p, 100, seed=seed)
    ]
    g40.write_text("\n".join(lines) + "\n")
    mixed = tmp / "mixed.g6"
    mixed.write_text("".join(encode_graph6(g) + "\n" for g in _mixed_graphs()))
    commented = tmp / "commented.g6"
    body = ["# mixed-n graphs with comments and blank lines\n", "\n"]
    for i, g in enumerate(_mixed_graphs()):
        body.append(f"  {encode_graph6(g)} \n" if i % 5 == 0 else encode_graph6(g) + "\n")
        if i % 7 == 0:
            body.append(f"\n# after graph {i}\n")
    commented.write_text("".join(body))
    edges = tmp / "edges.txt"
    g = parse_graph6(SINGLE_GRAPH)
    edges.write_text(f"{g.n} {g.m}\n" + "".join(f"{v} {u}\n" for u, v in reversed(g.edges)))
    return {
        "g40": str(g40), "mixed": str(mixed), "commented": str(commented), "edges": str(edges)
    }


def deterministic(argv, result) -> str:
    code, text = result
    if argv[0] == "scan" and argv[-1] == "json" and text:
        doc = json.loads(text)
        doc.pop("runtime_ms")
        text = json.dumps(doc, indent=2)
    return f"exit {code}\n{text}"


def run_tree(root: Path, runs, tmp: Path, label: str) -> list:
    cases, out = tmp / f"{label}-cases.json", tmp / f"{label}-out.json"
    cases.write_text(json.dumps([argv for _, argv in runs]))
    src = str((root / "src").resolve())
    subprocess.run([sys.executable, "-c", RUNNER, src, str(cases), str(out)], check=True)
    return json.loads(out.read_text())


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 1 or not (Path(args[0]) / "src" / "lapsum").is_dir():
        print("usage: python3 tools/same_outputs.py PARENT_CHECKOUT", file=sys.stderr)
        return 2
    parent = Path(args[0])
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        files = write_inputs(tmp)
        runs = [
            (f"{name} --jobs {jobs} --format {fmt}",
             ["scan", *(a.format(**files) for a in scan_args),
              "--jobs", str(jobs), "--format", fmt])
            for name, scan_args in CASES
            for jobs in JOBS
            for fmt in FORMATS
        ]
        runs += [(f"probe {name}", ["probe", *args]) for name, args in PROBES]
        runs += [
            (f"spectrum {name}", ["spectrum", *(a.format(**files) for a in args)])
            for name, args in SPECTRA
        ]
        runs += [
            (f"{' '.join(args)} --format {fmt}",
             [*args, "--graph6", SINGLE_GRAPH, "--format", fmt])
            for args in SINGLES
            for fmt in ("text", "json")
        ]
        runs += [
            (f"{' '.join(args)} {g6} --format {fmt}", [*args, "--graph6", g6, "--format", fmt])
            for g6 in DISCONNECTED
            for args in DISCONNECTED_SINGLES
            for fmt in ("text", "json")
        ]
        runs += [
            (f"{' '.join(args)} edge-list --format {fmt}",
             [*args, "--file", files["edges"], "--format", fmt])
            for args in EDGE_LIST_SINGLES
            for fmt in ("text", "json")
        ]
        runs += [
            (f"{' '.join(args)} --format {fmt}", [*args, "--format", fmt])
            for args in OWN_GRAPH
            for fmt in ("text", "json")
        ]
        ours = run_tree(HERE, runs, tmp, "this")
        theirs = run_tree(parent, runs, tmp, "parent")
        _, rows = ours[[argv for _, argv in runs].index(["spectrum", "--file", files["commented"]])]
        lines = [ln.strip() for ln in Path(files["commented"]).read_text().splitlines()]
        named = [row.split(",", 1)[0] for row in rows.splitlines()]
        names_ok = named == [ln for ln in lines if ln and not ln.startswith("#")]
    print(f"{'same' if names_ok else 'DIFFERENT'}  spectrum rows and stripped commented-file lines")
    differ = 0
    for (name, argv), a, b in zip(runs, ours, theirs):
        same = deterministic(argv, a) == deterministic(argv, b)
        differ += not same
        print(f"{'same' if same else 'DIFFERENT'}  {name}")
    print(f"{len(runs) - differ} of {len(runs)} cases the same")
    return 1 if differ or not names_ok else 0


if __name__ == "__main__":
    raise SystemExit(main())
