import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lapsum


def test_no_assert_in_package():
    # every check must stay in force under python -O
    root = Path(lapsum.__file__).resolve().parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    assert not found, found


def _unused_imports(path: Path) -> list[str]:
    """The names bound by the module-level imports of one file that the file
    never reads (an argument of that name counts: pytest passes fixtures so)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used.add(node.arg)
    return [f"{path.name}:{line}: {name}" for name, line in bound.items() if name not in used]


def test_no_unused_imports():
    root = Path(__file__).resolve().parents[1]
    paths = [Path(lapsum.__file__).resolve().parent, root / "tests", root / "tools"]
    found = []
    for path in sorted(p for d in paths for p in d.glob("*.py") if p.name != "__init__.py"):
        found += _unused_imports(path)
    assert not found, found


def test_result_objects_have_no_instance_dict():
    # callers that keep many results (a certify loop) pay per instance
    names = [
        "DensityWitness", "PartitionWitness", "Orientation", "OrientationInfeasible",
        "PeelStep", "ForestDecomposition", "StarForestDecomposition",
        "StructureDecomposition", "KCAssignment", "AssignmentExhausted", "PipelineResult",
        "MatchingResult", "GallaiEdmonds", "OddSetCover", "StarPacking",
    ]
    with_dict = [n for n in names if "__dict__" in dir(getattr(lapsum, n))]
    assert not with_dict, with_dict


#: the package's exports, each under the module that defines it
EXPORTS = {
    "graphs": [
        "AlgorithmError", "FamilyId", "Graph", "Graph6Error", "GraphError", "GraphSource",
        "SizeCapError",
        "all_labeled_graphs", "disjoint_union", "encode_graph6",
        "gnp_graphs", "graph_from_edges", "graph_stream", "induced_subgraph",
        "make_family", "parse_edge_list", "parse_family", "parse_graph6",
    ],
    "spectral": ["EpsProfile", "Spectrum", "eps", "eps_profile", "spectrum"],
    "density": [
        "DensityWitness", "Orientation", "OrientationInfeasible", "PartitionWitness",
        "PeelStep", "density", "k_orientation", "partition_density",
        "partition_density_bracket", "peel_to_low_partition_density",
        "random_k_orientation",
    ],
    "bounds": [
        "BOUND_TAGS", "CONJECTURE_TAGS", "THEOREM_TAGS", "VIOLATION_TOL", "BoundResult",
        "BoundSpec", "MissingAuxError", "aux_requirements", "bound_spec", "evaluate_bound",
    ],
    "matching": [
        "GallaiEdmonds", "HallResult", "MatchingResult", "OddSetCover", "StarPacking",
        "gallai_edmonds", "greedy_cover_2approx", "hall_violator", "matching_number",
        "maximum_matching", "min_vertex_cover", "nu_ell",
        "nu_ell_value", "odd_set_cover",
    ],
    "decomposition": [
        "AssignmentExhausted", "ForestDecomposition", "KCAssignment", "PipelineResult",
        "StarForestDecomposition", "StructureDecomposition", "arboricity_value",
        "forest_decomposition", "forest_to_two_star_forests", "is_star_forest",
        "random_kc_assignment", "sa_upper_bound_pipeline",
        "star_arboricity_exact", "structure_decomposition",
    ],
    "harness": ["KRange", "ProbeRow", "ScanReport", "scan", "tightness_probe"],
}
ALL_NAMES = {name for names in EXPORTS.values() for name in names}
SRC = str(Path(lapsum.__file__).resolve().parents[1])


def _lapsum_modules_after(code: str) -> set[str]:
    """The lapsum modules a fresh interpreter has loaded after running code."""
    code += (
        "\nimport sys\n"
        "print(' '.join(m for m in sys.modules if m == 'lapsum' or m.startswith('lapsum.')))\n"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return set(out.stdout.split())


class TestExports:
    def test_export_list(self):
        assert set(lapsum.__all__) == ALL_NAMES
        assert ALL_NAMES <= set(dir(lapsum))

    def test_each_name_is_its_modules_object(self):
        for module, names in EXPORTS.items():
            defining = importlib.import_module(f"lapsum.{module}")
            for name in names:
                assert getattr(lapsum, name) is getattr(defining, name), (module, name)

    def test_star_import_binds_every_name(self):
        ns = {}
        exec("from lapsum import *", ns)
        assert set(ns) - {"__builtins__"} == ALL_NAMES

    def test_lazy_name_reads_the_module_as_it_stands(self, monkeypatch):
        # a rebinding on the defining module (as a tracer makes) shows
        # through the package name, and is gone once undone
        harness = importlib.import_module("lapsum.harness")
        original = harness.scan
        monkeypatch.setattr(harness, "scan", lambda *a, **k: None)
        assert lapsum.scan is harness.scan
        monkeypatch.undo()
        assert lapsum.scan is original

    def test_layer_names_resolve_to_modules(self):
        # lapsum.density is the function; every other layer's name is its module
        for module in EXPORTS.keys() - {"density"}:
            assert getattr(lapsum, module) is importlib.import_module(f"lapsum.{module}")

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError):
            lapsum.no_such_name


class TestImportBoundary:
    def test_import_loads_four_layers(self):
        assert _lapsum_modules_after("import lapsum") == {
            "lapsum", "lapsum.graphs", "lapsum.spectral", "lapsum.density", "lapsum.flow",
        }

    @pytest.mark.parametrize("bound, loaded", [("brouwer", False), ("theorem", True)])
    def test_scan_loads_matching_and_decomposition_when_needed(self, bound, loaded):
        code = (
            "import contextlib, io\n"
            "from lapsum import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main(['scan', '--graph6', 'E?zw', '--bound', '{bound}',"
            " '--format', 'json'])\n"
            "assert code == 0, code\n"
        )
        modules = _lapsum_modules_after(code)
        assert "lapsum.harness" in modules
        assert ("lapsum.matching" in modules) == loaded
        assert ("lapsum.decomposition" in modules) == loaded

    @pytest.mark.parametrize("first", [
        "lapsum", "lapsum.density", "lapsum.decomposition", "lapsum.matching",
        "lapsum.harness", "lapsum.bounds", "lapsum.cli", "lapsum.flow",
    ])
    def test_density_name_is_the_function(self, first):
        code = (
            f"import {first}\n"
            "import lapsum, types\n"
            "from lapsum import density\n"
            "assert isinstance(lapsum.density, types.FunctionType), lapsum.density\n"
            "assert density is lapsum.density\n"
        )
        _lapsum_modules_after(code)
