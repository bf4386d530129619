"""Laplacian eigenvalue-sum bounds, graph densities, and edge decompositions.

Core objects re-exported here; see the module docstrings for details.

``import lapsum`` loads the graphs, spectral, flow and density layers. A name
exported from bounds, matching, decomposition or harness loads its layer on
first use (module ``__getattr__``, PEP 562), and so does the layer's own name.
``lapsum.density`` is the function; the module is
``importlib.import_module("lapsum.density")``.
"""

import importlib

#: every exported name, under the layer that defines it
_EXPORTS = {
    "graphs": (
        "AlgorithmError", "FamilyId", "Graph", "Graph6Error", "GraphError", "GraphSource",
        "SizeCapError",
        "all_labeled_graphs", "disjoint_union", "encode_graph6",
        "gnp_graphs", "graph_from_edges", "graph_stream", "induced_subgraph",
        "make_family", "parse_edge_list", "parse_family", "parse_graph6",
    ),
    "spectral": ("EpsProfile", "Spectrum", "eps", "eps_profile", "spectrum"),
    "density": (
        "DensityWitness", "Orientation", "OrientationInfeasible", "PartitionWitness",
        "PeelStep", "density", "k_orientation", "partition_density",
        "partition_density_bracket", "peel_to_low_partition_density",
        "random_k_orientation",
    ),
    "bounds": (
        "BOUND_TAGS", "CONJECTURE_TAGS", "THEOREM_TAGS", "VIOLATION_TOL", "BoundResult",
        "BoundSpec", "MissingAuxError", "aux_requirements", "bound_spec", "evaluate_bound",
    ),
    "matching": (
        "GallaiEdmonds", "HallResult", "MatchingResult", "OddSetCover", "StarPacking",
        "gallai_edmonds", "greedy_cover_2approx", "hall_violator", "matching_number",
        "maximum_matching", "min_vertex_cover", "nu_ell",
        "nu_ell_value", "odd_set_cover",
    ),
    "decomposition": (
        "AssignmentExhausted", "ForestDecomposition", "KCAssignment", "PipelineResult",
        "StarForestDecomposition", "StructureDecomposition", "arboricity_value",
        "forest_decomposition", "forest_to_two_star_forests", "is_star_forest",
        "random_kc_assignment", "sa_upper_bound_pipeline",
        "star_arboricity_exact", "structure_decomposition",
    ),
    "harness": ("KRange", "ProbeRow", "ScanReport", "scan", "tightness_probe"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

# density loads flow; its names are bound after the submodule, so the name
# ``density`` is the function
for _layer in ("graphs", "spectral", "density"):
    _module = importlib.import_module(f".{_layer}", __name__)
    globals().update((name, getattr(_module, name)) for name in _EXPORTS[_layer])
del _layer, _module

__all__ = sorted(_LAYER_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # nothing is cached here: each lookup reads the layer's attribute as it
    # stands, so a rebinding on the layer shows through lapsum.<name>
    layer = name if name in _EXPORTS else _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{layer}")
    return module if layer == name else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_LAYER_OF))
