import ast
from pathlib import Path

import lapsum


def test_no_assert_in_package():
    # every check must stay in force under python -O
    found = []
    for path in sorted(Path(lapsum.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
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
