"""The exception taxonomy: one class per way a caller reacts, and each in use."""

import ast
from pathlib import Path

from dsps import errors

SRC = Path(errors.__file__).parent


def _handled_names() -> set[str]:
    """Names the package raises (``raise X(...)``) or catches (``except X``, ``except (X, Y)``)."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.add(getattr(target, "id", None))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                names.update(getattr(c, "id", None) for c in caught)
    return names


def test_exports_are_exactly_the_defined_classes():
    tree = ast.parse(Path(errors.__file__).read_text(encoding="utf-8"))
    defined = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    assert sorted(errors.__all__) == sorted(defined)
    assert set(errors.__all__) == {
        "DspsError", "InsufficientData", "InfeasibleError", "AllDrawsDegenerate", "SolverFailure",
    }


def test_every_class_is_raised_or_caught():
    # a class nothing raises or tells apart is dead weight in the taxonomy
    assert set(errors.__all__) - _handled_names() == set()
