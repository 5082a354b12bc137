"""Static checks over the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gametree"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a self-check written as one
    # would silently vanish; checks raise InternalCheckError instead
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no package sources under {SRC}"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_no_raise_assertion_error_in_the_package():
    # a failed self-check raises InternalCheckError, which the command line
    # reports with exit code 4 instead of a traceback
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"raise AssertionError in the package: {found}"
