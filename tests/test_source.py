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
