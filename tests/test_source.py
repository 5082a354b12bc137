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


def test_every_import_is_named_again():
    # each name a package module imports must be named elsewhere in that
    # module, so that no import outlives the code that read it; __init__.py
    # imports to re-export, and a __future__ import is a directive
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = []  # (line, the name the import binds)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                             for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for line, name in imported
                  if name not in named]
    assert not found, f"imports the package never names again: {found}"


# Definitions the package itself never names, each kept for a reason
CALLER_ALLOWLIST = {
    "serialize_game": "the documented round trip of parse_game",
    "deviation_point": "the paper's definition of a deviation point, public API",
}


def test_every_package_definition_has_a_package_caller():
    # each top-level function or class must be named in the package outside
    # its own body and __init__.py, and each method called there (a
    # property read), so that no public path is left that only the tests
    # keep alive; a method is not kept by an attribute that shares its name.
    # oracles.py holds the reference implementations and is exempt, and
    # dunder methods are called by Python
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert "oracles.py" in trees
    # name -> (file, line) of every Name or Attribute naming it, of every
    # attribute read, and of every attribute call
    mentions, reads, calls = {}, {}, {}
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                mentions.setdefault(node.id, []).append((fname, node.lineno))
            elif isinstance(node, ast.Attribute):
                mentions.setdefault(node.attr, []).append((fname, node.lineno))
                if isinstance(node.ctx, ast.Load):
                    reads.setdefault(node.attr, []).append((fname, node.lineno))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                calls.setdefault(node.func.attr, []).append((fname, node.lineno))
    definitions = []  # (file, definition, the uses that keep it)
    for fname, tree in trees.items():
        if fname == "oracles.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((fname, node, mentions))
            if isinstance(node, ast.ClassDef):
                definitions += [
                    (fname, sub, reads if any(isinstance(d, ast.Name) and d.id == "property"
                                              for d in sub.decorator_list) else calls)
                    for sub in node.body if isinstance(sub, ast.FunctionDef)
                    and not (sub.name.startswith("__") and sub.name.endswith("__"))]
    unused = [f"{fname}:{d.name}" for fname, d, uses in definitions
              if d.name not in CALLER_ALLOWLIST
              and not any(f != fname or not d.lineno <= line <= d.end_lineno
                          for f, line in uses.get(d.name, ()))]
    assert not unused, f"definitions no package code uses: {unused}"
    stale = [name for name in CALLER_ALLOWLIST
             if not any(d.name == name for _f, d, _u in definitions)]
    assert not stale, f"allowlisted names the package no longer defines: {stale}"


def test_no_indented_json_dumps():
    # json.dump(s) with indent= always runs the json module's pure-Python
    # encoder; indented documents go through gametree.jsonout.dumps, which
    # writes the same text with the C string encoder
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("dump", "dumps") \
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "json" \
                    and any(kw.arg == "indent" for kw in node.keywords):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"indented json.dumps in the package: {found}"


def test_one_json_decoder():
    # every document the package reads is decoded by gametree.game's
    # _decode_json, which reports a syntax error with its line and column;
    # a new document kind reuses it instead of calling json.loads again
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("load", "loads") \
                    and isinstance(node.value, ast.Name) and node.value.id == "json" \
                    or isinstance(node, ast.ImportFrom) and node.module == "json" \
                    and any(alias.name in ("load", "loads") for alias in node.names):
                found.append(f"{path.name}:{node.lineno}")
    assert [f.split(":")[0] for f in found] == ["game.py"], \
        f"JSON decoded in more than one place: {found}"


# Attributes the package stores and never reads, each kept for a reason
STATE_ALLOWLIST = {
    "where": "the document path of a parse error, read by library callers",
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in cls.decorator_list)


def test_every_stored_attribute_is_read_in_the_package():
    # each __slots__ entry, dataclass field and self.X store of a package
    # class must be read somewhere in the package, so that no object holds
    # state nothing uses; appending to or extending an attribute is not a
    # read of it. oracles.py holds the reference implementations and is exempt
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert "oracles.py" in trees
    grown = {id(node.func.value) for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("append", "extend")}
    reads = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
             and id(node) not in grown}
    stored = []  # (file, line, class, attribute)
    for fname, tree in trees.items():
        if fname == "oracles.py":
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets):
                    names = [(stmt.lineno, name) for name in ast.literal_eval(stmt.value)]
                elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name) \
                        and _is_dataclass(cls):
                    names = [(stmt.lineno, stmt.target.id)]
                elif isinstance(stmt, ast.FunctionDef):
                    names = [(node.lineno, node.attr) for node in ast.walk(stmt)
                             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                             and isinstance(node.value, ast.Name) and node.value.id == "self"]
                else:
                    continue
                stored += [(fname, line, cls.name, name) for line, name in names]
    unread = sorted({f"{fname}:{line} {cls}.{name}" for fname, line, cls, name in stored
                     if name not in reads and name not in STATE_ALLOWLIST})
    assert not unread, f"attributes no package code reads: {unread}"
    stale = [name for name in STATE_ALLOWLIST if name not in {s[3] for s in stored}]
    assert not stale, f"allowlisted attributes the package no longer stores: {stale}"


def test_no_hidden_fields_in_value_types():
    # a dataclass is a value its readers see whole, so no field of a package
    # dataclass is private: state a caller needs beside a value is returned
    # beside it. oracles.py holds the reference implementations and is exempt
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "oracles.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                found += [f"{path.name}:{stmt.lineno} {cls.name}.{stmt.target.id}"
                          for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
                          and isinstance(stmt.target, ast.Name)
                          and stmt.target.id.startswith("_")]
    assert not found, f"private fields in package dataclasses: {found}"
