"""Audit: every public function, class and method in hapticwave has a caller.

A public name (no leading underscore) defined at the top level of a module in
src/hapticwave, or as a method of a top-level class there, must be referenced
outside its own definition, by name or as an attribute, in src/hapticwave,
scripts/ or perfbench/. Imports are not references, so a re-export in
__init__.py keeps nothing alive, and neither do tests. Only reads those files.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hapticwave"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_definitions(tree: ast.Module):
    """(qualified name, name, node) of each public top-level definition and public method."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFINITIONS) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name, item


def _references(tree: ast.Module):
    """(name, line) of every Name read or written and every attribute accessed."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unreferenced() -> list[str]:
    """'module.qualname' of each public definition with no reference outside itself."""
    package = sorted(PACKAGE.glob("*.py"))
    files = package + sorted((ROOT / "scripts").rglob("*.py")) \
        + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in files}
    seen: dict[str, list[tuple[Path, int]]] = defaultdict(list)
    for path, tree in trees.items():
        for name, line in _references(tree):
            seen[name].append((path, line))
    missing = []
    for path in package:
        for qualname, name, node in _public_definitions(trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            if all(where == path and line in own for where, line in seen[name]):
                missing.append(f"{path.stem}.{qualname}")
    return missing


def test_every_public_definition_is_referenced():
    assert unreferenced() == []
