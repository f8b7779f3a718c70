"""Every name a graphforge module imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import graphforge

PACKAGE = Path(graphforge.__file__).parent


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_every_imported_name_is_used() -> None:
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 7
    unused = {p.name: _unused_imports(ast.parse(p.read_text(), p.name)) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
