"""Every name a graphforge module imports is used in that module, every
private module-level name is used somewhere in the package, no module
reads the size limits at import, names them outside their owner and the
CLI's help, or names a route bound outside its owner, and importing
graphforge loads neither `dataclasses` nor `inspect`."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from collections import Counter
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


def _private_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Module-level functions, classes and constants named with one leading
    underscore."""
    defined: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node
    return defined


def _references(node: ast.AST) -> Counter:
    """Loads of a name, attribute reads and from-imports under node."""
    refs: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def test_every_private_name_is_used() -> None:
    """A helper that only its own body refers to is dead code."""
    trees = {p.name: ast.parse(p.read_text(), p.name) for p in sorted(PACKAGE.glob("*.py"))}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree).items()
        if used[name] - _references(node)[name] <= 0
    ]
    assert len(trees) >= 8
    assert unused == []


# Caches that may grow without a maxsize, each with the reason its size is
# bounded anyway.
UNBOUNDED_CACHES = {
    "_class_law": "its n is bounded by LIMITS['class_law_n'] at every public entry",
}


def _maxsize(decorator: ast.expr) -> ast.expr | None:
    """The maxsize expression of an lru_cache (or cache) decorator, a None
    constant for an unbounded one; None for any other decorator."""
    call = decorator if isinstance(decorator, ast.Call) else None
    func = call.func if call else decorator
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name == "cache" or (name == "lru_cache" and call is None):
        return ast.Constant(None)
    if name != "lru_cache":
        return None
    sizes = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args[:1]
    return sizes[0] if sizes else ast.Constant(128)


def _constant_int(node: ast.expr) -> int | None:
    """node's value when it is an int built from constants only."""
    if not all(isinstance(n, (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop))
               for n in ast.walk(node)):
        return None
    value = eval(compile(ast.Expression(node), "<maxsize>", "eval"), {"__builtins__": {}})
    return value if type(value) is int else None


def test_every_cache_has_an_integer_maxsize() -> None:
    unbounded = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                size = _maxsize(decorator)
                if size is not None and _constant_int(size) is None:
                    unbounded[node.name] = node
    assert sorted(unbounded) == sorted(UNBOUNDED_CACHES)


def _runs_at_import(node: ast.AST):
    """node and every node under it that runs when its module is imported:
    of a def or lambda only the decorators and defaults, not the body."""
    yield node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        children = [*getattr(node, "decorator_list", ()), *args.defaults, *filter(None, args.kw_defaults)]
    else:
        children = ast.iter_child_nodes(node)
    for child in children:
        yield from _runs_at_import(child)


def test_no_module_reads_limits_at_import() -> None:
    """Each entry point reads its LIMITS entry when called, so a value frozen
    at import would ignore a changed limit. Only the table's own definition
    in graphs, which stores the name and reads none, runs at import."""
    reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in _runs_at_import(ast.parse(path.read_text(), path.name))
        if (isinstance(node, ast.Name) and node.id == "LIMITS" and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Attribute) and node.attr == "LIMITS")
    ]
    assert reads == []


def test_only_the_owner_and_the_help_texts_name_limits() -> None:
    """graphs owns LIMITS and its size gate, _check_limit, reads it for every
    entry point; cli's help texts print its entries. Any other module goes
    through the gate, so it has no template or bound of its own to drift."""
    namers = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), path.name))
        if (isinstance(node, ast.Name) and node.id == "LIMITS")
        or (isinstance(node, ast.Attribute) and node.attr == "LIMITS")
        or (isinstance(node, (ast.Import, ast.ImportFrom)) and any(a.name == "LIMITS" for a in node.names))
    }
    assert namers == {"graphs.py", "cli.py"}


def _constant_owners(tree: ast.Module, value: str) -> list[str]:
    """The innermost function around each constant equal to value, or
    "<module>" for one outside every function."""
    owners = []

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, ast.Constant) and node.value == value:
            owners.append(owner)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return owners


def test_one_function_chooses_the_copy_table_route() -> None:
    """Every labelled-copy question asks graphs._copy_table whether a cached
    table serves it, so walk_k is named only by that function and by the
    LIMITS table itself, and the retired copy_set_n bound is named nowhere."""
    owners = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := _constant_owners(ast.parse(path.read_text(), path.name), "walk_k"))
    }
    assert owners == {"graphs.py": ["<module>", "_copy_table"]}
    assert [p.name for p in PACKAGE.glob("*.py") if "copy_set_n" in p.read_text()] == []


def test_no_module_imports_dataclasses() -> None:
    """The value types are NamedTuples or `graphs._Value` classes: importing
    `dataclasses` (with `inspect`, `ast`, `dis` and `tokenize`) and running
    its decorator took about two thirds of graphforge's import time."""
    importers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), path.name))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses")
    ]
    assert importers == []


def test_cli_import_loads_neither_dataclasses_nor_inspect() -> None:
    """-S keeps the interpreter's site-packages start-up imports out of the
    count, so only what graphforge itself imports is seen."""
    script = "import graphforge.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout == "[]\n"
