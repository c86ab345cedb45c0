"""Dead-code lint for the simulator package.

An ``ast``-based check in the style of ``tests/test_docstrings.py``
(no extra dependencies).  Two rules hold for every module under
``src/repro`` except package ``__init__.py`` files, whose imports are
re-exports:

* every imported name is referenced in the module (``from __future__
  import annotations`` is exempt);
* every module-private top-level function or class (leading
  underscore, not a dunder) is referenced in its module.

A name counts as referenced when it is loaded as an expression or
used in a quoted annotation.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

MODULES = sorted(path for path in SRC.rglob("*.py") if path.name != "__init__.py")


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _quoted_annotation_names(annotation: ast.expr) -> set[str]:
    """Names inside quoted forward references such as ``-> "Iterator[X]"``."""
    names: set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {child.id for child in ast.walk(expr) if isinstance(child, ast.Name)}
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including in quoted annotations."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if annotation is not None:
                names |= _quoted_annotation_names(annotation)
    return names


def imported_names(tree: ast.Module):
    """Yield (bound name, line) for each import binding in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _rel(path: pathlib.Path) -> str:
    return str(path.relative_to(SRC.parent))


@pytest.mark.parametrize("path", MODULES, ids=_rel)
def test_every_import_is_used(path):
    tree = _parse(path)
    used = referenced_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{_rel(path)}: unused imports: " + ", ".join(unused)


def test_every_private_top_level_def_is_used():
    dead = []
    for path in MODULES:
        tree = _parse(path)
        used = referenced_names(tree)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") and not name.startswith("__") and name not in used:
                dead.append(f"{_rel(path)}:{node.lineno} {name}")
    assert not dead, "unreferenced private top-level defs: " + ", ".join(dead)
