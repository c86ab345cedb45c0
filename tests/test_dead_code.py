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

A third rule spans the repository: every public top-level function or
class, and every public method of a top-level class, is named somewhere
in ``src/``, ``tests/``, ``examples/`` or ``perfbench/`` besides its
own definition and package ``__init__`` re-exports.  Naming is a word
match over the source text, so string constants (``getattr`` names,
op tables) and docstrings count.

A fourth rule catches write-only state: every public attribute a
module under ``src/repro`` stores on ``self`` is read somewhere in
``src/``, ``tests/``, ``examples/`` or ``perfbench/``, as an attribute
load (``obj.name``; an augmented assignment such as ``self.name += 1``
is a store only) or as a ``getattr(obj, "name")`` string.

A fifth rule catches dead methods that the third rule's word match
lets through when the name is a common word: every public method of a
top-level class under ``src/repro`` is loaded as an attribute somewhere
in the same four trees, by the same test as the fourth rule.

A sixth rule keeps the machine configuration to the knobs a caller
turns.  It covers ``MachineConfig``, every dataclass its field
annotations reach, and ``HelperConfig`` if one is defined.  Each field
must be (a) loaded as an attribute somewhere under ``src/repro``
outside a ``validate()`` method, and (b) given a value under
``src/repro`` outside its own field declarations: as a keyword
argument (unless the value is ``<obj>.<same name>``, which only
forwards it), as a positional argument to its class, or as a string
key of a dict literal.  A field no product code sets is a constant and
belongs next to its reader as one.  Names are matched, not types, so a
keyword shared by two classes counts for both.

A seventh rule catches write-only counters: every field of a top-level
``*Stats`` dataclass under ``src/repro`` is loaded as an attribute
somewhere in ``src/``, ``tests/``, ``examples/`` or ``perfbench/``, by
the same test as the fourth rule (``stats.name += 1`` is a store only).
"""

import ast
import pathlib
import re
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

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


def _public_methods(tree: ast.Module):
    """Yield (name, line) for each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield item.name, item.lineno


def _public_defs(tree: ast.Module):
    """Yield (name, line) for public top-level defs and public methods."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node.lineno
    yield from _public_methods(tree)


def _word_counts(path: pathlib.Path) -> Counter:
    """Words in a source file; package ``__init__`` re-exports are left out."""
    text = path.read_text()
    if path.name == "__init__.py":
        lines = text.splitlines(keepends=True)
        reexports = set()
        for node in _parse(path).body:
            is_all = isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            )
            if isinstance(node, (ast.Import, ast.ImportFrom)) or is_all:
                reexports.update(range(node.lineno - 1, node.end_lineno))
        text = "".join(line for index, line in enumerate(lines) if index not in reexports)
    return Counter(re.findall(r"\w+", text))


def test_every_public_def_is_named_outside_its_definition():
    words: Counter = Counter()
    for tree_root in ("src", "tests", "examples", "perfbench"):
        for path in (ROOT / tree_root).rglob("*.py"):
            words += _word_counts(path)
    defined: Counter = Counter()
    sites: list[tuple[str, str]] = []
    for path in sorted(SRC.rglob("*.py")):
        for name, line in _public_defs(_parse(path)):
            defined[name] += 1
            sites.append((name, f"{_rel(path)}:{line}"))
    dead = [f"{site} {name}" for name, site in sites if words[name] <= defined[name]]
    assert not dead, "public defs named nowhere but their definition: " + ", ".join(dead)


def _self_stores(tree: ast.Module):
    """Yield (name, line) for each public attribute stored on ``self``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"
                and not node.attr.startswith("_")):
            yield node.attr, node.lineno


def _loaded_attributes(tree: ast.Module):
    """Yield every attribute name the module reads, ``getattr`` strings included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr" and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)):
            yield node.args[1].value


def _all_loaded_attributes() -> set[str]:
    loaded: set[str] = set()
    for tree_root in ("src", "tests", "examples", "perfbench"):
        for path in (ROOT / tree_root).rglob("*.py"):
            loaded.update(_loaded_attributes(_parse(path)))
    return loaded


def test_every_public_self_attribute_is_read():
    loaded = _all_loaded_attributes()
    dead = sorted({
        f"{_rel(path)}:{line} self.{name}"
        for path in sorted(SRC.rglob("*.py"))
        for name, line in _self_stores(_parse(path))
        if name not in loaded
    })
    assert not dead, "public attributes stored but never read: " + ", ".join(dead)


def test_every_public_method_is_loaded_as_an_attribute():
    loaded = _all_loaded_attributes()
    dead = [
        f"{_rel(path)}:{line} {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name, line in _public_methods(_parse(path))
        if name not in loaded
    ]
    assert not dead, "public methods never loaded as an attribute: " + ", ".join(dead)


#: Roots of the configuration tree the sixth rule covers.
CONFIG_ROOTS = ("MachineConfig", "HelperConfig")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = getattr(target, "id", None) or getattr(target, "attr", None)
        if name == "dataclass":
            return True
    return False


def _dataclass_fields(trees) -> dict[str, list[ast.AnnAssign]]:
    """Field declarations of every top-level dataclass, in field order."""
    fields = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields[node.name] = [
                    item for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
    return fields


def _config_classes(fields: dict[str, list[ast.AnnAssign]]) -> list[str]:
    """The roots plus every dataclass their field annotations reach."""
    reached: list[str] = []
    todo = [root for root in CONFIG_ROOTS if root in fields]
    while todo:
        name = todo.pop(0)
        if name in reached:
            continue
        reached.append(name)
        for declaration in fields[name]:
            names = {node.id for node in ast.walk(declaration.annotation)
                     if isinstance(node, ast.Name)}
            names |= _quoted_annotation_names(declaration.annotation)
            todo.extend(sorted(names & fields.keys()))
    return reached


def _loads_outside_validate(node: ast.AST, loaded: set[str]) -> None:
    if isinstance(node, ast.FunctionDef) and node.name == "validate":
        return
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        loaded.add(node.attr)
    for child in ast.iter_child_nodes(node):
        _loads_outside_validate(child, loaded)


def test_every_config_field_is_read_and_varied():
    trees = [_parse(path) for path in sorted(SRC.rglob("*.py"))]
    fields = _dataclass_fields(trees)
    # Nodes inside a class's own field declarations (defaults and
    # default factories) do not count as giving that class's fields a value.
    declared_in = {
        id(node): name
        for name, declarations in fields.items()
        for declaration in declarations
        for node in ast.walk(declaration)
    }
    loaded: set[str] = set()
    named: set[tuple[str, str | None]] = set()  # (field name, declaring class)
    positional: set[tuple[str, str]] = set()  # (class, field name)
    for tree in trees:
        _loads_outside_validate(tree, loaded)
        for node in ast.walk(tree):
            owner = declared_in.get(id(node))
            if isinstance(node, ast.keyword) and node.arg is not None:
                forwarded = isinstance(node.value, ast.Attribute) and node.value.attr == node.arg
                if not forwarded:
                    named.add((node.arg, owner))
            elif isinstance(node, ast.Dict):
                named.update((key.value, owner) for key in node.keys
                             if isinstance(key, ast.Constant) and isinstance(key.value, str))
            elif isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if callee in fields and callee != owner:
                    for declaration, arg in zip(fields[callee], node.args):
                        if isinstance(arg, ast.Starred):
                            break
                        positional.add((callee, declaration.target.id))
    flagged = []
    for name in _config_classes(fields):
        for declaration in fields[name]:
            field = declaration.target.id
            varied = (name, field) in positional or any(
                key == field and owner != name for key, owner in named
            )
            if field not in loaded or not varied:
                flagged.append(f"{name}.{field}")
    assert not flagged, "config fields never read or never set (make them constants): " + ", ".join(flagged)


def test_every_stats_field_is_read():
    loaded = _all_loaded_attributes()
    trees = [_parse(path) for path in sorted(SRC.rglob("*.py"))]
    dead = [
        f"{name}.{declaration.target.id}"
        for name, declarations in _dataclass_fields(trees).items()
        if name.endswith("Stats")
        for declaration in declarations
        if declaration.target.id not in loaded
    ]
    assert not dead, "stats fields counted but never read: " + ", ".join(dead)
