"""Docstring lint for the runner, CLI and experiment-harness modules.

A pydocstyle-style check (D100/D101/D102/D103 equivalents) implemented
over ``ast`` so it runs with zero extra dependencies: every module,
public class and public function/method in the modules below must
carry a docstring.  These are the modules whose public surface
``docs/api.md`` documents — their docstrings are required to state
cache-key and parallelism semantics, so an undocumented def here is a
regression, not a style nit.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules under the docstring contract (the runner subsystem, the CLI
#: that fronts it, the report machinery it schedules, the persistence
#: programming layer, and the fault-injection rig built on top of it).
LINTED_MODULES = [
    SRC / "runner" / "__init__.py",
    SRC / "runner" / "cache.py",
    SRC / "runner" / "engine.py",
    SRC / "runner" / "registry.py",
    SRC / "cli.py",
    SRC / "experiments" / "common.py",
    SRC / "persist" / "__init__.py",
    SRC / "persist" / "allocator.py",
    SRC / "persist" / "crash.py",
    SRC / "persist" / "log.py",
    SRC / "persist" / "persistency.py",
    SRC / "faults" / "__init__.py",
    SRC / "faults" / "campaign.py",
    SRC / "faults" / "hooks.py",
    SRC / "faults" / "workloads.py",
    SRC / "trace" / "__init__.py",
    SRC / "trace" / "emit.py",
    SRC / "trace" / "events.py",
    SRC / "trace" / "sampler.py",
    SRC / "trace" / "session.py",
    SRC / "validate" / "__init__.py",
    SRC / "validate" / "determinism.py",
    SRC / "validate" / "mutations.py",
    SRC / "validate" / "oracle.py",
    SRC / "validate" / "predicates.py",
    SRC / "validate" / "report.py",
    SRC / "validate" / "spec.py",
    SRC / "validate" / "claims" / "__init__.py",
]


def iter_public_defs(tree: ast.Module):
    """Yield (qualified name, node) for each def/class needing a docstring.

    Walks module-level and class-level definitions; names with a
    leading underscore are private and exempt (matching pydocstyle's
    default convention), as are nested helper functions.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if child.name.startswith("_") and not (
                            child.name.startswith("__") and child.name.endswith("__")
                        ):
                            continue
                        yield f"{node.name}.{child.name}", child


@pytest.mark.parametrize("path", LINTED_MODULES, ids=lambda p: p.stem)
def test_module_and_public_defs_have_docstrings(path):
    tree = ast.parse(path.read_text())
    missing = []
    if ast.get_docstring(tree) is None:
        missing.append("<module>")
    for name, node in iter_public_defs(tree):
        if ast.get_docstring(node) is None:
            missing.append(f"{name} (line {node.lineno})")
    assert not missing, (
        f"{path.relative_to(SRC.parent.parent)}: missing docstrings on: "
        + ", ".join(missing)
    )


def test_runner_docstrings_state_the_contract():
    """The cache and engine docs must actually describe key/parallel semantics."""
    cache_doc = (SRC / "runner" / "cache.py").read_text()
    engine_doc = ast.get_docstring(ast.parse((SRC / "runner" / "engine.py").read_text()))
    assert "SHA-256" in cache_doc and "code_version" in cache_doc
    assert "serial" in engine_doc and "deterministic" in engine_doc.lower()
