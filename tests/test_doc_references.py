"""Every ``repro.…`` path the documentation names must exist.

The prose documents (``README.md``, ``DESIGN.md``, ``EXPERIMENTS.md``
and ``docs/*.md``) name modules, classes and functions as backticked
dotted paths such as ``repro.system.presets.preset_overrides``.  Each
such path must resolve: the longest importable module prefix is
imported and the rest of the path is looked up with ``getattr``.  A
code span counts when it starts with the path (``repro.x.f(...)``
names ``repro.x.f``).  Paths without the ``repro.`` prefix are not
checked.
"""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

DOCUMENTS = [ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
DOCUMENTS += sorted((ROOT / "docs").glob("*.md"))

#: A backticked code span that starts with a ``repro.`` dotted path.
REFERENCE = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)[^`]*`")


def resolves(path: str) -> bool:
    """True if ``path`` names an importable module or an attribute of one."""
    parts = path.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_repro_reference_resolves(document):
    references = REFERENCE.findall(document.read_text())
    broken = sorted({path for path in references if not resolves(path)})
    assert not broken, f"{document.relative_to(ROOT)} names missing objects: " + ", ".join(broken)


def test_resolver_rejects_missing_paths():
    assert resolves("repro.system.machine.Machine")
    assert resolves("repro.system")
    assert not resolves("repro.cpu")
    assert not resolves("repro.system.machine.NoSuchThing")
