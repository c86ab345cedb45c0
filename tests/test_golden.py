"""Golden report digests: pin what the simulator computes.

``tests/golden/report_digests.json`` holds, per experiment and
generation, the SHA-256 of the experiment's canonical fast-profile
report JSON::

    sha256(json.dumps([r.to_dict() for r in REGISTRY[name].run(g, "fast")],
                      sort_keys=True))

A refactor that claims not to change the model must keep every digest.
The table changes only with a declared model change that names each
moved digest and why; it is never regenerated to make a failure go
away.  Experiments whose two generations run in under about 5 s
together are checked in tier-1, the rest in tier-2 (``slow``).
"""

import hashlib
import json
import pathlib

import pytest

from repro.runner.registry import REGISTRY

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "report_digests.json"
DIGESTS = json.loads(GOLDEN.read_text())["digests"]

#: Experiments too slow for tier-1 (several seconds per generation).
SLOW = {"fig7", "fig13", "fig14"}


def report_digest(name: str, generation: int) -> str:
    """SHA-256 of one experiment's canonical fast-profile report JSON."""
    reports = REGISTRY[name].run(generation, "fast")
    canonical = json.dumps([report.to_dict() for report in reports], sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _cases():
    for name, per_generation in DIGESTS.items():
        marks = [pytest.mark.slow] if name in SLOW else []
        for key, expected in per_generation.items():
            generation = int(key.removeprefix("g"))
            yield pytest.param(name, generation, expected, marks=marks, id=f"{name}-{key}")


@pytest.mark.parametrize("name,generation,expected", list(_cases()))
def test_report_digest_is_unchanged(name, generation, expected):
    actual = report_digest(name, generation)
    assert actual == expected, (
        f"{name} G{generation} fast-profile report changed: digest is now {actual}, "
        f"golden is {expected}"
    )
