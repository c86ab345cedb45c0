"""Mutation-smoke knobs: flip a design choice, expect the right breakage.

A fidelity oracle is only trustworthy if it *fails* when the simulator
stops behaving like the paper's hardware.  Each :class:`Mutation` here
flips exactly one inferred design choice (the same knobs the ablation
studies exercise) via :func:`repro.system.presets.preset_overrides`
and declares which claims that flip must break.  ``repro validate
--expect-fail knob=value`` then runs the affected experiments under
the mutation and exits 0 only when the observed failures are exactly
the expected ones — an unexpectedly passing claim means the oracle
has no teeth for that property, an unexpectedly failing one means the
mutation had collateral the declaration missed.

Mutations run serially and uncached: the ambient override is
process-local (pool workers would not see it), and a mutated report
must never land in the result cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase

from repro.common.constants import XPLINE_SIZE
from repro.common.errors import ConfigError


@dataclass(frozen=True)
class Mutation:
    """One named design-choice flip.

    ``expected_failures`` are claim-id patterns (exact ids or
    ``fnmatch`` globs like ``E1/*``) resolved against the registered
    claims at validation time; ``overrides`` are the keyword arguments
    handed to :func:`~repro.system.presets.preset_overrides`.
    """

    knob: str
    value: str
    description: str
    overrides: dict
    expected_failures: tuple

    @property
    def spec(self) -> str:
        """The ``knob=value`` string the CLI accepts."""
        return f"{self.knob}={self.value}"


#: Every supported ``knob=value`` flip, keyed by its spec string.
MUTATIONS: dict[str, Mutation] = {
    mutation.spec: mutation
    for mutation in (
        Mutation(
            "read_buffer", "off",
            "shrink the read buffer to a single XPLine (effectively no buffer)",
            {"optane": {"read_buffer_bytes": XPLINE_SIZE}},
            ("E1/ra-plateau-*", "E1/knee-*"),
        ),
        Mutation(
            "write_buffer", "off",
            "shrink the write-combining buffer to a single XPLine",
            {"optane": {"write_buffer_bytes": XPLINE_SIZE}},
            # Kills absorption and both generations' capacity knees and
            # decay shapes (fig4's report carries the G2 series too).
            ("E3/absorbed-below-capacity", "E3/no-media-writes-in-buffer",
             "E3/knee-g1", "E3/partial-wa-rises",
             "E4/full-hit-*", "E4/knee-*", "E4/graceful-decay*"),
        ),
        Mutation(
            "write_buffer_eviction", "fifo",
            "FIFO write-buffer eviction instead of the inferred random",
            # fig4's *random* write stream cannot tell the policies apart;
            # the cyclic ablation workload is the discriminating probe.
            {"optane": {"write_buffer_eviction": "fifo"}},
            ("ABL/wbuf-eviction-discriminates", "ABL/random-beats-fifo"),
        ),
        Mutation(
            "periodic_writeback", "off",
            "disable G1's periodic full-line write-back",
            {"optane": {"periodic_writeback": False}},
            ("E3/full-writes-wa-one", "E3/full-writes-written-back-small"),
        ),
        Mutation(
            "transition", "off",
            "disable the read-to-write buffer transition (S3.3)",
            {"optane": {"enable_transition": False}},
            ("S33/rmw-avoided", "S33/media-below-imc"),
        ),
    )
}


def parse_mutation(spec: str) -> Mutation:
    """Resolve a ``knob=value`` string; ConfigError lists the knobs."""
    mutation = MUTATIONS.get(spec.strip())
    if mutation is None:
        known = ", ".join(sorted(MUTATIONS))
        raise ConfigError(f"unknown mutation {spec!r}; known: {known}")
    return mutation


def resolve_expected(mutation: Mutation, claim_ids: list[str]) -> list[str]:
    """Expand the mutation's failure patterns against concrete claim ids.

    Raises ``ConfigError`` when a pattern matches nothing — a silently
    unmatched expectation would make the smoke test vacuous.
    """
    resolved: list[str] = []
    for pattern in mutation.expected_failures:
        matches = [cid for cid in claim_ids if fnmatchcase(cid, pattern)]
        if not matches:
            raise ConfigError(
                f"mutation {mutation.spec}: expected-failure pattern {pattern!r} "
                f"matches no registered claim"
            )
        resolved.extend(m for m in matches if m not in resolved)
    return resolved
