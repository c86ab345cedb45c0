"""Deterministic random number utilities.

Everything random in the simulator (write-buffer eviction victims,
workload key draws, randomized linked-list layouts) flows through a
:class:`DeterministicRng` seeded explicitly, so that every experiment
is exactly reproducible run-to-run.
"""

from __future__ import annotations

import random
from typing import Sequence, TypeVar

T = TypeVar("T")

#: Seed used when a component is not given one explicitly.
DEFAULT_SEED = 0x0E7A9E  # "OTANE"-ish; any fixed value works.


class DeterministicRng:
    """A thin, explicitly-seeded wrapper around :class:`random.Random`.

    The wrapper exists to (a) force a seed to be chosen, (b) give the
    simulator a single choke point for randomness, and (c) provide the
    handful of draw shapes the library needs with readable names.
    """

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self.seed = seed
        self._random = random.Random(seed)
        #: ``k`` uniform random bits, ``random.Random.getrandbits`` of
        #: this stream bound once: a hot path draws with no Python frame.
        self.getrandbits = self._random.getrandbits

    def fork(self, stream: int) -> "DeterministicRng":
        """Return an independent RNG derived from this seed.

        Components that must not perturb each other's sequences (e.g.
        the workload generator vs. the write buffer's eviction draws)
        take forks with distinct ``stream`` ids.
        """
        return DeterministicRng((self.seed * 1_000_003 + stream) & 0xFFFFFFFF)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        return self._random.randint(lo, hi)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def choice(self, items: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        return self._random.choice(items)

    def choice_index(self, n: int) -> int:
        """Uniform index in [0, n)."""
        if n <= 0:
            raise ValueError("choice_index needs a positive population")
        return self._random.randrange(n)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        self._random.shuffle(items)

    def shuffled(self, items: Sequence[T]) -> list[T]:
        """Return a shuffled copy, leaving the input untouched."""
        copy = list(items)
        self._random.shuffle(copy)
        return copy

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        """k distinct elements drawn without replacement."""
        return self._random.sample(list(items), k)
