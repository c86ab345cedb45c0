"""Zipfian key generators, YCSB-style.

The CCEH and B+-tree case studies drive the stores with YCSB [4].
YCSB's request distributions are uniform, zipfian and latest; its
zipfian sampler is the constant-time Gray et al. generator, which we
port here (no O(N) CDF table, so 16-million-key keyspaces cost
nothing).  ``ScrambledZipfian`` spreads the popular items across the
keyspace via FNV hashing, exactly like YCSB does.
"""

from __future__ import annotations

from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng

#: YCSB's default zipfian skew.
ZIPFIAN_CONSTANT = 0.99

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a_64(value: int) -> int:
    """64-bit FNV-1a hash of an integer (YCSB's scrambling function)."""
    # The eight byte rounds, low byte first, written out: this runs on
    # every CCEH operation and for every key a segment split moves.
    result = ((_FNV_OFFSET ^ (value & 0xFF)) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    result = ((result ^ ((value >> 8) & 0xFF)) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    result = ((result ^ ((value >> 16) & 0xFF)) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    result = ((result ^ ((value >> 24) & 0xFF)) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    result = ((result ^ ((value >> 32) & 0xFF)) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    result = ((result ^ ((value >> 40) & 0xFF)) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    result = ((result ^ ((value >> 48) & 0xFF)) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return ((result ^ ((value >> 56) & 0xFF)) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF


class ZipfianGenerator:
    """Constant-time zipfian sampler over [0, items) (Gray et al. 1994)."""

    def __init__(self, items: int, rng: DeterministicRng, theta: float = ZIPFIAN_CONSTANT) -> None:
        if items <= 0:
            raise ConfigError("zipfian needs a positive item count")
        if not 0 < theta < 1:
            raise ConfigError("zipfian theta must be in (0, 1)")
        self.items = items
        self.theta = theta
        self._rng = rng
        self._alpha = 1.0 / (1.0 - theta)
        self._zetan = self._zeta(items, theta)
        self._zeta2 = self._zeta(2, theta)
        self._eta = (1 - (2.0 / items) ** (1 - theta)) / (1 - self._zeta2 / self._zetan)

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        # Exact for small n; Euler–Maclaurin approximation for large n
        # keeps construction O(1)-ish without visible skew error.
        if n <= 10_000:
            return sum(1.0 / (i**theta) for i in range(1, n + 1))
        head = sum(1.0 / (i**theta) for i in range(1, 10_001))
        # integral of x^-theta from 10000 to n
        tail = ((n ** (1 - theta)) - (10_000 ** (1 - theta))) / (1 - theta)
        return head + tail

    def next(self) -> int:
        """Draw one zipf-distributed rank in [0, items)."""
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**self.theta:
            return 1
        return int(self.items * (self._eta * u - self._eta + 1) ** self._alpha)


class ScrambledZipfianGenerator:
    """Zipfian ranks scattered over the keyspace by FNV hashing."""

    def __init__(self, items: int, rng: DeterministicRng, theta: float = ZIPFIAN_CONSTANT) -> None:
        self.items = items
        self._zipf = ZipfianGenerator(items, rng, theta)

    def next(self) -> int:
        """Draw one scrambled zipf-distributed key in [0, items)."""
        return fnv1a_64(self._zipf.next()) % self.items


class UniformGenerator:
    """Uniform key draws over [0, items)."""

    def __init__(self, items: int, rng: DeterministicRng) -> None:
        if items <= 0:
            raise ConfigError("uniform generator needs a positive item count")
        self.items = items
        self._rng = rng

    def next(self) -> int:
        """Draw one uniform key in [0, items)."""
        return self._rng.choice_index(self.items)


class LatestGenerator:
    """YCSB's "latest" distribution: zipfian skew toward recent inserts."""

    def __init__(self, initial_items: int, rng: DeterministicRng) -> None:
        self.items = max(initial_items, 1)
        self._zipf = ZipfianGenerator(self.items, rng)

    def note_insert(self) -> None:
        """Grow the keyspace after each insert (recency tracking)."""
        self.items += 1

    def next(self) -> int:
        """Draw one recency-skewed key in [0, items)."""
        rank = self._zipf.next() % self.items
        return self.items - 1 - rank


def perfect_skew_check(samples: list[int], items: int) -> float:
    """Fraction of draws landing in the top 1% of ranks — a quick skew
    diagnostic used by tests (zipfian ≈ large, uniform ≈ 0.01)."""
    if not samples:
        return 0.0
    cutoff = max(1, items // 100)
    hot = sum(1 for sample in samples if sample < cutoff)
    return hot / len(samples)
