"""Address-pattern generators used by the microbenchmarks.

Every Section-3 experiment is defined by a controlled access pattern:
strided reads aligned to XPLines (Figure 2), sequential-within /
sequential-or-random-across XPLine writes (Figure 3), random XPLine
blocks (Figures 6/13), circular pointer chains (Figure 8).  The
functions here produce those address sequences deterministically.
"""

from __future__ import annotations

from repro.common.constants import CACHELINE_SIZE, XPLINE_SIZE
from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng


def strided_read_addresses(base: int, wss: int, cachelines_per_xpline: int) -> list[int]:
    """The Figure 2 pattern: pass p reads cacheline p of every XPLine.

    Returns the addresses of one complete cycle of
    ``cachelines_per_xpline`` passes over the region.
    """
    if not 1 <= cachelines_per_xpline <= 4:
        raise ConfigError("CpX must be between 1 and 4")
    n_xplines = wss // XPLINE_SIZE
    if n_xplines == 0:
        raise ConfigError(f"working set {wss} smaller than one XPLine")
    return [
        base + xpline * XPLINE_SIZE + pass_index * CACHELINE_SIZE
        for pass_index in range(cachelines_per_xpline)
        for xpline in range(n_xplines)
    ]


def partial_write_addresses(
    base: int,
    wss: int,
    written_cachelines: int,
    rng: DeterministicRng | None = None,
) -> list[int]:
    """The Figure 3 pattern: write the first ``written_cachelines`` lines
    of each XPLine, sequentially within the XPLine.

    XPLine visit order is sequential when ``rng`` is None, random
    otherwise (the paper found the results identical — a property our
    tests verify); a random order draws one shuffle from ``rng`` per call.
    """
    if not 1 <= written_cachelines <= 4:
        raise ConfigError("written_cachelines must be between 1 and 4")
    n_xplines = wss // XPLINE_SIZE
    if n_xplines == 0:
        raise ConfigError(f"working set {wss} smaller than one XPLine")
    order = list(range(n_xplines))
    if rng is not None:
        rng.shuffle(order)
    return [
        base + xpline * XPLINE_SIZE + slot * CACHELINE_SIZE
        for xpline in order
        for slot in range(written_cachelines)
    ]


def random_block_sequence(
    base: int, wss: int, visits: int, rng: DeterministicRng
) -> list[int]:
    """Uniformly random 256 B block base addresses (the Figure 4 and 6/13 pattern)."""
    n_blocks = wss // XPLINE_SIZE
    if n_blocks == 0:
        raise ConfigError(f"working set {wss} smaller than one block")
    return [base + rng.choice_index(n_blocks) * XPLINE_SIZE for _ in range(visits)]


def circular_chain(count: int, sequential: bool, rng: DeterministicRng | None = None) -> list[int]:
    """Successor table of a circular chain over ``count`` elements.

    ``result[i]`` is the index of the element visited after element
    ``i``.  Sequential chains follow index order; random chains follow
    a uniformly random Hamiltonian cycle (the Figure 8 linked list).
    """
    if count <= 0:
        raise ConfigError("chain needs at least one element")
    order = list(range(count))
    if not sequential:
        if rng is None:
            raise ConfigError("random chains need an rng")
        rng.shuffle(order)
    successor = [0] * count
    for position, element in enumerate(order):
        successor[element] = order[(position + 1) % count]
    return successor
