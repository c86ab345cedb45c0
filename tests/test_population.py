"""Structure-only population builds exactly what timed inserts build.

A data store operation called with ``core=None`` changes only the
structure and makes no simulated-memory call.  Each test here
populates a store that way and inserts the same keys through a real
``Core`` on an identical fresh machine, then compares every piece of
structure state: for CCEH the directory mapping, segment bases and
depths, bucket contents in order, stats and the allocator's cursor and
free lists; for FAST & FAIR (in place) the node addresses, keys,
values, children, sibling chain, stats and allocators.
"""

import pytest

from repro.datastores.btree import NODE_BYTES, FastFairTree
from repro.datastores.cceh import CcehHashTable
from repro.persist.allocator import PmHeap
from repro.system.presets import machine_for
from repro.workloads.ycsb import insert_only_stream

CCEH_KEYS = 5_000
BTREE_KEYS = 2_000
REDO_KEYS = 1_000


def _allocator_state(allocator) -> tuple:
    return (
        allocator._cursor,
        {size: list(addrs) for size, addrs in allocator._free_lists.items()},
        allocator.allocated_bytes,
        allocator.freed_bytes,
    )


def _cceh_state(table: CcehHashTable) -> dict:
    position = {id(segment): index for index, segment in enumerate(table._segments)}
    return {
        "global_depth": table.global_depth,
        "directory": [position[id(segment)] for segment in table._directory],
        "directory_addr": table._directory_addr,
        "segments": [
            (segment.base_addr, segment.local_depth, segment.buckets)
            for segment in table._segments
        ],
        "stats": table.stats,
        "allocator": _allocator_state(table._allocator),
    }


def _cceh_ops(count: int) -> list[tuple[int, int]]:
    """Fresh keys, then a few updates of keys already present."""
    keys = list(insert_only_stream(count, seed=5))
    return [(key, key) for key in keys] + [(key, key + 1) for key in keys[::97]]


@pytest.mark.parametrize("initial_depth", [1, 2])
@pytest.mark.parametrize("generation", [1, 2])
def test_cceh_population_matches_timed_inserts(generation, initial_depth):
    ops = _cceh_ops(CCEH_KEYS)
    populated = CcehHashTable(PmHeap(machine_for(generation)).pm, initial_depth=initial_depth)
    for key, value in ops:
        populated.insert(key, value)

    machine = machine_for(generation)
    timed = CcehHashTable(PmHeap(machine).pm, initial_depth=initial_depth)
    core = machine.new_core()
    for key, value in ops:
        timed.insert(key, value, core)

    assert core.stores > len(ops)  # the timed side did issue its traffic
    assert populated.stats.segment_splits > 0 and populated.stats.updates > 0
    if initial_depth == 1:
        assert populated.stats.directory_doublings > 0
    assert _cceh_state(populated) == _cceh_state(timed)


def _btree_state(tree: FastFairTree) -> dict:
    nodes = []
    frontier = [tree.root]
    while frontier:
        node = frontier.pop(0)
        nodes.append((
            node.base_addr,
            node.leaf,
            node.keys,
            node.values,
            [child.base_addr for child in node.children],
            node.sibling.base_addr if node.sibling is not None else None,
        ))
        frontier.extend(node.children)
    return {
        "height": tree.height,
        "nodes": nodes,
        "stats": tree.stats,
        "pm": _allocator_state(tree.heap.pm),
        "dram": _allocator_state(tree.heap.dram),
    }


@pytest.mark.parametrize("generation", [1, 2])
def test_btree_inplace_population_matches_timed_inserts(generation):
    keys = list(insert_only_stream(BTREE_KEYS, seed=3))
    ops = [(key, key) for key in keys] + [(key, key + 1) for key in keys[::53]]
    populated = FastFairTree(PmHeap(machine_for(generation)), mode="inplace")
    for key, value in ops:
        populated.insert(key, value)

    machine = machine_for(generation)
    timed = FastFairTree(PmHeap(machine), mode="inplace")
    core = machine.new_core()
    for key, value in ops:
        timed.insert(key, value, core)

    assert core.stores > len(ops)
    assert populated.stats.internal_splits > 0 and populated.stats.shifts > 0
    assert _btree_state(populated) == _btree_state(timed)


def test_redo_population_makes_no_logs():
    """Without a core, redo mode logs nothing: the PM heap holds nodes only."""
    heap = PmHeap(machine_for(1))
    tree = FastFairTree(heap, mode="redo")
    for key in insert_only_stream(REDO_KEYS, seed=3):
        tree.insert(key, key)
    nodes = 1 + tree.stats.leaf_splits + tree.stats.internal_splits + (tree.height - 1)
    assert tree._logs == {}
    assert heap.pm.allocated_bytes == nodes * NODE_BYTES
    assert heap.pm._cursor == heap.pm.base + nodes * NODE_BYTES
    assert heap.dram.allocated_bytes == 0
    tree.check_invariants()
