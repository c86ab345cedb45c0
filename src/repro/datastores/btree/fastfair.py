"""FAST & FAIR-style persistent B+-tree with two insertion modes.

``mode="inplace"`` is the paper's baseline: sorted-order insertion
shifts entries one slot right, executing a persistence barrier (clwb +
fence) after *every* shift.  Successive shifts within one cacheline
therefore read a line whose previous flush is still in flight — the
read-after-persist pattern that dominates insertion cost on G1 Optane.

``mode="redo"`` is the paper's optimization (Figure 11): each shift is
recorded out-of-place in a redo log (one fresh PM cacheline per
update, persisted immediately — so the persist count matches the
baseline), mirrored in DRAM; when all updates of a node cacheline are
logged, an 8-byte commit flag is persisted, the DRAM mirror is written
back in place with plain stores, and the log is reclaimed.  No load
ever targets a just-flushed line, so the RAP stalls vanish even though
PM write volume doubles.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.common.constants import XPLINE_SIZE
from repro.common.errors import DataStoreError, KeyNotFoundError
from repro.datastores.base import CoreLike
from repro.datastores.btree.node import ENTRY_SIZE, NODE_BYTES, NODE_CAPACITY, Node
from repro.persist.allocator import PmHeap
from repro.persist.log import RedoLog

#: Per-operation compute overhead (comparisons, call chain).
_OP_COST = 50.0


@dataclass
class BtreeStats:
    """Counters for experiments and tests."""

    inserts: int = 0
    shifts: int = 0
    leaf_splits: int = 0
    internal_splits: int = 0


class FastFairTree:
    """B+-tree over simulated PM with selectable insertion mode."""

    def __init__(self, heap: PmHeap, mode: str = "inplace", fence: str = "sfence") -> None:
        if mode not in ("inplace", "redo"):
            raise DataStoreError(f"unknown B+-tree mode {mode!r}")
        self.heap = heap
        self.mode = mode
        self.fence = fence
        self.stats = BtreeStats()
        self.root = self._new_node(leaf=True)
        self.height = 1
        # One redo log per executing core, as each thread would own its
        # own log area in a real implementation.
        self._logs: dict[int, RedoLog] = {}

    def _ensure_log(self, core: CoreLike) -> RedoLog:
        key = id(core)
        log = self._logs.get(key)
        if log is None or log.core is not core:
            log = RedoLog(core, self.heap, capacity_entries=NODE_CAPACITY + 4)
            self._logs[key] = log
        return log

    def _new_node(self, leaf: bool) -> Node:
        return Node(base_addr=self.heap.pm.alloc(NODE_BYTES, align=XPLINE_SIZE), leaf=leaf)

    def __len__(self) -> int:
        return self.stats.inserts

    # -- traversal ------------------------------------------------------------
    #
    # Every operation takes an optional core.  With one, it issues the
    # structure's full memory traffic; without one (population), it
    # changes only the structure: descents bisect ``node.keys``, and
    # no load, store, flush, fence, tick or redo log is issued.  Both
    # run the same routing, placement, split and allocation code.

    def _descend(self, key: int, core: CoreLike | None) -> tuple[Node, list[Node]]:
        """Walk to the leaf for ``key``; returns (leaf, ancestor path)."""
        path: list[Node] = []
        node = self.root
        while not node.leaf:
            if core is not None:
                core.load(node.header_addr, 8)
                for probe in node.binary_search_probes(key):
                    core.load(node.entry_addr(probe), ENTRY_SIZE)
            path.append(node)
            node = node.children[bisect_right(node.keys, key)]
        if core is not None:
            core.load(node.header_addr, 8)
            for probe in node.binary_search_probes(key):
                core.load(node.entry_addr(probe), ENTRY_SIZE)
        return node, path

    def get(self, key: int, core: CoreLike | None = None) -> int:
        """Point lookup; raises KeyNotFoundError when absent."""
        if core is not None:
            core.tick(_OP_COST)
        leaf, _ = self._descend(key, core)
        position = bisect_left(leaf.keys, key)
        if position < leaf.count and leaf.keys[position] == key:
            if core is not None:
                core.load(leaf.entry_addr(position), ENTRY_SIZE)
            return leaf.values[position]
        raise KeyNotFoundError(key)

    def range_scan(self, start_key: int, count: int, core: CoreLike | None = None) -> list[tuple[int, int]]:
        """Collect up to ``count`` pairs with key >= start_key."""
        if core is not None:
            core.tick(_OP_COST)
        leaf, _ = self._descend(start_key, core)
        out: list[tuple[int, int]] = []
        position = bisect_left(leaf.keys, start_key)
        node: Node | None = leaf
        while node is not None and len(out) < count:
            for index in range(position, node.count):
                if core is not None:
                    core.load(node.entry_addr(index), ENTRY_SIZE)
                out.append((node.keys[index], node.values[index]))
                if len(out) >= count:
                    break
            node = node.sibling
            position = 0
            if node is not None and core is not None:
                core.load(node.header_addr, 8)
        return out

    # -- insertion ---------------------------------------------------------------

    def insert(self, key: int, value: int, core: CoreLike | None = None) -> None:
        """Insert (or overwrite) ``key``."""
        if core is not None:
            core.tick(_OP_COST)
        leaf, path = self._descend(key, core)
        if leaf.is_full:
            leaf = self._split_leaf(leaf, path, key, core)
        position = bisect_left(leaf.keys, key)
        if position < leaf.count and leaf.keys[position] == key:
            leaf.values[position] = value
            if core is not None:
                core.store(leaf.entry_addr(position), ENTRY_SIZE)
                core.clwb(leaf.entry_line(position))
                core.fence(self.fence)
            return
        self.stats.shifts += leaf.count - position
        if core is None:
            leaf.keys.insert(position, key)
            leaf.values.insert(position, value)
        elif self.mode == "inplace":
            self._insert_inplace(leaf, position, key, value, core)
        else:
            self._insert_redo(leaf, position, key, value, core)
        self.stats.inserts += 1

    def _insert_inplace(self, leaf: Node, position: int, key: int, value: int, core: CoreLike) -> None:
        """Baseline: shift right with a persistence barrier per shift."""
        for index in range(leaf.count - 1, position - 1, -1):
            # Read the entry being shifted (the RAP-prone load: on G1
            # this line was likely flushed by the previous iteration),
            # write it one slot right, persist.
            core.load(leaf.entry_addr(index), ENTRY_SIZE)
            core.store(leaf.entry_addr(index + 1), ENTRY_SIZE)
            core.clwb(leaf.entry_line(index + 1))
            core.fence(self.fence)
        leaf.keys.insert(position, key)
        leaf.values.insert(position, value)
        core.store(leaf.entry_addr(position), ENTRY_SIZE)
        core.clwb(leaf.entry_line(position))
        core.fence(self.fence)
        # Header (count) update + persist.
        self._persist_header(leaf, core)

    def _insert_redo(self, leaf: Node, position: int, key: int, value: int, core: CoreLike) -> None:
        """Out-of-place: log shifts per cacheline, commit, write back."""
        log = self._ensure_log(core)
        touched_lines: set[int] = set()
        for index in range(leaf.count - 1, position - 1, -1):
            # The source entry is read from the (still cached, never
            # flushed) node; the update is logged out of place.
            core.load(leaf.entry_addr(index), ENTRY_SIZE)
            log.append(leaf.entry_addr(index + 1), ENTRY_SIZE, fence=self.fence)
            touched_lines.add(leaf.entry_line(index + 1))
        log.append(leaf.entry_addr(position), ENTRY_SIZE, fence=self.fence)
        touched_lines.add(leaf.entry_line(position))
        # One commit per touched cacheline, as in the paper's Figure 11.
        for _ in touched_lines:
            log.commit(fence=self.fence)
        leaf.keys.insert(position, key)
        leaf.values.insert(position, value)
        log.apply_and_reclaim(fence=self.fence)
        self._persist_header(leaf, core)

    def remove(self, key: int, core: CoreLike | None = None) -> None:
        """Delete ``key`` (leaf-local, FAST & FAIR-style shift-left).

        Deletion mirrors insertion: entries right of the hole shift one
        slot left, persisting per shift in in-place mode or through the
        redo log in redo mode.  Underflowed leaves are left in place
        (lazy rebalancing, as FAST & FAIR does); invariants still hold.
        """
        if core is not None:
            core.tick(_OP_COST)
        leaf, _ = self._descend(key, core)
        position = bisect_left(leaf.keys, key)
        if position >= leaf.count or leaf.keys[position] != key:
            raise KeyNotFoundError(key)
        self.stats.shifts += leaf.count - position - 1
        if core is not None and self.mode == "inplace":
            for index in range(position + 1, leaf.count):
                core.load(leaf.entry_addr(index), ENTRY_SIZE)
                core.store(leaf.entry_addr(index - 1), ENTRY_SIZE)
                core.clwb(leaf.entry_line(index - 1))
                core.fence(self.fence)
        elif core is not None:
            log = self._ensure_log(core)
            touched: set[int] = set()
            for index in range(position + 1, leaf.count):
                core.load(leaf.entry_addr(index), ENTRY_SIZE)
                log.append(leaf.entry_addr(index - 1), ENTRY_SIZE, fence=self.fence)
                touched.add(leaf.entry_line(index - 1))
            for _ in touched:
                log.commit(fence=self.fence)
            log.apply_and_reclaim(fence=self.fence)
        leaf.keys.pop(position)
        leaf.values.pop(position)
        self._persist_header(leaf, core)
        self.stats.inserts -= 1

    # -- splits ---------------------------------------------------------------------

    def _persist_node(self, node: Node, core: CoreLike | None) -> None:
        """Persist a new node wholesale (no-op without a core)."""
        if core is not None:
            core.store(node.base_addr, NODE_BYTES)
            core.clwb(node.base_addr, NODE_BYTES)
            core.fence(self.fence)

    def _persist_header(self, node: Node, core: CoreLike | None) -> None:
        """Persist a node's header cacheline (no-op without a core)."""
        if core is not None:
            core.store(node.header_addr, 8)
            core.clwb(node.header_addr)
            core.fence(self.fence)

    def _split_leaf(self, leaf: Node, path: list[Node], key: int, core: CoreLike | None) -> Node:
        """Split a full leaf; returns the leaf that should receive ``key``."""
        self.stats.leaf_splits += 1
        right = self._new_node(leaf=True)
        middle = leaf.count // 2
        right.keys = leaf.keys[middle:]
        right.values = leaf.values[middle:]
        leaf.keys = leaf.keys[:middle]
        leaf.values = leaf.values[:middle]
        right.sibling = leaf.sibling
        leaf.sibling = right
        # Persist the new node wholesale, then the shrunken header.
        self._persist_node(right, core)
        self._persist_header(leaf, core)
        separator = right.keys[0]
        self._insert_into_parent(leaf, separator, right, path, core)
        return right if key >= separator else leaf

    def _insert_into_parent(
        self, left: Node, separator: int, right: Node, path: list[Node], core: CoreLike | None
    ) -> None:
        if not path:
            new_root = self._new_node(leaf=False)
            new_root.keys = [separator]
            new_root.children = [left, right]
            self._persist_node(new_root, core)
            self.root = new_root
            self.height += 1
            return
        parent = path[-1]
        if parent.is_full:
            parent = self._split_internal(parent, path[:-1], separator, core)
        position = bisect_left(parent.keys, separator)
        parent.keys.insert(position, separator)
        parent.children.insert(position + 1, right)
        if core is not None:
            # Internal shifts persist like leaf shifts (same mode rules).
            for offset in range(parent.count - position):
                core.store(parent.entry_addr(position + offset), ENTRY_SIZE)
                core.clwb(parent.entry_line(position + offset))
                core.fence(self.fence)
        self._persist_header(parent, core)

    def _split_internal(self, node: Node, path: list[Node], key: int, core: CoreLike | None) -> Node:
        self.stats.internal_splits += 1
        right = self._new_node(leaf=False)
        middle = node.count // 2
        separator = node.keys[middle]
        right.keys = node.keys[middle + 1 :]
        right.children = node.children[middle + 1 :]
        node.keys = node.keys[:middle]
        node.children = node.children[: middle + 1]
        self._persist_node(right, core)
        self._persist_header(node, core)
        self._insert_into_parent(node, separator, right, path, core)
        return right if key >= separator else node

    # -- invariants --------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify ordering, balance and sibling chaining."""
        leaves: list[Node] = []
        self._check_node(self.root, None, None, leaves, depth=0, leaf_depths=set())
        for left, right in zip(leaves, leaves[1:]):
            if left.sibling is not right:
                raise DataStoreError("leaf sibling chain broken")
            if left.keys and right.keys and left.keys[-1] >= right.keys[0]:
                raise DataStoreError("leaf key ranges overlap")

    def _check_node(
        self,
        node: Node,
        low: int | None,
        high: int | None,
        leaves: list[Node],
        depth: int,
        leaf_depths: set[int],
    ) -> None:
        if node.keys != sorted(node.keys):
            raise DataStoreError("keys not sorted")
        if node.count > NODE_CAPACITY:
            raise DataStoreError("node over capacity")
        for key in node.keys:
            if (low is not None and key < low) or (high is not None and key >= high):
                raise DataStoreError("key outside separator range")
        if node.leaf:
            leaf_depths.add(depth)
            if len(leaf_depths) > 1:
                raise DataStoreError("leaves at different depths")
            leaves.append(node)
            return
        if len(node.children) != node.count + 1:
            raise DataStoreError("internal child count mismatch")
        bounds = [low, *node.keys, high]
        for index, child in enumerate(node.children):
            self._check_node(child, bounds[index], bounds[index + 1], leaves, depth + 1, leaf_depths)
