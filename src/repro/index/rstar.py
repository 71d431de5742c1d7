"""R*-tree.

The R*-tree (Beckmann et al.) is the paper's stand-in for "classic spatial
indexing with MBR approximations": in Figure 4 it indexes points and filters
with the query polygon's MBR, in Figure 6 it indexes the polygons' MBRs and
drives an exact filter-and-refine join.

Two construction modes are provided, mirroring how the paper configures the
Boost R*-tree:

* :meth:`RStarTree.bulk_load` — Sort-Tile-Recursive packing ("bulk-loading
  mode" in the paper), the mode used by the benchmarks.
* dynamic :meth:`RStarTree.insert` — R*-style choose-subtree (minimum overlap
  enlargement at the leaf level, minimum area enlargement above) and a
  margin-minimising split, used by the unit tests to exercise the dynamic
  code path.

Each node stores the number of data items below it so that COUNT queries can
prune fully-covered subtrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.arrays import csr_from_chunks
from repro.errors import IndexError_
from repro.geometry.bbox import BoundingBox
from repro.index.base import SpatialPointIndex

__all__ = ["RStarTree", "RTreeEntry"]


@dataclass(slots=True)
class RTreeEntry:
    """A data entry: a bounding box plus an opaque integer item id."""

    box: BoundingBox
    item: int


@dataclass(slots=True)
class _Node:
    is_leaf: bool
    entries: list = field(default_factory=list)  # leaf: RTreeEntry, inner: _Node
    box: BoundingBox | None = None
    count: int = 0

    def recompute(self) -> None:
        if not self.entries:
            self.box = None
            self.count = 0
            return
        if self.is_leaf:
            box = self.entries[0].box
            for e in self.entries[1:]:
                box = box.union(e.box)
            self.box = box
            self.count = len(self.entries)
        else:
            box = self.entries[0].box
            count = self.entries[0].count
            for child in self.entries[1:]:
                box = box.union(child.box)
                count += child.count
            self.box = box
            self.count = count


class RStarTree(SpatialPointIndex):
    """R*-tree over boxes (points are inserted as degenerate boxes)."""

    def __init__(self, max_entries: int = 16, min_entries: int | None = None) -> None:
        super().__init__()
        if max_entries < 4:
            raise IndexError_("max_entries must be at least 4")
        self.max_entries = max_entries
        self.min_entries = min_entries or max(2, max_entries * 2 // 5)
        self.root = _Node(is_leaf=True)
        self._num_items = 0
        self._num_nodes = 1
        self._entry_arrays: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def bulk_load_points(
        cls, xs: np.ndarray, ys: np.ndarray, max_entries: int = 64
    ) -> "RStarTree":
        """STR bulk load of a point set (each point is a degenerate box)."""
        entries = [
            RTreeEntry(BoundingBox(float(x), float(y), float(x), float(y)), i)
            for i, (x, y) in enumerate(zip(xs, ys))
        ]
        return cls.bulk_load(entries, max_entries=max_entries)

    @classmethod
    def bulk_load_boxes(cls, boxes: list[BoundingBox], max_entries: int = 16) -> "RStarTree":
        """STR bulk load of arbitrary boxes (e.g. polygon MBRs)."""
        entries = [RTreeEntry(box, i) for i, box in enumerate(boxes)]
        return cls.bulk_load(entries, max_entries=max_entries)

    @classmethod
    def bulk_load(cls, entries: list[RTreeEntry], max_entries: int = 16) -> "RStarTree":
        """Sort-Tile-Recursive packing of data entries."""
        tree = cls(max_entries=max_entries)
        tree._num_items = len(entries)
        if not entries:
            return tree

        def pack_level(nodes: list, is_leaf: bool) -> list:
            capacity = max_entries
            n = len(nodes)
            num_nodes = math.ceil(n / capacity)
            slices = math.ceil(math.sqrt(num_nodes))

            def center_x(obj) -> float:
                box = obj.box
                return (box.min_x + box.max_x) / 2.0

            def center_y(obj) -> float:
                box = obj.box
                return (box.min_y + box.max_y) / 2.0

            by_x = sorted(nodes, key=center_x)
            slice_size = math.ceil(n / slices)
            packed: list[_Node] = []
            for s in range(0, n, slice_size):
                strip = sorted(by_x[s : s + slice_size], key=center_y)
                for k in range(0, len(strip), capacity):
                    node = _Node(is_leaf=is_leaf, entries=list(strip[k : k + capacity]))
                    node.recompute()
                    packed.append(node)
            return packed

        level = pack_level(entries, is_leaf=True)
        tree._num_nodes = len(level)
        while len(level) > 1:
            level = pack_level(level, is_leaf=False)
            tree._num_nodes += len(level)
        tree.root = level[0]
        return tree

    # ------------------------------------------------------------------ #
    # dynamic insertion (R* choose-subtree and split)
    # ------------------------------------------------------------------ #
    def insert(self, box: BoundingBox, item: int) -> None:
        """Insert one data entry."""
        entry = RTreeEntry(box, item)
        split = self._insert_into(self.root, entry)
        if split is not None:
            new_root = _Node(is_leaf=False, entries=[self.root, split])
            new_root.recompute()
            self.root = new_root
            self._num_nodes += 1
        self._num_items += 1
        self._entry_arrays = None  # batch-probe arrays are stale after an insert

    def insert_point(self, x: float, y: float, item: int) -> None:
        """Insert a point as a degenerate box."""
        self.insert(BoundingBox(x, y, x, y), item)

    def _insert_into(self, node: _Node, entry: RTreeEntry) -> "_Node | None":
        if node.is_leaf:
            node.entries.append(entry)
            node.recompute()
            if len(node.entries) > self.max_entries:
                return self._split(node)
            return None
        child = self._choose_subtree(node, entry.box)
        split = self._insert_into(child, entry)
        if split is not None:
            node.entries.append(split)
        node.recompute()
        if len(node.entries) > self.max_entries:
            return self._split(node)
        return None

    def _choose_subtree(self, node: _Node, box: BoundingBox) -> _Node:
        children = node.entries
        leaf_children = children[0].is_leaf
        best = None
        best_key = None
        for child in children:
            enlargement = child.box.enlargement(box)
            if leaf_children:
                # R*: minimise overlap enlargement, tie-break on area enlargement.
                union = child.box.union(box)
                overlap_delta = 0.0
                for other in children:
                    if other is child:
                        continue
                    overlap_delta += union.overlap_area(other.box) - child.box.overlap_area(other.box)
                key = (overlap_delta, enlargement, child.box.area)
            else:
                key = (enlargement, child.box.area, 0.0)
            if best_key is None or key < best_key:
                best_key = key
                best = child
        assert best is not None
        return best

    def _split(self, node: _Node) -> _Node:
        """Margin-minimising split along the better of the two axes."""
        entries = node.entries

        def margin_of(group: list) -> float:
            box = group[0].box
            for e in group[1:]:
                box = box.union(e.box)
            return box.perimeter

        best = None
        best_key = None
        for axis in ("x", "y"):
            if axis == "x":
                ordered = sorted(entries, key=lambda e: (e.box.min_x, e.box.max_x))
            else:
                ordered = sorted(entries, key=lambda e: (e.box.min_y, e.box.max_y))
            for split_at in range(self.min_entries, len(ordered) - self.min_entries + 1):
                left = ordered[:split_at]
                right = ordered[split_at:]
                key = margin_of(left) + margin_of(right)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (left, right)
        assert best is not None
        left, right = best
        node.entries = list(left)
        node.recompute()
        sibling = _Node(is_leaf=node.is_leaf, entries=list(right))
        sibling.recompute()
        self._num_nodes += 1
        return sibling

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def count_in_box(self, box: BoundingBox) -> int:
        """Count data entries intersecting ``box``.

        Like the Boost R*-tree query iterator the paper benchmarks against,
        the traversal enumerates every qualifying leaf entry individually —
        there is no aggregated-count shortcut — so the cost is proportional to
        the number of qualifying entries.
        """
        return self._count(self.root, box)

    def _count(self, node: _Node, box: BoundingBox) -> int:
        if node.box is None or not box.intersects(node.box):
            return 0
        self.stats.nodes_visited += 1
        total = 0
        if node.is_leaf:
            for e in node.entries:
                self.stats.comparisons += 1
                if box.intersects(e.box):
                    total += 1
        else:
            for child in node.entries:
                total += self._count(child, box)
        return total

    def query_box(self, box: BoundingBox) -> np.ndarray:
        items: list[int] = []
        self._collect(self.root, box, items)
        return np.asarray(items, dtype=np.int64)

    def _collect(self, node: _Node, box: BoundingBox, out: list[int]) -> None:
        if node.box is None or not box.intersects(node.box):
            return
        self.stats.nodes_visited += 1
        if node.is_leaf:
            for e in node.entries:
                self.stats.comparisons += 1
                if box.intersects(e.box):
                    out.append(e.item)
        else:
            for child in node.entries:
                self._collect(child, box, out)

    def query_point(self, x: float, y: float) -> list[int]:
        """Item ids whose boxes contain the point (used by the polygon join)."""
        out: list[int] = []
        self._collect_point(self.root, x, y, out)
        return out

    def _collect_point(self, node: _Node, x: float, y: float, out: list[int]) -> None:
        if node.box is None or not node.box.contains_xy(x, y):
            return
        self.stats.nodes_visited += 1
        if node.is_leaf:
            for e in node.entries:
                self.stats.comparisons += 1
                if e.box.contains_xy(x, y):
                    out.append(e.item)
        else:
            for child in node.entries:
                self._collect_point(child, x, y, out)

    # ------------------------------------------------------------------ #
    # batch probes
    # ------------------------------------------------------------------ #
    def batch_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All leaf entries as ``(boxes (E, 4), items (E,))`` arrays, cached.

        Callers timing the probe phase separately (the joins) invoke this
        during their build phase so the one-off tree walk is charged to build,
        not to the first batch probe.
        """
        if self._entry_arrays is None:
            boxes: list[tuple[float, float, float, float]] = []
            items: list[int] = []
            stack = [self.root]
            while stack:
                node = stack.pop()
                if node.is_leaf:
                    for e in node.entries:
                        boxes.append((e.box.min_x, e.box.min_y, e.box.max_x, e.box.max_y))
                        items.append(e.item)
                else:
                    stack.extend(node.entries)
            self._entry_arrays = (
                np.asarray(boxes, dtype=np.float64).reshape(-1, 4),
                np.asarray(items, dtype=np.int64),
            )
        return self._entry_arrays

    #: Entry count above which :meth:`query_points` switches to the sorted-x
    #: interval prefilter; below it the per-entry full scans are cheaper than
    #: sorting the probe points.
    _PREFILTER_MIN_ENTRIES = 16

    def query_points(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batch point probe: CSR ``(offsets, items)`` of boxes containing each point.

        The matches of point ``k`` are ``items[offsets[k]:offsets[k + 1]]``.
        For a handful of entries one vectorised containment pass runs per data
        entry.  With many entries that full scan is O(entries x points), so
        the points are sorted by x once and each entry restricts its test to
        the ``searchsorted`` slice of points inside its ``[min_x, max_x]``
        interval — per-entry cost drops to O(log points + x-overlaps) while
        the emitted CSR stays exactly the tree walk's candidate sets (the
        stable CSR assembly orders matches per point by entry, identically
        for both paths).
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        n = xs.shape[0]
        boxes, entry_items = self.batch_arrays()
        num_entries = boxes.shape[0]
        point_chunks: list[np.ndarray] = []
        item_chunks: list[np.ndarray] = []
        use_prefilter = num_entries >= self._PREFILTER_MIN_ENTRIES and n > 0
        if use_prefilter:
            x_order = np.argsort(xs)
            xs_sorted = xs[x_order]
            lows = np.searchsorted(xs_sorted, boxes[:, 0], side="left")
            highs = np.searchsorted(xs_sorted, boxes[:, 2], side="right")
        for e in range(num_entries):
            min_x, min_y, max_x, max_y = boxes[e]
            if use_prefilter:
                candidates = x_order[lows[e] : highs[e]]
                if candidates.size == 0:
                    continue
                cy = ys[candidates]
                hit = candidates[(cy >= min_y) & (cy <= max_y)]
            else:
                hit = np.flatnonzero(
                    (xs >= min_x) & (xs <= max_x) & (ys >= min_y) & (ys <= max_y)
                )
            if hit.size:
                point_chunks.append(hit)
                item_chunks.append(np.full(hit.size, entry_items[e], dtype=np.int64))
        return csr_from_chunks(point_chunks, item_chunks, n)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        return self._num_items

    @property
    def height(self) -> int:
        h = 1
        node = self.root
        while not node.is_leaf:
            node = node.entries[0]
            h += 1
        return h

    def memory_bytes(self) -> int:
        # Each node stores up to max_entries boxes (4 floats) plus bookkeeping;
        # this matches the order of magnitude of the paper's 27.9 KB for an
        # R*-tree over 289 polygon MBRs.
        per_entry = 4 * 8 + 8
        return self._num_nodes * (per_entry * self.max_entries // 2 + 32)
