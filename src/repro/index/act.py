"""Adaptive Cell Trie (ACT).

ACT (Kipf et al., referenced in §3) is a radix tree over the linearized cells
of hierarchical raster approximations.  Each indexed polygon is first
approximated by an HR approximation that satisfies the user's distance bound;
the resulting cells — which live at different quadtree levels — are inserted
into a radix tree keyed by their cell path (two bits per level).

Key properties reproduced here:

* matching cells can be found at *any* level of the tree, and larger (coarser)
  cells sit closer to the root, so they are found early during traversal;
* keys are not stored explicitly — the path through the trie is the key
  (implicit prefix compression);
* a point lookup walks at most ``max_level`` trie nodes and needs **no
  point-in-polygon test**, which is what makes the approximate join of §5.1
  fast.

The trie maps cells to polygon identifiers.  Because distance-bounded
approximations of adjacent polygons can overlap at the boundary, a cell may
carry several polygon ids; lookups return all of them (the paper's experiments
count a point once per matching polygon).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.approx.hierarchical_raster import HierarchicalRasterApproximation
from repro.curves.cellid import CellId
from repro.errors import IndexError_
from repro.geometry.polygon import MultiPolygon, Polygon
from repro.grid.uniform_grid import GridFrame
from repro.index.flat_act import FlatACT

__all__ = ["AdaptiveCellTrie", "ACTNode"]


@dataclass(slots=True)
class ACTNode:
    """One radix-tree node covering a quadtree cell."""

    #: Polygon ids whose approximation contains exactly this cell.
    values: list[int] = field(default_factory=list)
    #: Child nodes indexed by the two-bit child number (0..3); ``None`` if absent.
    children: list["ACTNode | None"] = field(default_factory=lambda: [None, None, None, None])

    def is_leaf(self) -> bool:
        return all(child is None for child in self.children)


class AdaptiveCellTrie:
    """Radix tree over hierarchical raster cells, mapping cells to polygon ids.

    Parameters
    ----------
    frame:
        The grid hierarchy shared by all indexed polygons and by the queries.
    max_level:
        The finest cell level that will ever be inserted or queried.
    """

    def __init__(self, frame: GridFrame, max_level: int) -> None:
        if max_level < 0:
            raise IndexError_("max_level must be non-negative")
        self.frame = frame
        self.max_level = max_level
        self.root = ACTNode()
        self.num_cells = 0
        self.num_polygons = 0
        self._num_nodes = 1
        self._flat: FlatACT | None = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        regions: list[Polygon | MultiPolygon],
        frame: GridFrame,
        epsilon: float,
        conservative: bool = True,
    ) -> "AdaptiveCellTrie":
        """Index a polygon suite with HR approximations honouring ``epsilon``.

        Loading is per-insert.  :meth:`FlatACT.build` instead bulk-loads the
        same cells into a :class:`~repro.index.flat_act.FlatACT`, bypassing
        the pointer trie entirely; both indexes answer probes identically.
        """
        from repro.approx.distance_bound import cell_side_for_bound

        max_level = frame.level_for_cell_side(cell_side_for_bound(epsilon))
        trie = cls(frame, max_level)
        for polygon_id, region in enumerate(regions):
            approx = HierarchicalRasterApproximation.from_bound(
                region, frame, epsilon, conservative=conservative
            )
            trie.insert_approximation(polygon_id, approx)
        return trie

    def insert_approximation(self, polygon_id: int, approx: HierarchicalRasterApproximation) -> None:
        """Insert every cell of an HR approximation under ``polygon_id``."""
        codes, levels, _ = approx.cell_arrays()
        for code, level in zip(codes.tolist(), levels.tolist()):
            self.insert_cell(polygon_id, CellId(code, level))
        self.num_polygons += 1

    def insert_cell(self, polygon_id: int, cell: CellId) -> None:
        """Insert one cell for ``polygon_id``."""
        if cell.level > self.max_level:
            raise IndexError_(
                f"cell level {cell.level} exceeds the trie's max level {self.max_level}"
            )
        node = self.root
        # Child numbers from the root: two bits at a time, most significant first.
        for depth in range(cell.level):
            shift = 2 * (cell.level - depth - 1)
            child_idx = (cell.code >> shift) & 3
            child = node.children[child_idx]
            if child is None:
                child = ACTNode()
                node.children[child_idx] = child
                self._num_nodes += 1
            node = child
        node.values.append(polygon_id)
        self.num_cells += 1
        self._flat = None  # the flattened snapshot is stale after any insert

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def lookup_cell(self, cell: CellId) -> list[int]:
        """Polygon ids whose approximation covers ``cell`` (or an ancestor of it)."""
        matches: list[int] = []
        node = self.root
        if node.values:
            matches.extend(node.values)
        for depth in range(cell.level):
            shift = 2 * (cell.level - depth - 1)
            child_idx = (cell.code >> shift) & 3
            child = node.children[child_idx]
            if child is None:
                break
            node = child
            if node.values:
                matches.extend(node.values)
        return matches

    def lookup_point(self, x: float, y: float) -> list[int]:
        """Polygon ids whose approximation contains the point.

        The point is mapped to its cell at the finest level and the trie is
        traversed along that cell's path; every value encountered on the way
        (coarser interior cells as well as the finest boundary cells) is a
        match.  No exact geometric test is performed.

        Points outside the frame never match: ``point_to_cell`` clamps them
        onto edge cells, and walking the trie with a clamped code would count
        far-away points as inside edge-adjacent polygons — a false positive
        the distance bound does not allow (same guard as
        :meth:`FlatACT.lookup_point`).
        """
        if not self.frame.contains_point(x, y):
            return []
        cell = self.frame.point_to_cell(x, y, self.max_level)
        return self.lookup_cell(cell)

    def lookup_points(self, xs: np.ndarray, ys: np.ndarray) -> list[list[int]]:
        """Per-point polygon id lists for many points (loop over :meth:`lookup_point`)."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        return [self.lookup_point(float(x), float(y)) for x, y in zip(xs, ys)]

    def flattened(self) -> FlatACT:
        """The array-backed batch-probe representation of this trie.

        Built lazily on first use and cached; any subsequent insert
        invalidates the cache so the next call re-flattens.
        """
        if self._flat is None:
            self._flat = FlatACT.from_trie(self)
        return self._flat

    def lookup_points_batch(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised CSR lookup ``(offsets, polygon_ids)`` via :meth:`flattened`."""
        return self.flattened().lookup_points(xs, ys)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    def memory_bytes(self) -> int:
        """Approximate footprint using the paper's accounting.

        The paper sizes ACT by its cell population (13.2M cells → 143 MB,
        i.e. roughly one 64-bit word per cell plus node overhead).  We charge
        8 bytes per stored cell id plus 4 child slots of 8 bytes per node.
        """
        return self.num_cells * 8 + self._num_nodes * 4 * 8
