"""Shape index with coarse hierarchical-raster covering and exact refinement.

This is the stand-in for Google's S2ShapeIndex used as a baseline in §5.1.
Like the real S2ShapeIndex it

* covers each polygon with a *coarse* hierarchical raster approximation
  (a bounded number of variable-size cells — not distance-bounded), and
* always refines candidates with an exact point-in-polygon test, i.e. it does
  **not** support approximate evaluation.

The point of the comparison in Figure 6 is that a tighter covering (SI)
reduces the number of exact tests relative to MBR filtering (R*-tree), but
only the distance-bounded approximation (ACT) can skip the tests entirely.

The covering cells are held in a :class:`~repro.index.flat_act.FlatACT`
(sorted per-level keys + CSR postings) — the same batch-probe representation
the ACT join uses — so scalar and batch candidate lookups share one
level-resolution kernel.
"""

from __future__ import annotations

import numpy as np

from repro.approx.hierarchical_raster import HierarchicalRasterApproximation
from repro.errors import IndexError_
from repro.geometry.polygon import MultiPolygon, Polygon
from repro.geometry.predicates import point_in_region
from repro.grid.uniform_grid import GridFrame
from repro.index.flat_act import FlatACT, concat_cell_arrays

__all__ = ["ShapeIndex"]


class ShapeIndex:
    """Coarse-covering polygon index with exact refinement.

    Parameters
    ----------
    regions:
        The indexed polygons / multipolygons.
    frame:
        Shared grid hierarchy.
    max_cells_per_shape:
        Size of the coarse covering of each region (S2ShapeIndex uses a
        similar per-shape cell budget).  Not a distance bound.

    All coverings come from one suite-wide frontier sweep and their cell
    arrays are bulk-assembled into the flat layout without per-cell Python
    objects.
    """

    def __init__(
        self,
        regions: list[Polygon | MultiPolygon],
        frame: GridFrame,
        max_cells_per_shape: int = 32,
        max_level: int = 20,
    ) -> None:
        if max_cells_per_shape < 1:
            raise IndexError_("max_cells_per_shape must be at least 1")
        self.regions = list(regions)
        self.frame = frame
        self.max_cells_per_shape = max_cells_per_shape
        self.max_level = max_level

        # Build all coverings, then bulk-load their cell arrays.
        approxes = HierarchicalRasterApproximation.from_cell_budget_batch(
            self.regions,
            frame,
            max_cells=max_cells_per_shape,
            conservative=True,
            max_level=max_level,
        )
        pids, codes, levels = concat_cell_arrays(approxes)
        self.num_cells = int(codes.shape[0])

        self._effective_max_level = int(levels.max()) if levels.size else 0
        self._flat = FlatACT.from_cells(frame, self._effective_max_level, pids, codes, levels)

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def candidates(self, x: float, y: float) -> list[int]:
        """Polygon ids whose coarse covering contains the point (no refinement).

        Out-of-frame points get no candidates (the FlatACT probe masks them
        before encoding).  Even before that guard the exact-join results were
        safe — every candidate is re-checked with a point-in-polygon test —
        but clamped points used to pay spurious PIP tests against
        edge-adjacent polygons.
        """
        return self._flat.lookup_point(x, y)

    def lookup_point(self, x: float, y: float) -> list[int]:
        """Polygon ids that *exactly* contain the point (candidates + PIP refinement)."""
        result = []
        for polygon_id in self.candidates(x, y):
            if point_in_region(x, y, self.regions[polygon_id]):
                result.append(polygon_id)
        return result

    def query_points(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batch candidate probe: CSR ``(offsets, polygon_ids)`` per point.

        Vectorised equivalent of :meth:`candidates` — no refinement.  The
        candidates of point ``k`` are ``polygon_ids[offsets[k]:offsets[k + 1]]``,
        ordered coarse-to-fine like the scalar lookup.
        """
        return self._flat.lookup_points(xs, ys)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def num_shapes(self) -> int:
        return len(self.regions)

    def memory_bytes(self) -> int:
        """Footprint of the covering's key, offset and postings arrays."""
        return self._flat.memory_bytes()
