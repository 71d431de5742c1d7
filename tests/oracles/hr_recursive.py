"""The per-cell recursive HR build and per-insert trie load the sweep replaced.

:func:`build_hr` is the original refinement: one Python call per cell, a
depth-first stack for distance-bounded builds and a best-first heap for
budgeted ones.  :func:`load_act` fills the pointer
:class:`~repro.index.act.AdaptiveCellTrie` one ``insert_cell`` at a time
from those approximations.  Together they define the cell sets and postings
the suite-wide frontier sweep
(:meth:`HierarchicalRasterApproximation._build_frontier_suite`) and
:meth:`FlatACT.build` must reproduce exactly.  The bodies are kept verbatim;
only the ``cls`` of the former classmethod became the class itself.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.approx.distance_bound import cell_side_for_bound
from repro.approx.hierarchical_raster import (
    HierarchicalRasterApproximation,
    HRCell,
    _segment_bboxes,
    _slab_clip_hits,
    _start_cell,
)
from repro.curves.cellid import CellId
from repro.curves.morton import MAX_LEVEL
from repro.geometry.bbox import BoundingBox
from repro.geometry.polygon import MultiPolygon, Polygon
from repro.geometry.predicates import point_in_region
from repro.grid.rasterizer import _boundary_segment_array
from repro.grid.uniform_grid import GridFrame
from repro.index.act import AdaptiveCellTrie

__all__ = ["build_bound", "build_hr", "load_act"]


def _intersecting(
    segments: np.ndarray, seg_boxes: np.ndarray, idx: np.ndarray, box: BoundingBox
) -> np.ndarray:
    """Indices (subset of ``idx``) of segments that truly intersect ``box``.

    A cheap bounding-box rejection is followed by the exact slab clip test,
    so cells that merely fall inside the bounding box of a long diagonal
    edge are not treated as boundary cells — that would both blow up the
    cell count and violate the distance bound.
    """
    boxes = seg_boxes[idx]
    keep = ~(
        (boxes[:, 0] > box.max_x)
        | (boxes[:, 2] < box.min_x)
        | (boxes[:, 1] > box.max_y)
        | (boxes[:, 3] < box.min_y)
    )
    candidates = idx[keep]
    if candidates.size == 0:
        return candidates
    hit = _slab_clip_hits(segments[candidates], box.min_x, box.min_y, box.max_x, box.max_y)
    return candidates[hit]


def build_hr(
    region: Polygon | MultiPolygon,
    frame: GridFrame,
    max_level: int = MAX_LEVEL,
    max_cells: int | None = None,
    conservative: bool = True,
) -> HierarchicalRasterApproximation:
    """Per-cell recursive refinement — the build correctness oracle."""
    cls = HierarchicalRasterApproximation
    segments = _boundary_segment_array(region)
    seg_boxes = _segment_bboxes(segments)
    all_idx = np.arange(segments.shape[0])
    start = _start_cell(frame, region.bounds(), min(max_level, MAX_LEVEL))

    cells: list[HRCell] = []

    def classify(cell: CellId, idx: np.ndarray) -> tuple[str, np.ndarray]:
        """Return ('inside'|'outside'|'boundary', surviving segment indices)."""
        box = frame.cell_box(cell)
        surviving = _intersecting(segments, seg_boxes, idx, box)
        if surviving.size == 0:
            cx, cy = frame.cell_center(cell)
            if point_in_region(cx, cy, region):
                return "inside", surviving
            return "outside", surviving
        return "boundary", surviving

    def emit_leaf(cell: CellId, idx: np.ndarray) -> None:
        """Handle a boundary cell that cannot be refined further."""
        if conservative:
            cells.append(HRCell(cell, True))
        else:
            cx, cy = frame.cell_center(cell)
            if point_in_region(cx, cy, region):
                cells.append(HRCell(cell, True))

    if max_cells is None:
        # Depth-first refinement down to max_level.
        stack: list[tuple[CellId, np.ndarray]] = [(start, all_idx)]
        while stack:
            cell, idx = stack.pop()
            kind, surviving = classify(cell, idx)
            if kind == "inside":
                cells.append(HRCell(cell, False))
            elif kind == "outside":
                continue
            elif cell.level >= max_level:
                emit_leaf(cell, surviving)
            else:
                for child in cell.children():
                    stack.append((child, surviving))
    else:
        # Best-first refinement: always split the coarsest boundary cell,
        # stopping when the budget would be exceeded.
        counter = 0
        heap: list[tuple[int, int, CellId, np.ndarray]] = []
        kind, surviving = classify(start, all_idx)
        if kind == "inside":
            cells.append(HRCell(start, False))
        elif kind == "boundary":
            heapq.heappush(heap, (start.level, counter, start, surviving))
            counter += 1
        total = len(cells) + len(heap)
        while heap:
            level, _, cell, idx = heap[0]
            can_split = level < max_level and (total + 3) <= max_cells
            if not can_split:
                break
            heapq.heappop(heap)
            total -= 1
            for child in cell.children():
                child_kind, child_idx = classify(child, idx)
                if child_kind == "inside":
                    cells.append(HRCell(child, False))
                    total += 1
                elif child_kind == "boundary":
                    heapq.heappush(heap, (child.level, counter, child, child_idx))
                    counter += 1
                    total += 1
        # Whatever is left in the heap becomes boundary leaf cells.
        while heap:
            _, _, cell, idx = heapq.heappop(heap)
            emit_leaf(cell, idx)
        effective_max = max((c.cell.level for c in cells), default=0)
        max_level = effective_max

    return cls(region, frame, cells, max_level=max_level, conservative=conservative)


def build_bound(
    region: Polygon | MultiPolygon,
    frame: GridFrame,
    epsilon: float,
    conservative: bool = True,
) -> HierarchicalRasterApproximation:
    """Distance-bounded oracle build: budget-less refinement to the bound's level."""
    max_level = frame.level_for_cell_side(cell_side_for_bound(epsilon))
    return build_hr(region, frame, max_level=max_level, max_cells=None, conservative=conservative)


def load_act(
    regions: list[Polygon | MultiPolygon],
    frame: GridFrame,
    epsilon: float,
    conservative: bool = True,
) -> AdaptiveCellTrie:
    """The pointer trie filled per insert from the oracle's approximations."""
    max_level = frame.level_for_cell_side(cell_side_for_bound(epsilon))
    trie = AdaptiveCellTrie(frame, max_level)
    for polygon_id, region in enumerate(regions):
        trie.insert_approximation(
            polygon_id, build_bound(region, frame, epsilon, conservative=conservative)
        )
    return trie
