"""Hierarchical Raster (HR) approximation.

The hierarchical raster (Figure 1(c)) keeps the distance guarantee of the
uniform raster but represents the *interior* of the region with large cells
and only refines cells that touch the boundary.  This is the representation
behind the Adaptive Cell Trie index (§3) and the main-memory join of §5.1.

Two construction modes are provided:

* :meth:`HierarchicalRasterApproximation.from_bound` — refine boundary cells
  until their diagonal is at most ``epsilon`` (the paper's distance bound).
* :meth:`HierarchicalRasterApproximation.from_cell_budget` — refine the
  coarsest boundary cells first until a cell budget is reached.  This is the
  "32 / 128 / 512 cells per polygon" precision knob used in Figure 4.

The builder prunes by boundary segments: a cell whose box intersects no
boundary segment is entirely inside or outside the region, decided by a
single point-in-polygon test of its centre, so the refinement only descends
along the boundary and the construction cost is proportional to the boundary
length measured in cells.

Construction (:meth:`_build_frontier_suite`) sweeps one whole refinement
level at a time for a whole polygon suite — a single region-tagged array of
candidate cell codes is classified inside / outside / boundary per level
with a vectorised segment-box intersection over CSR candidate lists plus one
batched centre test on a y-slab edge table
(:class:`~repro.geometry.predicates.RegionSlabs`).  It emits the identical
cell set as the per-cell recursive refinement it replaced (kept as the test
oracle ``tests/oracles/hr_recursive.py``), for distance-bounded and budgeted
builds alike.

Internally the approximation is array-native: cells live as parallel
``(codes, levels, boundary)`` arrays so that building hundreds of
approximations and bulk-loading them into a
:class:`~repro.index.flat_act.FlatACT` never materialises a Python object
per cell.  The :class:`HRCell` view remains available through :attr:`cells`
for scalar consumers (the pointer trie, tests, examples).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.approx.base import GeometricApproximation, as_point_arrays
from repro.arrays import expand_slices, isin_sorted
from repro.curves.cellid import CellId, children_codes
from repro.curves.morton import MAX_LEVEL, morton_decode_array
from repro.errors import ApproximationError, CurveError
from repro.geometry.bbox import BoundingBox
from repro.geometry.polygon import MultiPolygon, Polygon
from repro.geometry.predicates import RegionSlabs
from repro.grid.uniform_grid import GridFrame

__all__ = ["HierarchicalRasterApproximation", "HRCell"]


@dataclass(frozen=True, slots=True)
class HRCell:
    """One cell of a hierarchical raster approximation."""

    cell: CellId
    is_boundary: bool


def _segment_bboxes(segments: np.ndarray) -> np.ndarray:
    """Per-segment bounding boxes as ``(m, 4)`` of ``(min_x, min_y, max_x, max_y)``."""
    return np.column_stack(
        [
            np.minimum(segments[:, 0], segments[:, 2]),
            np.minimum(segments[:, 1], segments[:, 3]),
            np.maximum(segments[:, 0], segments[:, 2]),
            np.maximum(segments[:, 1], segments[:, 3]),
        ]
    )


def _slab_clip_hits(
    segs: np.ndarray, bx0, by0, bx1, by1
) -> np.ndarray:
    """Exact slab (Liang–Barsky) clip mask: does each segment cross its box?

    ``segs`` is an ``(m, 4)`` array of segment endpoints; the box coordinates
    may be scalars (one box against many segments — the recursive test
    oracle) or per-segment arrays (one box per (cell, candidate) pair — the
    frontier sweep).  Both resolve boundary membership through this one
    kernel, so their bit-identical-cell-set contract cannot drift.
    """
    x1, y1, x2, y2 = segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3]
    dx = x2 - x1
    dy = y2 - y1
    with np.errstate(divide="ignore", invalid="ignore"):
        tx1 = np.where(dx != 0, (bx0 - x1) / dx, np.where(x1 >= bx0, -np.inf, np.inf))
        tx2 = np.where(dx != 0, (bx1 - x1) / dx, np.where(x1 <= bx1, np.inf, -np.inf))
        ty1 = np.where(dy != 0, (by0 - y1) / dy, np.where(y1 >= by0, -np.inf, np.inf))
        ty2 = np.where(dy != 0, (by1 - y1) / dy, np.where(y1 <= by1, np.inf, -np.inf))
    t_enter = np.maximum(np.minimum(tx1, tx2), np.minimum(ty1, ty2))
    t_exit = np.minimum(np.maximum(tx1, tx2), np.maximum(ty1, ty2))
    return (t_enter <= t_exit) & (t_exit >= 0.0) & (t_enter <= 1.0)


def _start_cell(frame: GridFrame, region_bounds: BoundingBox, max_level: int) -> CellId:
    """Smallest frame cell that contains the whole region bounding box."""
    low = frame.point_to_cell(region_bounds.min_x, region_bounds.min_y, max_level)
    high = frame.point_to_cell(region_bounds.max_x, region_bounds.max_y, max_level)
    level = max_level
    a, b = low, high
    while a.code != b.code and level > 0:
        a = a.parent()
        b = b.parent()
        level -= 1
    return a


def _cell_boxes(
    frame: GridFrame, codes: np.ndarray, level: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """World boxes ``(x0, y0, x1, y1)`` of many cells at one level.

    Uses the exact arithmetic of :meth:`GridFrame.cell_box` so the vectorised
    classifier sees bit-identical box coordinates to the scalar oracle.
    """
    side = frame.cell_side(level)
    ix, iy = morton_decode_array(codes, level)
    x0 = frame.origin_x + ix.astype(np.float64) * side
    y0 = frame.origin_y + iy.astype(np.float64) * side
    return x0, y0, x0 + side, y0 + side


def _classify_cells(
    slabs: RegionSlabs,
    frame: GridFrame,
    seg_boxes: np.ndarray,
    codes: np.ndarray,
    level: int,
    cand_offsets: np.ndarray,
    cand_idx: np.ndarray,
    cell_rids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised ``classify`` over every cell of one refinement level.

    ``cand_offsets`` / ``cand_idx`` form the CSR candidate-segment lists the
    cells inherited from their parents (indices into ``slabs.segments``, whose
    bounding boxes are ``seg_boxes``).  ``cell_rids`` tags each cell with the
    index of its region in ``slabs`` — the suite-wide sweep classifies the
    frontiers of many regions in one call.  Returns ``(kind, offsets, idx)``:
    ``kind[k]`` is 0 (outside), 1 (boundary) or 2 (inside) and
    ``(offsets, idx)`` is the CSR of surviving segments per cell — the same
    bounding-box rejection + exact slab clip as the scalar oracle's, run
    over all (cell, candidate) pairs at once, followed by one segmented
    centre test (:meth:`RegionSlabs.contains`) for the cells no segment
    survived, whatever their regions.  That test is elementwise, so every
    cell's verdict is the one ``point_in_region`` gives the scalar oracle.
    """
    segments = slabs.segments
    n = codes.shape[0]
    x0, y0, x1, y1 = _cell_boxes(frame, codes, level)

    pair_cell = np.repeat(np.arange(n, dtype=np.int64), np.diff(cand_offsets))
    boxes = seg_boxes[cand_idx]
    keep = ~(
        (boxes[:, 0] > x1[pair_cell])
        | (boxes[:, 2] < x0[pair_cell])
        | (boxes[:, 1] > y1[pair_cell])
        | (boxes[:, 3] < y0[pair_cell])
    )
    cand_cell = pair_cell[keep]
    surv_idx = cand_idx[keep]
    if surv_idx.size:
        hit = _slab_clip_hits(
            segments[surv_idx], x0[cand_cell], y0[cand_cell], x1[cand_cell], y1[cand_cell]
        )
        cand_cell = cand_cell[hit]
        surv_idx = surv_idx[hit]

    surv_counts = np.bincount(cand_cell, minlength=n).astype(np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(surv_counts, out=offsets[1:])

    kind = np.ones(n, dtype=np.int8)
    no_seg = surv_counts == 0
    if no_seg.any():
        cx = (x0[no_seg] + x1[no_seg]) / 2.0
        cy = (y0[no_seg] + y1[no_seg]) / 2.0
        inside = slabs.contains(cell_rids[no_seg], cx, cy)
        kind[no_seg] = np.where(inside, np.int8(2), np.int8(0))
    return kind, offsets, surv_idx


def _centres_inside(
    slabs: RegionSlabs, frame: GridFrame, codes: np.ndarray, level: int, cell_rids: np.ndarray
) -> np.ndarray:
    """Mask of the cells (one level, region-tagged) whose centre is in their region."""
    x0, y0, x1, y1 = _cell_boxes(frame, codes, level)
    return slabs.contains(cell_rids, (x0 + x1) / 2.0, (y0 + y1) / 2.0)


def _replay_budget(
    deltas: np.ndarray,
    slice_starts: np.ndarray,
    slice_stops: np.ndarray,
    base_totals: np.ndarray,
    max_cells: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised replay of the oracle's sequential budget accounting.

    ``deltas[p]`` is the cell-count change caused by splitting parent ``p``
    (inside children + boundary children - the parent itself);
    ``slice_starts`` / ``slice_stops`` delimit each region's contiguous
    parent slice and ``base_totals`` holds each region's running cell count
    entering the level.  The oracle walks a slice in order and stops at the
    *first* parent whose running total would exceed ``max_cells`` (the
    ``total + 3 > max_cells`` guard), so the cutoff is the first failure of

    ``base + prefix[p] + 3 > max_cells``

    over the exclusive prefix sum of the slice's deltas.  Deltas can be
    negative (a parent whose children are all outside shrinks the count), so
    the prefix is not monotone and a ``searchsorted`` over it would be wrong;
    the first failing position is found with one ``minimum.reduceat`` over an
    index array masked to failures.  Integer arithmetic throughout — the
    replay is bit-identical to the sequential loop.

    Returns ``(split_upto, new_totals)`` per slice: parents in
    ``[start, split_upto)`` split, and ``new_totals`` is the running count
    after their deltas are applied.
    """
    n = deltas.shape[0]
    prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deltas, out=prefix[1:])
    slice_of_parent = np.repeat(
        np.arange(slice_starts.shape[0], dtype=np.int64), slice_stops - slice_starts
    )
    before = (
        base_totals[slice_of_parent]
        + prefix[:n]
        - prefix[slice_starts[slice_of_parent]]
    )
    fail = before + 3 > max_cells
    first_fail = np.minimum.reduceat(
        np.where(fail, np.arange(n, dtype=np.int64), n), slice_starts
    )
    split_upto = np.minimum(first_fail, slice_stops)
    new_totals = base_totals + prefix[split_upto] - prefix[slice_starts]
    return split_upto, new_totals


class HierarchicalRasterApproximation(GeometricApproximation):
    """Variable-cell-size raster approximation of a region."""

    distance_bounded = True

    __slots__ = (
        "region",
        "frame",
        "max_level",
        "conservative",
        "_codes",
        "_levels",
        "_boundary",
        "_cells",
        "_cell_lookup",
        "_min_level",
        "_level_codes",
    )

    def __init__(
        self,
        region: Polygon | MultiPolygon,
        frame: GridFrame,
        cells: list[HRCell],
        max_level: int,
        conservative: bool,
    ) -> None:
        n = len(cells)
        codes = np.fromiter((c.cell.code for c in cells), dtype=np.uint64, count=n)
        levels = np.fromiter((c.cell.level for c in cells), dtype=np.int64, count=n)
        boundary = np.fromiter((c.is_boundary for c in cells), dtype=bool, count=n)
        self._init_arrays(region, frame, codes, levels, boundary, max_level, conservative)
        self._cells = list(cells)

    @classmethod
    def from_cell_arrays(
        cls,
        region: Polygon | MultiPolygon,
        frame: GridFrame,
        codes: np.ndarray,
        levels: np.ndarray,
        boundary: np.ndarray,
        max_level: int,
        conservative: bool,
    ) -> "HierarchicalRasterApproximation":
        """Construct directly from parallel cell arrays (no per-cell objects)."""
        codes = np.asarray(codes, dtype=np.uint64)
        levels = np.asarray(levels, dtype=np.int64)
        boundary = np.asarray(boundary, dtype=bool)
        if not (codes.shape == levels.shape == boundary.shape):
            raise ApproximationError("codes, levels and boundary must have equal shapes")
        self = cls.__new__(cls)
        self._init_arrays(region, frame, codes, levels, boundary, max_level, conservative)
        self._cells = None
        return self

    def _init_arrays(
        self,
        region: Polygon | MultiPolygon,
        frame: GridFrame,
        codes: np.ndarray,
        levels: np.ndarray,
        boundary: np.ndarray,
        max_level: int,
        conservative: bool,
    ) -> None:
        self.region = region
        self.frame = frame
        self.max_level = max_level
        self.conservative = conservative
        self._codes = codes
        self._levels = levels
        self._boundary = boundary
        self._cell_lookup = None
        self._min_level = int(levels.min()) if levels.size else 0
        self._level_codes: list[tuple[int, np.ndarray]] | None = None

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_bound(
        cls,
        region: Polygon | MultiPolygon,
        frame: GridFrame,
        epsilon: float,
        conservative: bool = True,
    ) -> "HierarchicalRasterApproximation":
        """Build an HR approximation satisfying the Hausdorff bound ``epsilon``.

        Boundary cells are refined down to the finest level implied by the
        bound (cell diagonal at most ``epsilon``); interior cells stay as
        coarse as the boundary allows.
        """
        from repro.approx.build_engine import get_build_engine

        return get_build_engine().build_bound(
            region, frame, epsilon, conservative=conservative
        )

    @classmethod
    def _from_chunks(
        cls,
        region: Polygon | MultiPolygon,
        frame: GridFrame,
        chunks: list[tuple[np.ndarray, int, bool]],
        max_level: int,
        conservative: bool,
    ) -> "HierarchicalRasterApproximation":
        """Assemble ``(codes, level, is_boundary)`` chunks into one approximation."""
        if chunks:
            codes = np.concatenate([c for c, _, _ in chunks])
            levels = np.concatenate(
                [np.full(c.shape[0], lvl, dtype=np.int64) for c, lvl, _ in chunks]
            )
            boundary = np.concatenate(
                [np.full(c.shape[0], b, dtype=bool) for c, _, b in chunks]
            )
        else:
            codes = np.empty(0, dtype=np.uint64)
            levels = np.empty(0, dtype=np.int64)
            boundary = np.empty(0, dtype=bool)
        return cls.from_cell_arrays(
            region, frame, codes, levels, boundary, max_level=max_level, conservative=conservative
        )

    @classmethod
    def from_cell_budget(
        cls,
        region: Polygon | MultiPolygon,
        frame: GridFrame,
        max_cells: int,
        conservative: bool = True,
        max_level: int = MAX_LEVEL,
    ) -> "HierarchicalRasterApproximation":
        """Build an HR approximation using at most ``max_cells`` cells."""
        from repro.approx.build_engine import get_build_engine

        if max_cells < 1:
            raise ApproximationError("cell budget must be at least 1")
        return get_build_engine().build_hr(
            region, frame, max_level=max_level, max_cells=max_cells, conservative=conservative
        )

    @classmethod
    def from_cell_budget_batch(
        cls,
        regions: "list[Polygon | MultiPolygon]",
        frame: GridFrame,
        max_cells: int,
        conservative: bool = True,
        max_level: int = MAX_LEVEL,
    ) -> "list[HierarchicalRasterApproximation]":
        """Budgeted approximations of a whole polygon suite in one call.

        The fig6 / fig7 workloads build hundreds of approximations; one
        suite-wide sweep pays the per-level numpy overhead once for all of
        them.
        """
        from repro.approx.build_engine import get_build_engine

        if max_cells < 1:
            raise ApproximationError("cell budget must be at least 1")
        return get_build_engine().build_hr_batch(
            regions, frame, max_level=max_level, max_cells=max_cells, conservative=conservative
        )

    @classmethod
    def _build_frontier_suite(
        cls,
        regions: "list[Polygon | MultiPolygon]",
        frame: GridFrame,
        max_level: int,
        max_cells: int | None,
        conservative: bool,
    ) -> "list[HierarchicalRasterApproximation]":
        """Suite-wide frontier sweep: all regions' frontiers, one batch per level.

        Instead of classifying one cell per Python call (the recursive
        oracle), the sweep keeps a single region-tagged frontier for the
        entire suite — one concatenated candidate-code array per level, CSR
        candidate-segment lists over one global segment array keyed by
        ``(region, cell)``, and one batched :func:`_classify_cells` centre
        test — so a level costs one batch of array passes no matter how many
        regions are refining.  A single-region build is a one-region suite.

        Bit-identical contract: the frontier is kept region-major (stable
        sort by region tag after every merge), every cell inherits exactly
        the candidate list it would inherit refining its region alone, and
        the oracle's best-first budget accounting is replayed sequentially
        per region over its contiguous parent slice — the oracle's heap pops
        cells in (level, insertion) order, which is exactly frontier order.
        Every cell therefore sees the same boxes, the same surviving segments
        and the same centre verdicts as in the oracle, and each region's
        emitted cell set — codes, levels and boundary flags — matches it
        exactly.
        """
        max_level = min(max_level, MAX_LEVEL)
        num = len(regions)
        if num == 0:
            return []

        # One region-tagged edge table for the whole suite: its segment array
        # feeds the boundary classification, its slabs the centre tests.
        slabs = RegionSlabs(regions)
        seg_offsets = slabs.region_segment_offsets
        seg_counts = np.diff(seg_offsets)
        seg_boxes = _segment_bboxes(slabs.segments)

        starts = [_start_cell(frame, region.bounds(), max_level) for region in regions]
        entry: dict[int, list[int]] = {}
        for rid, cell in enumerate(starts):
            entry.setdefault(cell.level, []).append(rid)

        chunks: list[list[tuple[np.ndarray, int, bool]]] = [[] for _ in range(num)]
        totals = np.zeros(num, dtype=np.int64)

        def emit(rid: int, codes_arr: np.ndarray, lvl: int, boundary: bool) -> None:
            if codes_arr.size:
                chunks[rid].append((codes_arr, lvl, boundary))

        def kept_leaves(leaf: np.ndarray, codes_arr: np.ndarray, rids: np.ndarray, lvl: int):
            """``leaf`` (a mask over one level's cells) minus the boundary leaves
            a non-conservative build drops: those whose centre is outside
            their region, found in one segmented call for all regions."""
            if conservative:
                return leaf
            leaf = leaf.copy()
            leaf[leaf] = _centres_inside(slabs, frame, codes_arr[leaf], lvl, rids[leaf])
            return leaf

        # Frontier of the current level: region-major concatenated boundary
        # cells, their region tags, and CSR candidate-segment lists (indices
        # into the global segment array).
        f_codes = np.empty(0, dtype=np.uint64)
        f_rids = np.empty(0, dtype=np.int64)
        f_offsets = np.zeros(1, dtype=np.int64)
        f_idx = np.empty(0, dtype=np.int64)

        level = min(entry)
        while True:
            entering = entry.pop(level, None)
            if entering:
                # Admit the regions whose start cell lives at this level:
                # classify their start cells (each seeded with every segment
                # of its region) in one batch and merge the boundary ones
                # into the frontier.
                e_rids = np.asarray(entering, dtype=np.int64)
                e_codes = np.array([starts[r].code for r in entering], dtype=np.uint64)
                e_counts = seg_counts[e_rids]
                e_offsets = np.zeros(e_rids.shape[0] + 1, dtype=np.int64)
                np.cumsum(e_counts, out=e_offsets[1:])
                e_idx = expand_slices(seg_offsets[e_rids], e_counts)
                e_kind, e_offsets, e_idx = _classify_cells(
                    slabs, frame, seg_boxes, e_codes, level, e_offsets, e_idx, e_rids,
                )
                for j, rid in enumerate(entering):
                    if e_kind[j] == 2:
                        emit(rid, e_codes[j : j + 1], level, False)
                    if e_kind[j] != 0:
                        totals[rid] = 1
                stay = e_kind == 1
                if stay.any():
                    add_counts = np.diff(e_offsets)[stay]
                    add_idx = e_idx[expand_slices(e_offsets[:-1][stay], add_counts)]
                    merged_codes = np.concatenate([f_codes, e_codes[stay]])
                    merged_rids = np.concatenate([f_rids, e_rids[stay]])
                    merged_counts = np.concatenate([np.diff(f_offsets), add_counts])
                    merged_idx = np.concatenate([f_idx, add_idx])
                    # Restore the region-major invariant.  Each region enters
                    # exactly once, so the stable sort only moves whole-region
                    # blocks and the within-region cell order is preserved.
                    order = np.argsort(merged_rids, kind="stable")
                    old_starts = np.zeros(merged_counts.shape[0], dtype=np.int64)
                    np.cumsum(merged_counts[:-1], out=old_starts[1:])
                    f_codes = merged_codes[order]
                    f_rids = merged_rids[order]
                    perm_counts = merged_counts[order]
                    f_idx = merged_idx[expand_slices(old_starts[order], perm_counts)]
                    f_offsets = np.zeros(f_codes.shape[0] + 1, dtype=np.int64)
                    np.cumsum(perm_counts, out=f_offsets[1:])

            if f_codes.size:
                # Per-region stop check, mirroring the top of the oracle's
                # refinement loop: at max_level, or when splitting any cell
                # could exceed the budget, the region's whole frontier
                # becomes leaf cells.
                if level >= max_level:
                    stopped_region = np.ones(num, dtype=bool)
                elif max_cells is not None:
                    stopped_region = totals + 3 > max_cells
                else:
                    stopped_region = np.zeros(num, dtype=bool)
                stop_mask = stopped_region[f_rids]
                if stop_mask.any():
                    # Whole regions stop, so the stopped subset stays
                    # region-major: emit each region's leaves from its
                    # contiguous slice instead of rescanning the frontier.
                    leaf = kept_leaves(stop_mask, f_codes, f_rids, level)
                    stopped_codes = f_codes[leaf]
                    stopped_rids = f_rids[leaf]
                    uniq, slice_lo = np.unique(stopped_rids, return_index=True)
                    slice_hi = np.append(slice_lo[1:], stopped_rids.shape[0])
                    for rid, lo, hi in zip(uniq.tolist(), slice_lo.tolist(), slice_hi.tolist()):
                        emit(rid, stopped_codes[lo:hi], level, True)
                    keep = ~stop_mask
                    keep_counts = np.diff(f_offsets)[keep]
                    f_idx = f_idx[expand_slices(f_offsets[:-1][keep], keep_counts)]
                    f_codes = f_codes[keep]
                    f_rids = f_rids[keep]
                    f_offsets = np.zeros(f_codes.shape[0] + 1, dtype=np.int64)
                    np.cumsum(keep_counts, out=f_offsets[1:])

            if not f_codes.size:
                if not entry:
                    break
                level = min(entry)
                continue

            # Expand every frontier cell of the suite: children in
            # parent-major, child-ascending order (the oracle heap's pop
            # order), each inheriting its parent's surviving candidate list.
            n = f_codes.shape[0]
            child_codes = children_codes(f_codes)
            child_rids = np.repeat(f_rids, 4)
            parent_counts = np.diff(f_offsets)
            child_counts = np.repeat(parent_counts, 4)
            child_idx = f_idx[expand_slices(np.repeat(f_offsets[:-1], 4), child_counts)]
            child_offsets = np.zeros(4 * n + 1, dtype=np.int64)
            np.cumsum(child_counts, out=child_offsets[1:])
            ckind, coffsets, cidx = _classify_cells(
                slabs, frame, seg_boxes, child_codes, level + 1,
                child_offsets, child_idx, child_rids,
            )

            # Replay the oracle's sequential budget accounting per region
            # over its contiguous parent slice of the region-major frontier
            # (prefix sums over per-parent cell deltas + first-failure
            # cutoff; see _replay_budget).
            uniq_rids, slice_starts = np.unique(f_rids, return_index=True)
            slice_stops = np.append(slice_starts[1:], n)
            split_parent = np.ones(n, dtype=bool)
            budget_stopped = np.zeros(num, dtype=bool)
            if max_cells is not None:
                kind_grid = ckind.reshape(n, 4)
                deltas = (
                    (kind_grid == 2).sum(axis=1) + (kind_grid == 1).sum(axis=1) - 1
                ).astype(np.int64)
                split_upto, new_totals = _replay_budget(
                    deltas, slice_starts, slice_stops, totals[uniq_rids], max_cells
                )
                totals[uniq_rids] = new_totals
                budget_stopped[uniq_rids] = split_upto < slice_stops
                split_parent = (
                    np.arange(n, dtype=np.int64)
                    < np.repeat(split_upto, slice_stops - slice_starts)
                )

            split_children = np.repeat(split_parent, 4)
            interior_mask = split_children & (ckind == 2)
            frontier_mask = split_children & (ckind == 1)
            # Budget exhausted mid-level: the unsplit remainder of a region's
            # frontier and its already-split boundary children all become
            # leaf cells, exactly like draining the oracle's heap.
            parent_leaf = kept_leaves(
                budget_stopped[f_rids] & ~split_parent, f_codes, f_rids, level
            )
            child_leaf = kept_leaves(
                budget_stopped[child_rids] & frontier_mask, child_codes, child_rids, level + 1
            )
            for rid, lo, hi in zip(
                uniq_rids.tolist(), slice_starts.tolist(), slice_stops.tolist()
            ):
                csl = slice(4 * lo, 4 * hi)
                emit(rid, child_codes[csl][interior_mask[csl]], level + 1, False)
                if budget_stopped[rid]:
                    emit(rid, f_codes[lo:hi][parent_leaf[lo:hi]], level, True)
                    emit(rid, child_codes[csl][child_leaf[csl]], level + 1, True)

            # Next frontier: boundary children of split parents, minus the
            # regions that just exhausted their budget (their children were
            # emitted as leaves above).
            next_mask = frontier_mask & ~budget_stopped[child_rids]
            next_counts = np.diff(coffsets)[next_mask]
            f_idx = cidx[expand_slices(coffsets[:-1][next_mask], next_counts)]
            f_codes = child_codes[next_mask]
            f_rids = child_rids[next_mask]
            f_offsets = np.zeros(f_codes.shape[0] + 1, dtype=np.int64)
            np.cumsum(next_counts, out=f_offsets[1:])
            level += 1

        results: list[HierarchicalRasterApproximation] = []
        for rid, region in enumerate(regions):
            effective_max = max_level
            if max_cells is not None:
                effective_max = max((lvl for _, lvl, _ in chunks[rid]), default=0)
            results.append(
                cls._from_chunks(
                    region, frame, chunks[rid],
                    max_level=effective_max, conservative=conservative,
                )
            )
        return results

    # ------------------------------------------------------------------ #
    # approximation protocol
    # ------------------------------------------------------------------ #
    def covers_point(self, x: float, y: float) -> bool:
        # Out-of-frame points are never covered: point_to_cell clamps them
        # onto edge cells, which would alias them with cells of the stored
        # approximation and break the distance bound.  The region lies inside
        # the frame, so returning False keeps the approximation conservative.
        if not self.frame.contains_point(x, y):
            return False
        finest = self.frame.point_to_cell(x, y, self.max_level)
        lookup = self._lookup_set()
        # Check the cell and all ancestors down to the coarsest stored level.
        cell = finest
        while True:
            if (cell.level, cell.code) in lookup:
                return True
            if cell.level <= self._min_level or cell.level == 0:
                return False
            cell = cell.parent()

    def _lookup_set(self) -> set:
        """Hash set of ``(level, code)`` pairs for the scalar lookup (cached)."""
        if self._cell_lookup is None:
            self._cell_lookup = set(zip(self._levels.tolist(), self._codes.tolist()))
        return self._cell_lookup

    def _codes_by_level(self) -> list[tuple[int, np.ndarray]]:
        """Stored cell codes grouped by level as sorted arrays (cached).

        This is the batch-probe representation of one approximation: the same
        sorted-key layout :class:`~repro.index.flat_act.FlatACT` uses for a
        whole polygon suite, built lazily so construction stays cheap.
        """
        if self._level_codes is None:
            self._level_codes = [
                (int(level), np.sort(self._codes[self._levels == level]))
                for level in np.unique(self._levels)
            ]
        return self._level_codes

    def covers_points(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        xs, ys = as_point_arrays(xs, ys)
        result = np.zeros(xs.size, dtype=bool)
        if xs.size == 0:
            return result
        # Same out-of-frame guard as covers_point: clamped codes must not
        # count as covered.
        valid = self.frame.contains_points(xs, ys)
        if not valid.any():
            return result
        codes = self.frame.points_to_codes(xs[valid], ys[valid], self.max_level)
        hit = np.zeros(codes.shape[0], dtype=bool)
        # Membership of the shifted codes per stored level, via binary search
        # over the cached sorted code arrays.
        for level, sorted_codes in self._codes_by_level():
            shifted = codes >> np.uint64(2 * (self.max_level - level))
            hit |= isin_sorted(sorted_codes, shifted)
        result[valid] = hit
        return result

    def bounds(self) -> BoundingBox:
        return self.region.bounds()

    # ------------------------------------------------------------------ #
    # introspection and derived representations
    # ------------------------------------------------------------------ #
    @property
    def cells(self) -> list[HRCell]:
        """The cells as :class:`HRCell` objects (materialised lazily)."""
        if self._cells is None:
            self._cells = [
                HRCell(CellId(code, level), flag)
                for code, level, flag in zip(
                    self._codes.tolist(), self._levels.tolist(), self._boundary.tolist()
                )
            ]
        return self._cells

    def cell_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cells as parallel ``(codes, levels, boundary)`` arrays.

        This is the bulk-loading interface: :meth:`FlatACT.from_cells` and the
        batch trie loader consume these arrays directly, so an approximation
        flows into the index without ever materialising per-cell Python
        objects.
        """
        return self._codes, self._levels, self._boundary

    @property
    def num_cells(self) -> int:
        return int(self._codes.shape[0])

    @property
    def num_boundary_cells(self) -> int:
        return int(self._boundary.sum())

    @property
    def num_interior_cells(self) -> int:
        return self.num_cells - self.num_boundary_cells

    def cell_ids(self) -> list[CellId]:
        """The cells of the approximation (mixed levels, Morton order not guaranteed)."""
        return [c.cell for c in self.cells]

    def query_ranges(self, level: int) -> list[tuple[int, int]]:
        """Sorted, disjoint Morton-code ranges ``[lo, hi)`` at ``level``.

        Point data linearized at ``level`` can be matched against the
        approximation by running one range lookup per entry — this is the
        query-cell decomposition used by the point-indexing experiments (§3).
        """
        if self._codes.size == 0:
            return []
        if level < int(self._levels.max()):
            raise CurveError("range level must be at least the cell level")
        shift = (2 * (level - self._levels)).astype(np.uint64)
        lo = self._codes << shift
        hi = (self._codes + np.uint64(1)) << shift
        order = np.lexsort((hi, lo))
        lo = lo[order]
        hi = hi[order]
        # Merge adjacent ranges to reduce the number of index probes.
        cummax = np.maximum.accumulate(hi)
        starts = np.ones(lo.shape[0], dtype=bool)
        starts[1:] = lo[1:] > cummax[:-1]
        start_pos = np.flatnonzero(starts)
        end_pos = np.append(start_pos[1:], lo.shape[0])
        return [
            (int(lo[s]), int(cummax[e - 1])) for s, e in zip(start_pos, end_pos)
        ]

    def boundary_sample(self) -> np.ndarray:
        """Corner points of the boundary cells (for empirical Hausdorff checks)."""
        corner_chunks: list[np.ndarray] = []
        for level in np.unique(self._levels[self._boundary]):
            codes = self._codes[self._boundary & (self._levels == level)]
            x0, y0, x1, y1 = _cell_boxes(self.frame, codes, int(level))
            corners = np.empty((codes.shape[0], 4, 2), dtype=np.float64)
            corners[:, 0, 0] = x0
            corners[:, 0, 1] = y0
            corners[:, 1, 0] = x1
            corners[:, 1, 1] = y0
            corners[:, 2, 0] = x1
            corners[:, 2, 1] = y1
            corners[:, 3, 0] = x0
            corners[:, 3, 1] = y1
            corner_chunks.append(corners.reshape(-1, 2))
        if not corner_chunks:
            return np.asarray([], dtype=np.float64)
        return np.concatenate(corner_chunks)

    def covered_area(self) -> float:
        """Total area of the approximation's cells."""
        total = 0.0
        for level in np.unique(self._levels):
            codes = self._codes[self._levels == level]
            x0, y0, x1, y1 = _cell_boxes(self.frame, codes, int(level))
            total += float(((x1 - x0) * (y1 - y0)).sum())
        return total

    def memory_bytes(self) -> int:
        # One 64-bit linearized ID per cell, as in the paper's accounting (§5.1).
        return self.num_cells * 8

    @property
    def name(self) -> str:
        return "HierarchicalRaster"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"HierarchicalRasterApproximation(cells={self.num_cells}, "
            f"boundary={self.num_boundary_cells}, max_level={self.max_level})"
        )
