"""Immutable sorted runs — the on-"disk" level of the updatable store.

A :class:`Run` is a frozen batch of points in **canonical run layout**:

* the row arrays (``ids``, ``xs``, ``ys`` and the attribute columns) in
  ascending insertion-id order, and
* a **code view** over the in-frame rows: the cell codes at the store's
  linearization level (produced with
  :meth:`CellId.encode_points <repro.curves.cellid.CellId.encode_points>`),
  sorted ascending with ties broken by insertion id, plus the ``code_rows``
  permutation mapping each code position back to its row.

The sorted ``codes`` array backs a
:class:`~repro.index.sorted_array.SortedCodeArray`, so every code-index query
path (range counts, raster counts) works on a run unchanged; the row arrays
serve the probe paths that work on raw coordinates (joins, range estimation)
and never need to be re-ordered — the id order is exactly the global merge
order of the store's fan-out aggregation.  Out-of-frame rows stay in the row
arrays but are excluded from the code view: ``points_to_codes`` would clamp
them onto edge cells and turn them into false positives (see the
frame-validity notes in the README).

Keeping the float columns in insertion order is what makes the flush cheap —
a flush encodes and argsorts **only the code array**; no per-column gather —
while the layout stays a pure function of the live point set.  The canonical
layout is produced by exactly one constructor, :meth:`Run.build`, which both
the memtable flush and compaction use, so consolidating k runs yields
**bit-identical arrays** to building a single run from the union of their
live points — the invariant the store's rebuild-parity suite locks down.
"""

from __future__ import annotations

import numpy as np

from repro.arrays import isin_sorted
from repro.errors import StoreError
from repro.grid.uniform_grid import GridFrame
from repro.index.sorted_array import SortedCodeArray

__all__ = ["Run", "encode_points_at"]


def encode_points_at(
    frame: GridFrame, level: int, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """Cell codes of many points at ``level`` — the store's flush encoding.

    Delegates to :meth:`GridFrame.points_to_codes`, whose batch Morton pass
    is the same kernel as :meth:`CellId.encode_points
    <repro.curves.cellid.CellId.encode_points>`, so run code arrays can
    never drift from the code-index linearization.  Callers must mask
    out-of-frame points before trusting the codes — clamping aliases them
    with edge cells.
    """
    return frame.points_to_codes(xs, ys, level)


class Run:
    """One immutable sorted segment of the store (see the module docstring)."""

    __slots__ = (
        "frame",
        "level",
        "ids",
        "xs",
        "ys",
        "values",
        "codes",
        "code_rows",
        "_index",
    )

    def __init__(
        self,
        frame: GridFrame,
        level: int,
        ids: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        values: dict[str, np.ndarray],
        codes: np.ndarray,
        code_rows: np.ndarray,
    ) -> None:
        self.frame = frame
        self.level = level
        self.ids = ids
        self.xs = xs
        self.ys = ys
        self.values = values
        self.codes = codes
        self.code_rows = code_rows
        self._index: SortedCodeArray | None = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        frame: GridFrame,
        level: int,
        ids: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        values: dict[str, np.ndarray],
    ) -> "Run":
        """Arrange a point batch into canonical run layout and freeze it.

        This is the single definition of the layout: the memtable flush
        drains its live buffer through here (already in id order — the hot
        path pays one code argsort and **no** column gathers), and compaction
        feeds the concatenated live entries of its input runs through the
        same path, which is what makes consolidation bit-identical to a
        from-scratch build.
        """
        ids = np.asarray(ids, dtype=np.int64)
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if not (ids.shape == xs.shape == ys.shape):
            raise StoreError("ids, xs and ys must have equal shapes")
        values = {name: np.asarray(col, dtype=np.float64) for name, col in values.items()}

        # Restore ascending-id row order when the input is not already in it
        # (the flush path always is; compaction concatenates runs whose id
        # ranges may interleave).  Ids are unique, so the order is fully
        # determined and independent of the input permutation.
        if ids.shape[0] > 1 and not (np.diff(ids) > 0).all():
            order = np.argsort(ids, kind="stable")
            ids = ids[order]
            xs = xs[order]
            ys = ys[order]
            values = {name: col[order] for name, col in values.items()}

        in_frame = frame.contains_points(xs, ys)
        in_rows = np.flatnonzero(in_frame)
        row_codes = encode_points_at(frame, level, xs[in_rows], ys[in_rows])
        # Stable argsort over id-ordered rows: equal codes keep ascending id.
        code_order = np.argsort(row_codes, kind="stable")
        return cls(
            frame,
            level,
            ids,
            xs,
            ys,
            values,
            row_codes[code_order],
            in_rows[code_order],
        )

    @classmethod
    def merge(cls, runs: "list[Run]", live_masks: "list[np.ndarray]") -> "Run":
        """K-way merge of several runs' live entries into one consolidated run.

        Concatenates the surviving (non-tombstoned) rows and re-establishes
        the canonical layout through :meth:`build`, so the consolidated
        arrays are bit for bit what a from-scratch build over the same live
        points produces.
        """
        if not runs:
            raise StoreError("cannot merge zero runs")
        frame = runs[0].frame
        level = runs[0].level
        names = list(runs[0].values)
        ids = np.concatenate([run.ids[mask] for run, mask in zip(runs, live_masks)])
        xs = np.concatenate([run.xs[mask] for run, mask in zip(runs, live_masks)])
        ys = np.concatenate([run.ys[mask] for run, mask in zip(runs, live_masks)])
        values = {
            name: np.concatenate(
                [run.values[name][mask] for run, mask in zip(runs, live_masks)]
            )
            for name in names
        }
        return cls.build(frame, level, ids, xs, ys, values)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def num_in_frame(self) -> int:
        """Rows with a valid cell code (the length of the code view)."""
        return int(self.codes.shape[0])

    @property
    def index(self) -> SortedCodeArray:
        """Code index over the code view (built lazily, then cached)."""
        if self._index is None:
            self._index = SortedCodeArray(self.codes, assume_sorted=True)
        return self._index

    def live_mask(self, deleted_ids: np.ndarray) -> np.ndarray:
        """Boolean row mask of the entries *not* covered by a tombstone.

        Rows are id-sorted, so the membership test is one ``searchsorted``
        of the run's ids in the sorted tombstone array.
        """
        if deleted_ids.shape[0] == 0:
            return np.ones(self.ids.shape[0], dtype=bool)
        return ~isin_sorted(deleted_ids, self.ids)

    def dead_code_positions(self, live_mask: np.ndarray) -> np.ndarray:
        """Sorted code-view positions of the rows ``live_mask`` marks dead.

        This is the exact correction the snapshot count path subtracts: the
        row-level tombstone-survivor mask (from :meth:`live_mask`, possibly
        cached by the caller) pulled through the ``code_rows`` permutation,
        as positions into the sorted code array.
        """
        return np.flatnonzero(~live_mask[self.code_rows])

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    # ------------------------------------------------------------------ #
    # persistence (same .npz conventions as FlatACT.save)
    # ------------------------------------------------------------------ #
    def save(self, path) -> None:
        """Serialise the run to an ``.npz`` file (arrays stored verbatim)."""
        arrays: dict[str, np.ndarray] = {
            "frame_params": np.array(
                [self.frame.origin_x, self.frame.origin_y, self.frame.size],
                dtype=np.float64,
            ),
            "meta": np.array([self.level], dtype=np.int64),
            "ids": self.ids,
            "xs": self.xs,
            "ys": self.ys,
            "codes": self.codes,
            "code_rows": self.code_rows,
        }
        for name, col in self.values.items():
            arrays[f"attr_{name}"] = col
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path) -> "Run":
        """Restore a run saved with :meth:`save` (bit-identical arrays)."""
        with np.load(path) as data:
            ox, oy, size = data["frame_params"]
            (level,) = (int(v) for v in data["meta"])
            values = {
                key[len("attr_") :]: data[key] for key in data.files if key.startswith("attr_")
            }
            return cls(
                GridFrame.from_raw(float(ox), float(oy), float(size)),
                level,
                data["ids"],
                data["xs"],
                data["ys"],
                values,
                data["codes"],
                data["code_rows"],
            )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def memory_bytes(self) -> int:
        """Footprint of the run's arrays (code index included once built)."""
        total = int(
            self.ids.nbytes
            + self.xs.nbytes
            + self.ys.nbytes
            + self.codes.nbytes
            + self.code_rows.nbytes
        )
        total += sum(int(col.nbytes) for col in self.values.values())
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Run(n={len(self)}, in_frame={self.num_in_frame}, level={self.level})"
