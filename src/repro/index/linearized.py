"""Points linearised once on a Morton curve: sorted codes, cells and a run pyramid.

§3 of the paper linearises the points on a space-filling curve once, so that
the point count of any cell is the difference of two offsets into the sorted
codes.  :class:`LinearizedPoints` is that linearisation, built by one sort:

* ``codes`` — the in-frame points' level-``level`` Morton codes, sorted (the
  key array of the code indexes behind ``raster_count``);
* ``cells`` — the distinct codes, and ``cum`` — where each cell's run of
  points starts in ``codes`` (the exclusive prefix sum of the per-cell point
  counts, closed by ``len(codes)``), so cells ``k .. m-1`` hold
  ``cum[m] - cum[k]`` points;
* ``point_cell`` — each input point's cell (``-1`` for a point outside the
  frame, NaN included: such a point matches nothing);
* the *run pyramid* — for every coarser level ``l``, the distinct level-``l``
  prefixes of ``cells`` and ``first``, the index of the first fine cell under
  each prefix (closed by ``len(cells)``).  A right shift keeps Morton order,
  so a coarser level is only the run boundaries of the finer one: no sort
  and no ``np.unique`` per level.

:meth:`runs` derives a level on first request from the nearest finer one it
holds and keeps it; :meth:`fill_pyramid` derives every level up front, after
which reads never write, so one instance can serve concurrent readers.  The
ACT probe (:meth:`repro.index.flat_act.FlatACT.lookup_linearized`) walks
this pyramid; a static dataset keeps one filled instance, every other probe
builds a transient one per call.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IndexError_

__all__ = ["LinearizedPoints"]


class LinearizedPoints:
    """Points mapped to sorted 1D cell codes at a fixed grid level, plus their runs."""

    __slots__ = ("frame", "level", "codes", "cells", "cum", "point_cell", "_runs")

    def __init__(self, frame, level: int, codes, cells, cum, point_cell) -> None:
        """Wrap the arrays of one sort; use :meth:`build`, :meth:`from_coords`
        or :meth:`from_codes`, which produce them."""
        self.frame = frame
        self.level = int(level)
        self.codes = codes
        self.cells = cells
        self.cum = cum
        self.point_cell = point_cell
        #: level -> (prefixes, first); the finest level is the cells themselves.
        self._runs = {self.level: (cells, np.arange(cells.shape[0] + 1, dtype=np.int64))}

    @classmethod
    def build(cls, points, frame, level: int) -> "LinearizedPoints":
        """Linearize a :class:`~repro.geometry.point.PointSet` on ``frame`` at ``level``.

        Points outside the frame are dropped from ``codes`` (and get cell
        ``-1``) rather than linearized: ``points_to_codes`` clamps them onto
        edge cells, and a clamped code that lands inside a query polygon's
        key range would be counted by ``raster_count`` — or matched by the
        ACT probe — as a false positive far beyond the distance bound.
        Dropping them is exact: an out-of-frame point cannot lie in any
        region the frame covers.
        """
        return cls.from_coords(frame, level, points.xs, points.ys)

    @classmethod
    def from_coords(cls, frame, level: int, xs, ys) -> "LinearizedPoints":
        """:meth:`build` from coordinate arrays."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.shape != ys.shape:
            raise IndexError_("xs and ys must have the same shape")
        xs, ys = xs.reshape(-1), ys.reshape(-1)
        in_frame = frame.contains_points(xs, ys)
        if in_frame.all():
            return cls._sorted(frame, level, frame.points_to_codes(xs, ys, level), None)
        rows = np.flatnonzero(in_frame)
        codes = frame.points_to_codes(xs[rows], ys[rows], level)
        return cls._sorted(frame, level, codes, rows, xs.shape[0])

    @classmethod
    def from_codes(cls, codes, level: int) -> "LinearizedPoints":
        """Linearization of level-``level`` codes, in any order, repeats allowed.

        It has no frame: the codes are already cells, every one of them valid.
        """
        codes = np.asarray(codes, dtype=np.uint64).reshape(-1)
        return cls._sorted(None, level, codes, None)

    @classmethod
    def _sorted(cls, frame, level, codes, rows, num_points=None) -> "LinearizedPoints":
        """One argsort: the sorted codes, their cells and runs, and each point's cell.

        ``rows`` are the input positions of ``codes`` (``None``: all of
        them); the other ``num_points - len(rows)`` points get cell ``-1``.
        """
        order = np.argsort(codes)
        codes = codes[order]
        n = codes.shape[0]
        starts = np.ones(n, dtype=bool)
        starts[1:] = codes[1:] != codes[:-1]
        rank = np.cumsum(starts) - 1
        if rows is None:
            point_cell = np.empty(codes.shape[0], dtype=np.int64)
            point_cell[order] = rank
        else:
            point_cell = np.full(num_points, -1, dtype=np.int64)
            point_cell[rows[order]] = rank
        cum = np.append(np.flatnonzero(starts), n).astype(np.int64)
        return cls(frame, level, codes, codes[starts], cum, point_cell)

    @property
    def size(self) -> int:
        """Number of in-frame (linearized) points."""
        return int(self.codes.shape[0])

    @property
    def num_points(self) -> int:
        """Number of input points, out-of-frame ones included."""
        return int(self.point_cell.shape[0])

    @property
    def num_cells(self) -> int:
        return int(self.cells.shape[0])

    def runs(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """``(prefixes, first)`` of ``level``: its distinct cells and their fine-cell runs.

        ``prefixes`` are the sorted distinct level-``level`` prefixes of
        :attr:`cells`; fine cells ``first[o]:first[o + 1]`` lie under prefix
        ``o``.  A missing level is derived from the nearest finer level held
        (one shift, one neighbour comparison) and kept.
        """
        got = self._runs.get(level)
        if got is not None:
            return got
        if not 0 <= level <= self.level:
            raise IndexError_(f"level {level} outside the linearization's [0, {self.level}]")
        finer = min(held for held in self._runs if held > level)
        prefixes, first = self._runs[finer]
        shifted = prefixes >> np.uint64(2 * (finer - level))
        boundary = np.ones(shifted.shape[0], dtype=bool)
        boundary[1:] = shifted[1:] != shifted[:-1]
        got = (shifted[boundary], np.append(first[:-1][boundary], first[-1]))
        self._runs[level] = got
        return got

    def fill_pyramid(self) -> "LinearizedPoints":
        """Derive every coarser level now, each from the next finer; returns ``self``."""
        for level in range(self.level - 1, -1, -1):
            self.runs(level)
        return self
