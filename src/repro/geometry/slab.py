"""y-slab edge tables: the crossing-number kernel behind every exact PIP test.

A crossing-number test only needs the edges whose y-range can straddle the
query point, yet the textbook loop meets every edge.  A :class:`SlabTable`
cuts each ring's y-extent into about as many uniform slabs as the ring has
edges and files every edge under the slabs its *padded* y-interval touches
(CSR ``slab -> edge ids``).  A point then looks up one slab and meets the
handful of edges filed there.

Verdicts are bit-identical to the all-edges loop (kept as the oracle in
``tests/oracles/``): every (point, edge) pair that is evaluated runs the same
float expressions, and a pair that is skipped could not have contributed.  An
edge can flip the parity only if ``min(y1, y2) <= y < max(y1, y2)`` and can
flag the point as on-boundary only if
``min(y1, y2) - 1e-9 <= y <= max(y1, y2) + 1e-9``; the edge is filed under
every slab from ``slab(min - 1e-9)`` to ``slab(max + 1e-9)``, points and edges
share the one monotone ``slab()`` function, so either condition puts the edge
into the point's slab.

One table can hold many rings (each with its own slab range), which is how the
raster builder tests the cell centres of a whole polygon suite in one call.
"""

from __future__ import annotations

import numpy as np

from repro.arrays import expand_slices

__all__ = ["SlabTable", "ring_segment_array"]

#: Most (point, edge) pairs one kernel pass materialises; a pass holds about a
#: dozen float64 temporaries of this length.
_PAIR_CHUNK = 1 << 16
#: The on-boundary tolerance of :func:`repro.geometry.predicates.point_in_polygon`.
_EPS = 1e-9


def ring_segment_array(coords: np.ndarray) -> np.ndarray:
    """Edges of a ring as ``(n, 4)`` rows ``(x1, y1, x2, y2)``, closing edge last."""
    return np.hstack([coords, np.roll(coords, -1, axis=0)])


class SlabTable:
    """Edges of one or more rings, bucketed by y-slab.

    Parameters
    ----------
    segments:
        ``(m, 4)`` edge array ``(x1, y1, x2, y2)``, the rings' edges
        back to back (see :func:`ring_segment_array`).
    ring_sizes:
        Edge count of each ring, in ``segments`` order.
    """

    __slots__ = (
        "_xi", "_yi", "_yj", "_dx", "_dy", "_tol", "_xlo", "_xhi", "_ylo", "_yhi",
        "_ring_y0", "_ring_scale", "_ring_last", "_ring_slab0",
        "_slab_offsets", "_slab_edges",
    )

    def __init__(self, segments: np.ndarray, ring_sizes) -> None:
        x1, y1, x2, y2 = (np.ascontiguousarray(segments[:, k]) for k in range(4))
        # Per-edge constants, each the exact float the per-edge loop computes.
        self._xi, self._yi, self._yj = x1, y1, y2
        self._dx = x2 - x1
        self._dy = y2 - y1
        self._tol = _EPS * np.maximum(1.0, np.abs(self._dx) + np.abs(self._dy))
        self._xlo = np.minimum(x1, x2) - _EPS
        self._xhi = np.maximum(x1, x2) + _EPS
        self._ylo = np.minimum(y1, y2) - _EPS
        self._yhi = np.maximum(y1, y2) + _EPS

        sizes = np.asarray(ring_sizes, dtype=np.int64)
        first_edge = np.cumsum(sizes) - sizes
        self._ring_y0 = np.minimum.reduceat(y1, first_edge)
        extent = np.maximum.reduceat(y1, first_edge) - self._ring_y0
        with np.errstate(divide="ignore", over="ignore"):
            scale = sizes / extent
        # A ring without y-extent (or too thin to scale) keeps all its edges
        # in a single slab.
        flat = ~np.isfinite(scale)
        scale[flat] = 0.0
        self._ring_scale = scale
        slabs = np.where(flat, 1, sizes)
        self._ring_last = (slabs - 1).astype(np.float64)
        self._ring_slab0 = np.cumsum(slabs) - slabs

        ring_of_edge = np.repeat(np.arange(sizes.shape[0]), sizes)
        low = self._slab_of(self._ylo, ring_of_edge)
        span = self._slab_of(self._yhi, ring_of_edge) - low + 1
        slab_of_pair = expand_slices(low, span)
        edge_of_pair = np.repeat(np.arange(segments.shape[0], dtype=np.int64), span)
        self._slab_edges = edge_of_pair[np.argsort(slab_of_pair, kind="stable")]
        self._slab_offsets = np.zeros(int(slabs.sum()) + 1, dtype=np.int64)
        np.cumsum(np.bincount(slab_of_pair, minlength=self._slab_offsets.shape[0] - 1),
                  out=self._slab_offsets[1:])

    def _slab_of(self, ys: np.ndarray, ring) -> np.ndarray:
        """Slab of each y within its ring (clamped).  Monotone in ``ys``, and the
        one function that files edges and looks up points."""
        t = np.floor((ys - self._ring_y0[ring]) * self._ring_scale[ring])
        return np.clip(t, 0.0, self._ring_last[ring]).astype(np.int64) + self._ring_slab0[ring]

    def crossings(
        self, xs: np.ndarray, ys: np.ndarray, ring: "np.ndarray | int" = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Crossing-number test of finite points, each against one ring.

        ``ring`` names each point's ring (an index array, or one index for all
        points).  Returns ``(odd, on_boundary)``: whether a ray from the point
        crosses the ring an odd number of times, and whether the point lies
        within ``1e-9`` of one of its edges.
        """
        n = xs.shape[0]
        odd = np.zeros(n, dtype=bool)
        on_boundary = np.zeros(n, dtype=bool)
        slab = self._slab_of(ys, ring)
        starts = self._slab_offsets[slab]
        counts = self._slab_offsets[slab + 1] - starts
        ends = np.cumsum(counts)
        lo = 0
        while lo < n:
            done = int(ends[lo - 1]) if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, done + _PAIR_CHUNK, side="right")))
            pt = np.repeat(np.arange(lo, hi), counts[lo:hi])
            edge = self._slab_edges[expand_slices(starts[lo:hi], counts[lo:hi])]
            px, py = xs[pt], ys[pt]
            xi, yi, dx, dy = self._xi[edge], self._yi[edge], self._dx[edge], self._dy[edge]
            rise = py - yi

            straddles = np.flatnonzero((yi > py) != (self._yj[edge] > py))
            x_cross = dx[straddles] * rise[straddles] / dy[straddles] + xi[straddles]
            crossed = pt[straddles[px[straddles] < x_cross]]
            odd[lo:hi] = np.bincount(crossed - lo, minlength=hi - lo) & 1

            cross = dx * rise - dy * (px - xi)
            near = np.flatnonzero(np.abs(cross) <= self._tol[edge])
            e, x, y = edge[near], px[near], py[near]
            within = (
                (x >= self._xlo[e]) & (x <= self._xhi[e])
                & (y >= self._ylo[e]) & (y <= self._yhi[e])
            )
            on_boundary[pt[near[within]]] = True
            lo = hi
        return odd, on_boundary
