"""The all-edges crossing-number loop that ``repro.geometry.slab`` replaced.

One Python iteration per edge, every point against every edge.  It defines
the verdicts the slab kernel must reproduce bit for bit, so it is kept
verbatim (only the polygon-level wrapper is new).
"""

from __future__ import annotations

import numpy as np

from repro.geometry import MultiPolygon, Polygon

__all__ = ["ring_contains_loop", "points_in_polygon_loop", "points_in_region_loop"]


def ring_contains_loop(
    coords: np.ndarray, xs: np.ndarray, ys: np.ndarray, boundary_inside: bool = True
) -> np.ndarray:
    """Vectorised crossing-number test of many points against one ring."""
    n = coords.shape[0]
    x1 = coords[:, 0]
    y1 = coords[:, 1]
    x2 = np.roll(x1, -1)
    y2 = np.roll(y1, -1)

    inside = np.zeros(xs.shape[0], dtype=bool)
    on_boundary = np.zeros(xs.shape[0], dtype=bool)
    for i in range(n):
        xi, yi, xj, yj = x1[i], y1[i], x2[i], y2[i]
        # Crossing test.
        cond = (yi > ys) != (yj > ys)
        if cond.any():
            x_cross = (xj - xi) * (ys[cond] - yi) / (yj - yi) + xi
            hit = xs[cond] < x_cross
            idx = np.flatnonzero(cond)[hit]
            inside[idx] = ~inside[idx]
        # Boundary test.
        cross = (xj - xi) * (ys - yi) - (yj - yi) * (xs - xi)
        near = np.abs(cross) <= 1e-9 * max(1.0, abs(xj - xi) + abs(yj - yi))
        if near.any():
            within = (
                (xs >= min(xi, xj) - 1e-9)
                & (xs <= max(xi, xj) + 1e-9)
                & (ys >= min(yi, yj) - 1e-9)
                & (ys <= max(yi, yj) + 1e-9)
            )
            on_boundary |= near & within
    if boundary_inside:
        return inside | on_boundary
    return inside & ~on_boundary


def points_in_polygon_loop(xs: np.ndarray, ys: np.ndarray, polygon: Polygon) -> np.ndarray:
    """``points_in_polygon`` as it ran on the loop: bbox prefilter, exterior, holes."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    result = np.zeros(xs.shape[0], dtype=bool)
    candidate = polygon.bounds().contains_points(xs, ys)
    if not candidate.any():
        return result
    cx = xs[candidate]
    cy = ys[candidate]
    inside = ring_contains_loop(polygon.exterior.coords, cx, cy)
    for hole in polygon.holes:
        inside &= ~ring_contains_loop(hole.coords, cx, cy, boundary_inside=False)
    result[np.flatnonzero(candidate)] = inside
    return result


def points_in_region_loop(xs: np.ndarray, ys: np.ndarray, region: Polygon | MultiPolygon) -> np.ndarray:
    """``points_in_region`` on the loop: the OR over a multipolygon's parts."""
    parts = region.polygons if isinstance(region, MultiPolygon) else (region,)
    mask = np.zeros(np.asarray(xs).shape[0], dtype=bool)
    for part in parts:
        mask |= points_in_polygon_loop(xs, ys, part)
    return mask
