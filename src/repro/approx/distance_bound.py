"""Distance-bound arithmetic.

Section 2.2 of the paper defines the error of an approximation as the
Hausdorff distance between the approximate and the exact geometry and shows
that raster approximations can honour any user-chosen bound ``epsilon`` by
making the *boundary* cells small enough:

    if the cell side is  epsilon / sqrt(2)  then the cell diagonal is
    epsilon, so no point of a boundary cell is farther than epsilon from the
    true boundary, hence  d_H(g, g') <= epsilon.

Interior cells do not contribute to the error and may be arbitrarily large,
which is what makes the *hierarchical* raster representation compact.

This module centralises the conversions between distance bounds, cell sides
and hierarchy levels so that every component (approximations, indexes, joins,
canvases) derives its resolution the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ApproximationError
from repro.grid.uniform_grid import GridFrame, UniformGrid
from repro.geometry.bbox import BoundingBox

__all__ = [
    "cell_side_for_bound",
    "bound_for_cell_side",
    "level_for_bound",
    "canvas_shape",
    "grid_for_bound",
    "DistanceBound",
]

_SQRT2 = math.sqrt(2.0)


def cell_side_for_bound(epsilon: float) -> float:
    """Largest admissible boundary-cell side for a Hausdorff bound ``epsilon``.

    Raises
    ------
    ApproximationError
        If ``epsilon`` is not positive.
    """
    if epsilon <= 0:
        raise ApproximationError(f"distance bound must be positive, got {epsilon}")
    return epsilon / _SQRT2


def bound_for_cell_side(cell_side: float) -> float:
    """Hausdorff bound guaranteed by boundary cells of the given side (the diagonal)."""
    if cell_side <= 0:
        raise ApproximationError(f"cell side must be positive, got {cell_side}")
    return cell_side * _SQRT2


def level_for_bound(frame: GridFrame, epsilon: float) -> int:
    """Finest hierarchy level needed so boundary cells honour ``epsilon``."""
    return frame.level_for_cell_side(cell_side_for_bound(epsilon))


def canvas_shape(extent: BoundingBox, epsilon: float) -> tuple[int, int]:
    """Pixel resolution ``(nx, ny)`` of the canvas over ``extent`` for ``epsilon``.

    The pixel side is :func:`cell_side_for_bound`; the counts round *up* so
    the canvas covers the extent.  The Bounded Raster Join sizes its canvas
    with this and the optimizer prices it with it, so both agree on the
    number of device tiles.
    """
    cell_side = cell_side_for_bound(epsilon)
    return (
        max(1, math.ceil(extent.width / cell_side)),
        max(1, math.ceil(extent.height / cell_side)),
    )


def grid_for_bound(extent: BoundingBox, epsilon: float) -> UniformGrid:
    """Uniform grid over ``extent`` whose cells honour ``epsilon``.

    Used by the uniform raster approximation; its resolution is the
    :func:`canvas_shape` the Bounded Raster Join draws on.
    """
    return UniformGrid(extent, *canvas_shape(extent, epsilon))


@dataclass(frozen=True, slots=True)
class DistanceBound:
    """A named, validated distance bound (in the units of the data frame).

    Wrapping the raw float makes it explicit at API boundaries which
    parameters are distance bounds, and lets the optimizer reason about the
    bound as a first-class quantity.
    """

    epsilon: float

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ApproximationError(f"distance bound must be positive, got {self.epsilon}")

    @property
    def cell_side(self) -> float:
        """Largest admissible boundary-cell side for this bound."""
        return cell_side_for_bound(self.epsilon)

    def level(self, frame: GridFrame) -> int:
        """Hierarchy level implied by this bound on ``frame``."""
        return level_for_bound(frame, self.epsilon)

    def grid(self, extent: BoundingBox) -> UniformGrid:
        """Uniform grid over ``extent`` implied by this bound."""
        return grid_for_bound(extent, self.epsilon)

    def __float__(self) -> float:
        return self.epsilon
