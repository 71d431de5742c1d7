"""The construction path: suite-wide frontier sweeps and bulk index loads.

Every approximate-join setup boils down to the same two steps — "approximate
each polygon with a distance-bounded hierarchical raster" and "load the
resulting cells into the ACT index".  :class:`HRBuilder` runs both for a
whole polygon suite at once: the approximations come from one region-tagged
frontier sweep per refinement level
(:meth:`HierarchicalRasterApproximation._build_frontier_suite`), so the
per-level numpy overhead is paid once per level for the whole suite, and the
index is bulk-loaded by :meth:`FlatACT.from_cells` straight from the
approximations' ``(polygon_id, code, level)`` arrays.  Single-region builds
are the same sweep over a one-region suite.

The per-cell recursive refinement and per-insert trie load this path
replaced are kept as the test oracle (``tests/oracles/hr_recursive.py``);
the sweep emits their identical cell sets and bit-identical FlatACT
postings.
"""

from __future__ import annotations

from repro.approx.distance_bound import cell_side_for_bound
from repro.approx.hierarchical_raster import HierarchicalRasterApproximation
from repro.curves.morton import MAX_LEVEL
from repro.errors import ApproximationError
from repro.geometry.polygon import MultiPolygon, Polygon
from repro.grid.uniform_grid import GridFrame

__all__ = ["HRBuilder", "get_build_engine"]

Region = Polygon | MultiPolygon


class HRBuilder:
    """Hierarchical-raster construction and ACT index loading for a suite."""

    def build_hr(
        self,
        region: Region,
        frame: GridFrame,
        *,
        max_level: int = MAX_LEVEL,
        max_cells: int | None = None,
        conservative: bool = True,
    ) -> HierarchicalRasterApproximation:
        """Budget-refined HR approximation of one region."""
        return self.build_hr_batch(
            [region], frame, max_level=max_level, max_cells=max_cells, conservative=conservative
        )[0]

    def build_hr_batch(
        self,
        regions: list[Region],
        frame: GridFrame,
        *,
        max_level: int = MAX_LEVEL,
        max_cells: int | None = None,
        conservative: bool = True,
    ) -> list[HierarchicalRasterApproximation]:
        """Budget-refined HR approximations of a whole polygon suite."""
        return HierarchicalRasterApproximation._build_frontier_suite(
            regions, frame, max_level=max_level, max_cells=max_cells, conservative=conservative
        )

    def build_bound(
        self,
        region: Region,
        frame: GridFrame,
        epsilon: float,
        conservative: bool = True,
    ) -> HierarchicalRasterApproximation:
        """Distance-bounded HR approximation of one region."""
        return self.build_bound_batch([region], frame, epsilon, conservative=conservative)[0]

    def build_bound_batch(
        self,
        regions: list[Region],
        frame: GridFrame,
        epsilon: float,
        conservative: bool = True,
    ) -> list[HierarchicalRasterApproximation]:
        """Distance-bounded approximations of a whole polygon suite.

        A bound build is a budget-less refinement down to the level whose
        cell diagonal honours ``epsilon``.
        """
        max_level = frame.level_for_cell_side(cell_side_for_bound(epsilon))
        return self.build_hr_batch(
            regions, frame, max_level=max_level, max_cells=None, conservative=conservative
        )

    def build_cell_arrays(
        self,
        regions: list[Region],
        frame: GridFrame,
        epsilon: float,
        conservative: bool = True,
    ) -> list[tuple]:
        """Per-polygon ``(codes, levels)`` cell arrays at the bound's level.

        The delta-build entrypoint for live polygon suites: when a suite
        mutation touches only a few polygons, the patcher asks for exactly
        those polygons' cells and splices them into the existing
        :class:`~repro.index.flat_act.FlatACT` — nothing else is rebuilt.
        The sweep builds every region as it would inside the whole suite, so
        a delta built here matches what a from-scratch suite build would
        have produced.
        """
        approxes = self.build_bound_batch(
            regions, frame, epsilon, conservative=conservative
        )
        return [approx.cell_arrays()[:2] for approx in approxes]

    def load_act(
        self,
        regions: list[Region],
        frame: GridFrame,
        epsilon: float,
        conservative: bool = True,
    ):
        """Probe-ready :class:`~repro.index.flat_act.FlatACT` over a suite."""
        from repro.index.flat_act import FlatACT

        return FlatACT.build(regions, frame, epsilon, conservative=conservative)


_BUILDER = HRBuilder()


def get_build_engine(engine: None = None) -> HRBuilder:
    """The construction path; ``None`` is the only accepted argument."""
    if engine is not None:
        raise ApproximationError(
            f"unknown build engine {engine!r}: there is one construction path, pass None"
        )
    return _BUILDER
