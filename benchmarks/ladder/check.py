"""The correctness gate of the ladder.

Everything here runs **outside** timed regions.  The gate counts operations
attempted and failed; a failed check marks one operation failed, and a run
with any failure (or any distance-bound violation) exits non-zero.

Checks:

* *bit identity* — an answer equals, byte for byte, the answer of the
  reference kernel (:func:`repro.query.act_approximate_join` called by hand,
  a solo join on a served response's pinned snapshot, the never-crashed twin
  of a recovered store).  Where :class:`ScratchIndexes` holds the suite and
  epsilon, the reference runs on an index built here from the polygons alone,
  so a wrong build inside the run cannot agree with itself;
* *distance bound* — every point an index classifies differently from exact
  point-in-polygon lies within ``epsilon`` of that polygon's boundary, the
  paper's one guarantee.  :func:`boundary_distances` is the vectorised twin
  of :func:`repro.query.accuracy.max_distance_to_boundary` (a per-point
  Python loop) and is held to it on a few points per index;
* *result ranges* — every ``dataset.estimate`` interval contains the exact
  count.
"""

from __future__ import annotations

import numpy as np

from repro.approx.build_engine import get_build_engine
from repro.approx.distance_bound import cell_side_for_bound
from repro.index.flat_act import FlatACT, concat_cell_arrays
from repro.query.accuracy import max_distance_to_boundary, median_relative_error

__all__ = ["Gate", "ScratchIndexes", "boundary_distances", "exact_membership"]

#: Misclassified points per polygon whose vectorised boundary distance is
#: also measured by the library's per-point routine.
ANCHOR_POINTS = 4
#: Slack on ``distance <= epsilon`` for floating-point round-off.
TOLERANCE = 1e-9


def _same_bits(a, b) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def exact_membership(points, regions) -> np.ndarray:
    """Sorted ``polygon * n + point`` keys of the exact point-in-polygon pairs."""
    n = len(points)
    keys = [
        polygon * n + np.flatnonzero(region.contains_points(points.xs, points.ys))
        for polygon, region in enumerate(regions)
    ]
    return np.concatenate(keys) if keys else np.empty(0, dtype=np.int64)


def boundary_distances(xs, ys, region) -> np.ndarray:
    """Distance from each point to the nearest boundary segment of ``region``."""
    ends = np.array([(seg.start.x, seg.start.y, seg.end.x, seg.end.y)
                     for seg in region.boundary_segments()], dtype=np.float64)
    ax, ay, bx, by = ends.T
    abx, aby = bx - ax, by - ay
    length_sq = abx * abx + aby * aby
    px = np.asarray(xs, dtype=np.float64)[:, None]
    py = np.asarray(ys, dtype=np.float64)[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        t = ((px - ax) * abx + (py - ay) * aby) / length_sq
    # A zero-length segment is its start point.
    t = np.clip(np.nan_to_num(t, nan=0.0, posinf=0.0, neginf=0.0), 0.0, 1.0)
    return np.sqrt(((px - (ax + t * abx)) ** 2 + (py - (ay + t * aby)) ** 2).min(axis=1))


class ScratchIndexes:
    """Indexes built here from polygons alone, never taken from the run.

    The same three steps as :meth:`FlatACT.build`, with the per-polygon
    approximations kept: a suite in which single polygons were replaced (a
    patched suite, an older version a served response saw) is assembled from
    the cached approximations of the untouched polygons plus fresh ones.
    No registry, no ``replace_polygon``.
    """

    def __init__(self, frame) -> None:
        self.frame = frame
        self._approx: dict = {}
        self._engine = get_build_engine(None)

    def get(self, regions, epsilon: float) -> FlatACT:
        # Keyed by object identity; the entry holds the polygon so the id stays its own.
        missing = [region for region in regions if (id(region), epsilon) not in self._approx]
        if missing:
            built = self._engine.build_bound_batch(missing, self.frame, epsilon)
            for region, approx in zip(missing, built):
                self._approx[id(region), epsilon] = (region, approx)
        max_level = self.frame.level_for_cell_side(cell_side_for_bound(epsilon))
        cells = concat_cell_arrays([self._approx[id(region), epsilon][1] for region in regions])
        return FlatACT.from_cells(self.frame, max_level, *cells, num_polygons=len(regions))


class Gate:
    """Operation and failure counters plus the checks that feed them."""

    def __init__(self, seed: int) -> None:
        self.attempted = 0
        self.failed = 0
        self.bound_violations = 0
        self.problems: list[str] = []
        self._rng = np.random.default_rng([seed, 0xC4EC])

    def attempt(self, n: int = 1) -> None:
        self.attempted += int(n)

    def fail(self, label: str, detail: str = "") -> None:
        self.failed += 1
        self.problems.append(f"{label}: {detail}" if detail else label)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.bound_violations == 0

    # ------------------------------------------------------------------ #
    # checks
    # ------------------------------------------------------------------ #
    def identical(self, label: str, got, want) -> bool:
        """``got`` and ``want`` carry bit-identical aggregates and counts."""
        ok = _same_bits(got.aggregates, want.aggregates) and _same_bits(got.counts, want.counts)
        if not ok:
            self.fail(label, "answer differs from the reference kernel")
        return ok

    def same_array(self, label: str, got, want) -> bool:
        ok = _same_bits(got, want)
        if not ok:
            self.fail(label, "array differs from the reference")
        return ok

    def distance_bound(self, label: str, index, points, regions, epsilon: float, exact_keys) -> float:
        """Check the paper's guarantee on one index; returns the COUNT error.

        Every (point, polygon) pair the index classifies differently from
        ``exact_keys`` (:func:`exact_membership` of the same points and
        regions) must lie within ``epsilon`` of the polygon's boundary; each
        that does not is one bound violation.  Returns the median relative
        error of the index's per-polygon counts against the exact counts.
        """
        n = len(points)
        offsets, polygon_ids = index.lookup_points(points.xs, points.ys)
        point_ids = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        approx_keys = polygon_ids.astype(np.int64) * n + point_ids
        wrong = np.setxor1d(approx_keys, exact_keys)
        limit = epsilon * (1.0 + TOLERANCE)
        violations = 0
        for polygon in np.unique(wrong // n):
            members = wrong[wrong // n == polygon] % n
            xs, ys, region = points.xs[members], points.ys[members], regions[int(polygon)]
            distances = boundary_distances(xs, ys, region)
            violations += int(np.count_nonzero(distances > limit))
            anchor = self._rng.choice(len(members), min(ANCHOR_POINTS, len(members)), replace=False)
            library = max_distance_to_boundary(xs[anchor], ys[anchor], region)
            if abs(library - distances[anchor].max()) > TOLERANCE * max(1.0, library):
                self.fail(label, "boundary_distances disagrees with max_distance_to_boundary")
        if violations:
            self.bound_violations += violations
            self.fail(label, f"{violations} point(s) misclassified beyond epsilon={epsilon}")
        num = len(regions)
        return median_relative_error(
            np.bincount(approx_keys // n, minlength=num), np.bincount(exact_keys // n, minlength=num)
        )

    def ranges_contain(self, label: str, ranges, exact_counts) -> None:
        misses = sum(
            0 if result.contains(float(count)) else 1 for result, count in zip(ranges, exact_counts)
        )
        if misses:
            self.fail(label, f"{misses} estimate interval(s) miss the exact count")
