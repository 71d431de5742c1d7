"""Index interfaces and instrumentation.

Two index families are defined, mirroring §3 of the paper:

* **Code indexes** (:class:`CodeIndex`) work on 1D keys obtained by
  linearizing points with a space-filling curve.  A query is a half-open key
  range ``[lo, hi)`` produced from a query cell of a raster approximation.
  Binary search over a sorted array, the B+-tree and the RadixSpline learned
  index belong to this family.
* **Spatial point indexes** (:class:`SpatialPointIndex`) work directly on 2D
  coordinates and answer axis-aligned box queries.  The R*-tree, STR-packed
  R-tree, Quadtree and Kd-tree baselines belong to this family; in the
  paper's experiments they filter with the query polygon's MBR.

Both families expose counting queries because the evaluation queries of the
paper are aggregations (COUNT of qualifying points).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.geometry.bbox import BoundingBox

__all__ = ["LookupStats", "CodeIndex", "SpatialPointIndex"]


@dataclass(slots=True)
class LookupStats:
    """Counters accumulated across lookups; used in benchmark reports."""

    lookups: int = 0
    comparisons: int = 0
    nodes_visited: int = 0

    def merge(self, other: "LookupStats") -> None:
        self.lookups += other.lookups
        self.comparisons += other.comparisons
        self.nodes_visited += other.nodes_visited

    def reset(self) -> None:
        self.lookups = 0
        self.comparisons = 0
        self.nodes_visited = 0


class CodeIndex(abc.ABC):
    """Index over sorted 1D cell codes (linearized points)."""

    def __init__(self) -> None:
        self.stats = LookupStats()

    @abc.abstractmethod
    def lower_bound(self, key: int) -> int:
        """Position of the first code ``>= key``."""

    @abc.abstractmethod
    def upper_bound(self, key: int) -> int:
        """Position of the first code ``> key``."""

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Number of indexed codes."""

    def count_range(self, lo: int, hi: int) -> int:
        """Number of codes in the half-open range ``[lo, hi)``.

        This is the core operation of the point-indexing experiment (§3): one
        lower-bound and one upper-bound lookup per query cell.
        """
        self.stats.lookups += 2
        return self.lower_bound(hi) - self.lower_bound(lo)

    def count_ranges(self, ranges: list[tuple[int, int]]) -> int:
        """Total count over a list of disjoint ranges (one query polygon)."""
        return sum(self.count_range(lo, hi) for lo, hi in ranges)

    def sorted_codes(self) -> "np.ndarray | None":
        """The sorted key array backing this index, when it materialises one.

        Every code index in this library is built over a sorted ``uint64``
        array; indexes expose it here so the batch range-count path can run
        one fused ``searchsorted`` pair regardless of which lookup structure
        (binary search, B+-tree, spline) sits on top.  Indexes without a
        materialised key array return ``None`` and fall back to the
        instrumented scalar loop.
        """
        return None

    def count_ranges_batch(self, ranges: np.ndarray) -> int:
        """Total count over an ``(m, 2)`` array of ``[lo, hi)`` ranges.

        Entry point of the batch probe kernels: one ``np.searchsorted``
        pair over all range endpoints at once when the index exposes its
        sorted key array (:meth:`sorted_codes`), instead of two instrumented
        scalar lookups per range.  The range counts are exact positional
        differences, so the batch path returns the same integer as the
        scalar :meth:`count_ranges` loop; like the other bulk paths it is
        uninstrumented.  Indexes without a key array keep the canonical
        scalar fallback.
        """
        ranges = np.asarray(ranges, dtype=np.uint64).reshape(-1, 2)
        codes = self.sorted_codes()
        if codes is None:
            return self.count_ranges([(int(lo), int(hi)) for lo, hi in ranges])
        if ranges.shape[0] == 0:
            return 0
        los = np.searchsorted(codes, ranges[:, 0], side="left")
        his = np.searchsorted(codes, ranges[:, 1], side="left")
        return int((his - los).sum())

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Approximate size of the index structure (excluding the data array)."""


class SpatialPointIndex(abc.ABC):
    """Index over 2D points supporting axis-aligned box queries."""

    def __init__(self) -> None:
        self.stats = LookupStats()

    @abc.abstractmethod
    def count_in_box(self, box: BoundingBox) -> int:
        """Number of indexed points inside ``box`` (borders inclusive)."""

    @abc.abstractmethod
    def query_box(self, box: BoundingBox) -> np.ndarray:
        """Indices of the points inside ``box``."""

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Number of indexed points."""

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Approximate size of the index structure."""
