"""Hierarchical cell identifiers.

Hierarchical raster approximations consist of cells drawn from different
levels of a quadtree over the data extent (Figure 1(c) in the paper).  To
index such cells in a radix tree (the Adaptive Cell Trie of §3) every cell
needs an identifier that

* encodes its position along a space-filling curve at its own level, and
* is *prefix-compatible*: the identifier of a child cell, shifted right by two
  bits, equals the identifier of its parent.

The :class:`CellId` scheme below provides this.  A cell at ``level`` ``l`` has
a Morton code ``m`` of ``2*l`` bits; its 64-bit identifier packs ``m`` together
with the level.  This mirrors how Google's S2 and the ACT paper identify
cells, without adopting their spherical geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CurveError
from repro.curves.hilbert import hilbert_encode_array
from repro.curves.morton import MAX_LEVEL, morton_decode, morton_encode, morton_encode_array

__all__ = [
    "CellId",
    "cell_token",
    "children_codes",
    "common_ancestor_level",
    "parent_codes",
]


@dataclass(frozen=True, slots=True, order=True)
class CellId:
    """A cell of the canonical quadtree over the unit grid hierarchy.

    Attributes
    ----------
    code:
        Morton code of the cell at its level (``2*level`` significant bits).
    level:
        Quadtree level; level 0 is the single root cell covering the whole
        extent, level ``l`` has ``4**l`` cells.
    """

    code: int
    level: int

    def __post_init__(self) -> None:
        if not 0 <= self.level <= MAX_LEVEL:
            raise CurveError(f"level {self.level} outside [0, {MAX_LEVEL}]")
        if not 0 <= self.code < (1 << (2 * self.level)) or (self.level == 0 and self.code != 0):
            if not (self.level == 0 and self.code == 0):
                raise CurveError(f"code {self.code} invalid for level {self.level}")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_xy(cls, ix: int, iy: int, level: int) -> "CellId":
        """Cell containing grid coordinates ``(ix, iy)`` at ``level``."""
        return cls(morton_encode(ix, iy, level), level)

    @classmethod
    def encode_points(
        cls, ix: np.ndarray, iy: np.ndarray, level: int, curve: str = "morton"
    ) -> np.ndarray:
        """Batch cell-code encoding of grid coordinate arrays at ``level``.

        Returns the ``np.uint64`` codes of the cells containing each
        ``(ix[k], iy[k])`` — the array equivalent of ``CellId.from_xy(...).code``
        per point (``curve="morton"``) or of :func:`repro.curves.hilbert.hilbert_encode`
        per point (``curve="hilbert"``).  This is the entry point of the batch
        probe kernels: every query strategy linearizes its probe points through
        one call instead of one :class:`CellId` object per point.
        """
        if curve == "morton":
            return morton_encode_array(ix, iy, level)
        if curve == "hilbert":
            return hilbert_encode_array(ix, iy, level)
        raise CurveError(f"unknown curve {curve!r} (expected 'morton' or 'hilbert')")

    # ------------------------------------------------------------------ #
    # hierarchy navigation
    # ------------------------------------------------------------------ #
    def parent(self) -> "CellId":
        """The enclosing cell one level up.

        Raises
        ------
        CurveError
            If called on the root cell.
        """
        if self.level == 0:
            raise CurveError("the root cell has no parent")
        return CellId(self.code >> 2, self.level - 1)

    def children(self) -> tuple["CellId", "CellId", "CellId", "CellId"]:
        """The four child cells one level down."""
        if self.level >= MAX_LEVEL:
            raise CurveError(f"cannot descend below level {MAX_LEVEL}")
        base = self.code << 2
        lvl = self.level + 1
        return (
            CellId(base, lvl),
            CellId(base + 1, lvl),
            CellId(base + 2, lvl),
            CellId(base + 3, lvl),
        )

    def ancestor_at(self, level: int) -> "CellId":
        """The ancestor of this cell at a coarser ``level``."""
        if level > self.level or level < 0:
            raise CurveError(f"ancestor level {level} invalid for cell at level {self.level}")
        return CellId(self.code >> (2 * (self.level - level)), level)

    def contains(self, other: "CellId") -> bool:
        """True if ``other`` is this cell or one of its descendants."""
        if other.level < self.level:
            return False
        return (other.code >> (2 * (other.level - self.level))) == self.code

    # ------------------------------------------------------------------ #
    # coordinates and ranges
    # ------------------------------------------------------------------ #
    def to_xy(self) -> tuple[int, int]:
        """Grid coordinates ``(ix, iy)`` of the cell at its own level."""
        return morton_decode(self.code, self.level)

    def range_at(self, level: int) -> tuple[int, int]:
        """Half-open Morton-code range ``[lo, hi)`` this cell covers at a finer ``level``.

        Point data is linearized at a single fine ``level``; a query cell of a
        hierarchical approximation then selects the points whose fine-level
        code falls in this range — this is exactly the lookup that the sorted
        array / RadixSpline / B+-tree indexes perform.
        """
        if level < self.level:
            raise CurveError("range level must be at least the cell level")
        shift = 2 * (level - self.level)
        lo = self.code << shift
        hi = (self.code + 1) << shift
        return lo, hi

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CellId(level={self.level}, code={self.code})"


def cell_token(cell: CellId) -> str:
    """Human-readable quadkey-style token, e.g. ``"2/31"`` (level/child path)."""
    digits = []
    code = cell.code
    for _ in range(cell.level):
        digits.append(str(code & 3))
        code >>= 2
    return f"{cell.level}/" + "".join(reversed(digits))


def common_ancestor_level(a: CellId, b: CellId) -> int:
    """Deepest level at which ``a`` and ``b`` share an ancestor."""
    level = min(a.level, b.level)
    ca = a.ancestor_at(level)
    cb = b.ancestor_at(level)
    while level > 0 and ca.code != cb.code:
        level -= 1
        ca = ca.parent()
        cb = cb.parent()
    return level


def children_codes(codes: np.ndarray) -> np.ndarray:
    """Codes of the four children of every cell, one level down (vectorised).

    The result is parent-major: the children of ``codes[k]`` occupy positions
    ``4*k .. 4*k + 3`` in child-number order (0..3) — the same order
    :meth:`CellId.children` yields them, which the level-synchronous build
    sweep relies on to replay the recursive refinement order exactly.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    return (np.repeat(codes << np.uint64(2), 4)
            + np.tile(np.arange(4, dtype=np.uint64), codes.shape[0]))


def parent_codes(codes: np.ndarray) -> np.ndarray:
    """Codes of the enclosing cells one level up (vectorised ``parent()``)."""
    return np.asarray(codes, dtype=np.uint64) >> np.uint64(2)


def codes_at_level(cells: list[CellId], level: int) -> np.ndarray:
    """Morton-code ranges (``(n, 2)`` array of ``[lo, hi)``) of cells at ``level``."""
    ranges = np.empty((len(cells), 2), dtype=np.uint64)
    for i, cell in enumerate(cells):
        lo, hi = cell.range_at(level)
        ranges[i, 0] = lo
        ranges[i, 1] = hi
    return ranges
