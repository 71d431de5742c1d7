"""Array helpers shared by the batch kernels: sorted membership and CSR assembly.

Every batch probe API (:meth:`FlatACT.lookup_points`,
:meth:`RStarTree.query_points`, :meth:`ShapeIndex.query_points`) produces its
matches as chunks of ``(point index, id)`` pairs and must return them in the
same point-major CSR layout — and in a *stable* order, because the kernels'
bit-identical-aggregation guarantee depends on every polygon receiving its
float additions in ascending point order.  Centralising the assembly here
keeps the probe paths from drifting apart.

This module imports nothing from ``repro`` (it is an import leaf), so the
geometry, grid and approximation kernels can import it at module top even
though ``repro.index`` itself depends on them.  ``repro.index.csr``
re-exports the same three names.
"""

from __future__ import annotations

import numpy as np

__all__ = ["expand_slices", "csr_from_chunks", "isin_sorted"]


def isin_sorted(
    sorted_keys: np.ndarray, values: np.ndarray, return_positions: bool = False
):
    """Exact-membership mask of ``values`` in a sorted key array.

    One ``searchsorted`` plus an equality check on the landing positions —
    the shared membership kernel of the batch probe paths.  With
    ``return_positions`` the landing positions are returned alongside the
    mask so callers that need them (CSR postings lookups) avoid a second
    binary-search pass.
    """
    pos = np.searchsorted(sorted_keys, values)
    hit = pos < sorted_keys.shape[0]
    hit[hit] = sorted_keys[pos[hit]] == values[hit]
    if return_positions:
        return hit, pos
    return hit


def expand_slices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices covering every ``[starts[i], starts[i] + counts[i])`` slice.

    The standard exclusive-cumsum + repeat + arange idiom: the result
    concatenates all slices in order without a Python loop.
    """
    total = int(counts.sum())
    exclusive = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.repeat(starts - exclusive, counts) + np.arange(total, dtype=np.int64)


def csr_from_chunks(
    point_chunks: list[np.ndarray], id_chunks: list[np.ndarray], num_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble match chunks into point-major CSR ``(offsets, ids)``.

    ``point_chunks``/``id_chunks`` hold parallel arrays of point indices and
    matched ids.  The stable sort preserves the chunk order within one point,
    so callers control the per-point match order by the order they append
    chunks (e.g. coarse-to-fine levels).
    """
    offsets = np.zeros(num_points + 1, dtype=np.int64)
    if not id_chunks:
        return offsets, np.empty(0, dtype=np.int64)
    point_idx = np.concatenate(point_chunks)
    ids = np.concatenate(id_chunks)
    order = np.argsort(point_idx, kind="stable")
    ids = ids[order]
    np.cumsum(np.bincount(point_idx, minlength=num_points), out=offsets[1:])
    return offsets, ids
