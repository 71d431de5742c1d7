"""The per-level, per-point ACT probe that ``FlatACT.lookup_codes`` replaced.

Every populated level is probed with *all* point codes (unsorted, repeats
included) and the matches are assembled at point granularity.  It defines the
``(offsets, polygon_ids)`` arrays the cell-deduplicated kernel must reproduce
element for element, so both variants — the single-segment base path and the
union-merged delta path — are kept verbatim; only the dispatch on
``index.consolidated`` and the ``index.`` attribute access are new.

:func:`assert_kernel_matches_loop` is the comparison both property tests
(``tests/index/test_flat_act.py`` on arbitrary cells, ``test_flat_act_delta.py``
on mutated suites) run: the kernel against this loop *and* the scalar
:meth:`FlatACT.lookup_point`, over :func:`code_families`.
"""

from __future__ import annotations

import numpy as np

from repro.arrays import csr_from_chunks, expand_slices, isin_sorted
from repro.curves import CellId

__all__ = ["lookup_codes_loop", "code_families", "assert_kernel_matches_loop"]


def lookup_codes_loop(index, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR matches of finest-level ``codes`` against a :class:`FlatACT`."""
    codes = np.asarray(codes, dtype=np.uint64)
    if not index.consolidated:
        return _lookup_codes_delta_loop(index, codes)
    n = codes.shape[0]
    point_chunks: list[np.ndarray] = []
    pid_chunks: list[np.ndarray] = []
    for level, keys, level_offsets, level_pids in index._levels:
        shifted = codes >> np.uint64(2 * (index.max_level - level))
        hit, pos = isin_sorted(keys, shifted, return_positions=True)
        if not hit.any():
            continue
        hit_pos = pos[hit]
        starts = level_offsets[hit_pos]
        counts = level_offsets[hit_pos + 1] - starts
        if int(counts.sum()) == 0:
            continue
        pid_chunks.append(level_pids[expand_slices(starts, counts)])
        point_chunks.append(np.repeat(np.flatnonzero(hit), counts))

    # Chunks are appended in ascending level order, so the stable CSR
    # assembly yields each probe's matches coarse-to-fine — the same order
    # as the scalar trie walk.
    return csr_from_chunks(point_chunks, pid_chunks, n)


def _lookup_codes_delta_loop(index, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Union-merged probe across the base and every delta segment.

    A probe point maps to exactly one cell per level, and a fresh build
    lists a cell's postings in ascending polygon-id order — so gathering
    each level across segments, dropping tombstones, mapping slots to
    dense ids and re-sorting by ``(point, dense)`` reproduces the
    from-scratch match order bit for bit.
    """
    n = codes.shape[0]
    dense_of_slot = index._dense_of_slot
    segments = [index._levels, *index._deltas]
    by_level: dict[int, list] = {}
    for segment in segments:
        for level, keys, offsets, pids in segment:
            by_level.setdefault(level, []).append((keys, offsets, pids))
    point_chunks: list[np.ndarray] = []
    pid_chunks: list[np.ndarray] = []
    for level in sorted(by_level):
        shifted = codes >> np.uint64(2 * (index.max_level - level))
        point_parts: list[np.ndarray] = []
        dense_parts: list[np.ndarray] = []
        for keys, offsets, pids in by_level[level]:
            hit, pos = isin_sorted(keys, shifted, return_positions=True)
            if not hit.any():
                continue
            hit_pos = pos[hit]
            starts = offsets[hit_pos]
            counts = offsets[hit_pos + 1] - starts
            if int(counts.sum()) == 0:
                continue
            dense = dense_of_slot[pids[expand_slices(starts, counts)]]
            live = dense >= 0
            if not live.any():
                continue
            point_parts.append(np.repeat(np.flatnonzero(hit), counts)[live])
            dense_parts.append(dense[live])
        if not point_parts:
            continue
        points = np.concatenate(point_parts)
        dense = np.concatenate(dense_parts)
        order = np.lexsort((dense, points))
        point_chunks.append(points[order])
        pid_chunks.append(dense[order])
    return csr_from_chunks(point_chunks, pid_chunks, n)


def code_families(index, rng: np.random.Generator, n: int = 300) -> dict[str, np.ndarray]:
    """Finest-level code arrays that reach every branch of the kernel.

    Random in-frame points give the shuffled array (with repeats: several
    points per cell); the rest are derived from it, plus the codes on either
    side of every level-prefix border of (a sample of) the stored cells.
    """
    box = index.frame.frame_box()
    xs = rng.uniform(box.min_x, box.max_x, size=n)
    ys = rng.uniform(box.min_y, box.max_y, size=n)
    shuffled = index.frame.points_to_codes(xs, ys, index.max_level)
    distinct = rng.permutation(np.unique(shuffled))
    offsets, _ = lookup_codes_loop(index, shuffled)
    top = np.uint64(4**index.max_level - 1)
    borders = [np.array([0, top], dtype=np.uint64)]
    for segment in [index._levels, *index._deltas]:
        for level, keys, _, _ in segment:
            keys = rng.choice(keys, size=min(32, keys.shape[0]), replace=False)
            shift = np.uint64(2 * (index.max_level - level))
            low = keys << shift
            high = ((keys + np.uint64(1)) << shift) - np.uint64(1)
            borders += [
                low,
                high,
                np.maximum(low, np.uint64(1)) - np.uint64(1),
                np.minimum(high, top - np.uint64(1)) + np.uint64(1),
            ]
    return {
        "shuffled": shuffled,
        "sorted": np.sort(shuffled),
        "one_cell": np.full(17, shuffled[0]),
        "distinct": distinct,
        "hit_nothing": shuffled[np.diff(offsets) == 0],
        "empty": shuffled[:0],
        "single": shuffled[:1],
        "borders": np.concatenate(borders),
    }


def assert_kernel_matches_loop(index, rng: np.random.Generator, scalar_sample: int = 40) -> None:
    """``lookup_codes`` == the level loop == scalar ``lookup_point``, element for element."""
    for name, codes in code_families(index, rng).items():
        offsets, ids = index.lookup_codes(codes)
        want_offsets, want_ids = lookup_codes_loop(index, codes)
        assert offsets.dtype == ids.dtype == np.int64, name
        np.testing.assert_array_equal(offsets, want_offsets, err_msg=name)
        np.testing.assert_array_equal(ids, want_ids, err_msg=name)
        for k in rng.permutation(codes.shape[0])[:scalar_sample]:
            x, y = index.frame.cell_center(CellId(int(codes[k]), index.max_level))
            assert ids[offsets[k] : offsets[k + 1]].tolist() == index.lookup_point(x, y), name
