"""Flattened, array-backed Adaptive Cell Trie.

The pointer-based :class:`~repro.index.act.AdaptiveCellTrie` is the faithful
reproduction of the ACT radix tree, but probing it one point at a time from
Python is what dominates the join cost in this reproduction.  This module
provides the batch-probe representation: the trie is flattened **once** into

* one sorted ``uint64`` key array per populated level (the Morton codes of the
  cells stored at that level), and
* a CSR postings layout per level (``offsets`` into a flat ``polygon_ids``
  array), so a cell that several distance-bounded approximations share maps to
  all of its polygon ids.

A batch lookup then encodes all probe points at the finest level with
:meth:`repro.curves.cellid.CellId.encode_points`, deduplicates and sorts the
codes, and resolves every stored level with one ``searchsorted`` of that
level's *distinct* prefixes (:meth:`FlatACT.lookup_codes`) — the trie walk of
§3 becomes a merge of two sorted key sets in a handful of vectorised array
passes with **no Python work per point**, which is what the paper's "no exact
geometric test is needed" speed argument requires of the hot path.

Live polygon suites
-------------------

The index is no longer build-once.  Mirroring the store's memtable → run →
compaction design, a mutated index holds **per-generation posting segments**:

* the *base* segment (:attr:`FlatACT._levels`) — the consolidated CSR layout
  above;
* zero or more *delta* segments appended by :meth:`add_polygons` /
  :meth:`replace_polygon`, each in the same per-level sorted-key + CSR
  shape; and
* a slot → dense-id map with a tombstone mask: postings store immutable
  *slot* ids, and :attr:`_dense_of_slot` maps each slot to its current
  position in the suite (``-1`` = removed / superseded).

Probes union-merge all segments per level inside the one batch kernel and
re-sort each cell's matches into ascending dense-id order, so every lookup
stays **bit-identical** to a from-scratch build of the current suite.
:meth:`consolidate` splices the segments back into one base CSR that
reproduces :meth:`FlatACT.build`'s exact arrays.  A consolidated index skips
the slot mapping and the re-sort; everything else is shared.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.arrays import csr_from_chunks, expand_slices, isin_sorted
from repro.errors import IndexError_

__all__ = ["FlatACT", "concat_cell_arrays"]

#: Process-local generation tokens for segment-wise shared-memory publishing:
#: a segment keeps its token for as long as its arrays are unchanged, so a
#: publisher can skip re-shipping it (see :meth:`FlatACT.state_parts`).
_TOKENS = itertools.count()


def _next_token(prefix: str) -> str:
    return f"{prefix}{next(_TOKENS)}"


def concat_cell_arrays(approxes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate a suite's approximation cells into bulk-load arrays.

    Takes hierarchical raster approximations in polygon-id order and returns
    the parallel ``(polygon_ids, codes, levels)`` arrays that
    :meth:`FlatACT.from_cells` consumes.  This is the single definition of
    the suite-to-arrays step, shared by :meth:`FlatACT.build` and the
    ShapeIndex covering loader so the two bulk paths cannot drift apart.
    """
    code_chunks: list[np.ndarray] = []
    level_chunks: list[np.ndarray] = []
    pid_chunks: list[np.ndarray] = []
    for polygon_id, approx in enumerate(approxes):
        codes, levels, _ = approx.cell_arrays()
        code_chunks.append(codes)
        level_chunks.append(levels)
        pid_chunks.append(np.full(codes.shape[0], polygon_id, dtype=np.int64))
    if not code_chunks:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.uint64),
            np.empty(0, dtype=np.int64),
        )
    return (
        np.concatenate(pid_chunks),
        np.concatenate(code_chunks),
        np.concatenate(level_chunks),
    )


def _compress_segment(
    polygon_ids: np.ndarray, codes: np.ndarray, cell_levels: np.ndarray
) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Per-level sorted-key + CSR compression of ``(id, code, level)`` triples.

    The shared kernel behind :meth:`FlatACT.from_cells` and the delta-segment
    builders: one stable sort per level, so the postings of a shared cell
    keep the input's id-major order.
    """
    out: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
    if codes.size == 0:
        return out
    for level in np.unique(cell_levels):
        mask = cell_levels == level
        level_codes = codes[mask]
        pids = polygon_ids[mask]
        order = np.argsort(level_codes, kind="stable")
        level_codes = level_codes[order]
        pids = pids[order]
        keys, starts = np.unique(level_codes, return_index=True)
        offsets = np.append(starts, level_codes.shape[0]).astype(np.int64)
        out.append((int(level), keys, offsets, pids))
    return out


class FlatACT:
    """Array-backed ACT: sorted per-level cell keys plus CSR postings.

    Instances are built from a populated trie with :meth:`from_trie` (or
    transparently through :meth:`AdaptiveCellTrie.flattened`) or bulk-loaded
    with :meth:`from_cells` / :meth:`build`.  A built index is **patchable**:
    :meth:`add_polygons`, :meth:`remove_polygons` and :meth:`replace_polygon`
    touch only the changed polygons' postings (delta segments plus a
    tombstone map), and :meth:`consolidate` splices everything back into one
    CSR identical to a from-scratch build.
    """

    __slots__ = (
        "frame",
        "max_level",
        "num_cells",
        "_levels",
        "_deltas",
        "_dense_of_slot",
        "_slot_counts",
        "_num_polygons",
        "_fingerprints",
        "_base_token",
        "_ctl_token",
        "_delta_tokens",
    )

    def __init__(
        self,
        frame,
        max_level: int,
        levels: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]],
        *,
        num_polygons: "int | None" = None,
        fingerprints: "tuple[str, ...] | None" = None,
    ) -> None:
        self.frame = frame
        self.max_level = max_level
        #: Base segment — per populated level ``(level, keys, offsets,
        #: polygon_ids)`` with ``keys`` sorted unique cell codes and CSR
        #: ``offsets`` of length ``len(keys) + 1`` into ``polygon_ids``.
        self._levels = levels
        #: Delta segments appended by mutations, same per-level shape as the
        #: base but holding *slot* ids.
        self._deltas: list[list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]] = []
        #: Slot → dense polygon id (``-1`` = tombstoned).  ``None`` means the
        #: index is consolidated and slots *are* dense ids (zero-overhead
        #: probe fast path).
        self._dense_of_slot: "np.ndarray | None" = None
        #: Live postings per slot (maintained only while mutable).
        self._slot_counts: "np.ndarray | None" = None
        self._num_polygons = None if num_polygons is None else int(num_polygons)
        self._fingerprints = tuple(fingerprints) if fingerprints is not None else None
        self._base_token = _next_token("b")
        self._ctl_token = _next_token("c")
        self._delta_tokens: list[str] = []
        self.num_cells = sum(int(pids.shape[0]) for _, _, _, pids in levels)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_trie(cls, trie) -> "FlatACT":
        """Flatten an :class:`~repro.index.act.AdaptiveCellTrie`.

        One DFS collects every stored ``(level, cell code, polygon id)``
        triple; each level is then sorted by code and compressed into the
        sorted-key + CSR-postings layout.
        """
        pairs: list[tuple[int, int, int]] = []
        stack = [(trie.root, 0, 0)]
        while stack:
            node, code, level = stack.pop()
            for polygon_id in node.values:
                pairs.append((level, code, polygon_id))
            for child_idx, child in enumerate(node.children):
                if child is not None:
                    stack.append((child, (code << 2) | child_idx, level + 1))
        return cls.from_pairs(trie.frame, trie.max_level, pairs)

    @classmethod
    def from_pairs(cls, frame, max_level: int, pairs) -> "FlatACT":
        """Build from ``(level, cell code, polygon id)`` triples.

        ``pairs`` is a sequence of triples or an equivalent flat int sequence.
        Callers that already hold their cells as triples construct directly
        through here and skip the node walk of :meth:`from_trie`.  Within one
        cell, postings keep the order the triples were appended in, matching
        the ``node.values`` order of the pointer-based trie.
        """
        if not len(pairs):
            return cls(frame, max_level, [])
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 3)
        return cls.from_cells(
            frame, max_level, arr[:, 2], arr[:, 1].astype(np.uint64), arr[:, 0]
        )

    @classmethod
    def from_cells(
        cls,
        frame,
        max_level: int,
        polygon_ids: np.ndarray,
        codes: np.ndarray,
        levels: np.ndarray,
        *,
        num_polygons: "int | None" = None,
        fingerprints: "tuple[str, ...] | None" = None,
    ) -> "FlatACT":
        """Bulk-load from parallel ``(polygon_id, code, level)`` arrays.

        This is the construction path's index-loading kernel: the cell
        arrays of many hierarchical raster approximations are concatenated
        (polygon-major, ascending polygon id) and compressed into the
        sorted-key + CSR-postings layout with one stable sort per level — no
        per-cell trie insert, no Python triples.  Because the sort is stable
        and each polygon contributes a cell at most once, the postings of a
        shared cell list its polygons in ascending id order, exactly like
        flattening a trie that was filled polygon by polygon.
        """
        polygon_ids = np.asarray(polygon_ids, dtype=np.int64)
        codes = np.asarray(codes, dtype=np.uint64)
        cell_levels = np.asarray(levels, dtype=np.int64)
        if not (polygon_ids.shape == codes.shape == cell_levels.shape):
            raise IndexError_("polygon_ids, codes and levels must have equal shapes")
        out = _compress_segment(polygon_ids, codes, cell_levels)
        return cls(
            frame, max_level, out, num_polygons=num_polygons, fingerprints=fingerprints
        )

    @classmethod
    def build(
        cls,
        regions,
        frame,
        epsilon: float,
        conservative: bool = True,
        fingerprints: "tuple[str, ...] | None" = None,
    ) -> "FlatACT":
        """Index a polygon suite's distance-bounded approximations directly.

        The bulk twin of :meth:`AdaptiveCellTrie.build`: each region gets an
        HR approximation honouring ``epsilon``, and the cell arrays are
        assembled straight into the flat layout via :meth:`from_cells` — the
        pointer trie is never materialised.  ``fingerprints`` optionally
        attaches the suite's per-polygon content fingerprints for later
        diffing (they persist through :meth:`save` / :meth:`load`).
        """
        from repro.approx.build_engine import get_build_engine
        from repro.approx.distance_bound import cell_side_for_bound

        max_level = frame.level_for_cell_side(cell_side_for_bound(epsilon))
        approxes = get_build_engine().build_bound_batch(
            regions, frame, epsilon, conservative=conservative
        )
        pids, codes, levels = concat_cell_arrays(approxes)
        return cls.from_cells(
            frame,
            max_level,
            pids,
            codes,
            levels,
            num_polygons=len(regions),
            fingerprints=fingerprints,
        )

    # ------------------------------------------------------------------ #
    # live-suite mutations
    # ------------------------------------------------------------------ #
    @property
    def consolidated(self) -> bool:
        """True when the index is one base CSR (no deltas, no tombstones)."""
        return self._dense_of_slot is None

    @property
    def num_polygons(self) -> int:
        """Current (dense) polygon count of the indexed suite."""
        if self._num_polygons is not None:
            return self._num_polygons
        top = -1
        for _, _, _, pids in self._levels:
            if pids.shape[0]:
                top = max(top, int(pids.max()))
        return top + 1

    @property
    def fingerprints(self) -> "tuple[str, ...] | None":
        """Per-polygon content fingerprints in dense order (if attached)."""
        return self._fingerprints

    def set_fingerprints(self, fingerprints: "tuple[str, ...] | None") -> None:
        self._fingerprints = tuple(fingerprints) if fingerprints is not None else None

    def _ensure_mutable(self) -> None:
        """Materialise the slot machinery on first mutation (identity map)."""
        if self._dense_of_slot is not None:
            return
        n = self.num_polygons
        self._num_polygons = n
        self._dense_of_slot = np.arange(n, dtype=np.int64)
        counts = np.zeros(n, dtype=np.int64)
        for _, _, _, pids in self._levels:
            if pids.shape[0]:
                counts += np.bincount(pids, minlength=n)
        self._slot_counts = counts

    def _touch(self) -> None:
        self._ctl_token = _next_token("c")

    def _append_delta(self, slot_ids, codes, levels) -> None:
        segment = _compress_segment(slot_ids, codes, levels)
        if segment:
            self._deltas.append(segment)
            self._delta_tokens.append(_next_token("d"))

    def add_polygons(self, cells, fingerprints=None) -> list[int]:
        """Append polygons from their ``(codes, levels)`` cell arrays.

        ``cells`` holds one ``(codes, levels)`` pair per new polygon (the
        :meth:`~repro.approx.build_engine.HRBuilder.build_cell_arrays`
        output).  Only the new polygons' postings are built — one delta
        segment — and existing arrays are untouched.
        Returns the new polygons' dense ids.
        """
        if not cells:
            return []
        self._ensure_mutable()
        base_slot = self._dense_of_slot.shape[0]
        start = self._num_polygons
        slot_chunks, code_chunks, level_chunks, per_counts = [], [], [], []
        for i, (codes, levels) in enumerate(cells):
            codes = np.asarray(codes, dtype=np.uint64)
            levels = np.asarray(levels, dtype=np.int64)
            slot_chunks.append(np.full(codes.shape[0], base_slot + i, dtype=np.int64))
            code_chunks.append(codes)
            level_chunks.append(levels)
            per_counts.append(codes.shape[0])
        self._append_delta(
            np.concatenate(slot_chunks),
            np.concatenate(code_chunks),
            np.concatenate(level_chunks),
        )
        self._dense_of_slot = np.concatenate(
            [self._dense_of_slot, np.arange(start, start + len(cells), dtype=np.int64)]
        )
        self._slot_counts = np.concatenate(
            [self._slot_counts, np.asarray(per_counts, dtype=np.int64)]
        )
        self._num_polygons += len(cells)
        self.num_cells += int(sum(per_counts))
        if self._fingerprints is not None:
            if fingerprints is not None and len(fingerprints) == len(cells):
                self._fingerprints = self._fingerprints + tuple(fingerprints)
            else:
                self._fingerprints = None
        self._touch()
        return list(range(start, start + len(cells)))

    def remove_polygons(self, positions) -> None:
        """Remove polygons by dense id; survivors are renumbered downwards.

        Only the slot → dense map changes: the removed polygons' postings
        stay in their segments as tombstones (dense id ``-1``) until
        :meth:`consolidate` reclaims them.
        """
        dropped = sorted(set(int(p) for p in positions))
        if not dropped:
            return
        self._ensure_mutable()
        n = self._num_polygons
        for position in dropped:
            if not 0 <= position < n:
                raise IndexError_(
                    f"remove position {position} out of range for a {n}-polygon index"
                )
        dead = np.zeros(n, dtype=bool)
        dead[dropped] = True
        shift = np.cumsum(dead)
        dense = self._dense_of_slot
        live = dense >= 0
        killed = live.copy()
        killed[live] = dead[dense[live]]
        new_dense = dense.copy()
        new_dense[killed] = -1
        survivors = live & ~killed
        new_dense[survivors] = dense[survivors] - shift[dense[survivors]]
        self._dense_of_slot = new_dense
        self._num_polygons = n - len(dropped)
        self.num_cells -= int(self._slot_counts[killed].sum())
        if self._fingerprints is not None:
            self._fingerprints = tuple(
                fp for i, fp in enumerate(self._fingerprints) if not dead[i]
            )
        self._touch()

    def replace_polygon(self, position: int, cells, fingerprint=None) -> None:
        """Swap one polygon's geometry in place (same dense id).

        ``cells`` is the new ``(codes, levels)`` pair.  The old postings are
        tombstoned (their slot dies) and the new ones land in a fresh delta
        segment mapped to the same dense position — every other polygon's
        arrays are untouched.
        """
        self._ensure_mutable()
        n = self._num_polygons
        if not 0 <= int(position) < n:
            raise IndexError_(
                f"replace position {position} out of range for a {n}-polygon index"
            )
        position = int(position)
        dense = self._dense_of_slot
        old_slots = np.flatnonzero(dense == position)
        self.num_cells -= int(self._slot_counts[old_slots].sum())
        dense[old_slots] = -1
        codes = np.asarray(cells[0], dtype=np.uint64)
        levels = np.asarray(cells[1], dtype=np.int64)
        new_slot = dense.shape[0]
        self._append_delta(
            np.full(codes.shape[0], new_slot, dtype=np.int64), codes, levels
        )
        self._dense_of_slot = np.append(dense, np.int64(position))
        self._slot_counts = np.append(self._slot_counts, np.int64(codes.shape[0]))
        self.num_cells += int(codes.shape[0])
        if self._fingerprints is not None:
            if fingerprint is None:
                self._fingerprints = None
            else:
                fps = list(self._fingerprints)
                fps[position] = fingerprint
                self._fingerprints = tuple(fps)
        self._touch()

    def consolidate(self) -> "FlatACT":
        """Splice every segment back into one base CSR (in place).

        Gathers all live postings, maps slots to dense ids and re-runs the
        :meth:`from_cells` compression in polygon-major order — the result
        arrays are **bit-identical** to a from-scratch :meth:`build` of the
        current suite, because the per-level stable sort is invariant to the
        within-polygon cell order.  Returns ``self``.
        """
        if self._dense_of_slot is None:
            return self
        slot_chunks, code_chunks, level_chunks = [], [], []
        for segment in [self._levels, *self._deltas]:
            for level, keys, offsets, pids in segment:
                slot_chunks.append(pids)
                code_chunks.append(np.repeat(keys, np.diff(offsets)))
                level_chunks.append(np.full(pids.shape[0], level, dtype=np.int64))
        if slot_chunks:
            slots = np.concatenate(slot_chunks)
            codes = np.concatenate(code_chunks)
            levels = np.concatenate(level_chunks)
            dense = self._dense_of_slot[slots]
            live = dense >= 0
            dense, codes, levels = dense[live], codes[live], levels[live]
            order = np.argsort(dense, kind="stable")
            self._levels = _compress_segment(dense[order], codes[order], levels[order])
        else:
            self._levels = []
        self.num_cells = sum(int(pids.shape[0]) for _, _, _, pids in self._levels)
        self._deltas = []
        self._delta_tokens = []
        self._dense_of_slot = None
        self._slot_counts = None
        self._base_token = _next_token("b")
        self._touch()
        return self

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def _control_arrays(self) -> dict[str, np.ndarray]:
        frame = self.frame
        arrays: dict[str, np.ndarray] = {
            "frame_params": np.array(
                [frame.origin_x, frame.origin_y, frame.size], dtype=np.float64
            ),
            "meta": np.array([self.max_level, len(self._levels)], dtype=np.int64),
        }
        has_dense = self._dense_of_slot is not None
        has_fps = self._fingerprints is not None
        if has_dense or has_fps:
            arrays["schema"] = np.array([2], dtype=np.int64)
            arrays["v2_meta"] = np.array(
                [
                    self.num_polygons,
                    len(self._deltas),
                    int(has_dense),
                    int(has_fps),
                ],
                dtype=np.int64,
            )
            if has_dense:
                arrays["dense_of_slot"] = self._dense_of_slot
            if has_fps:
                arrays["fingerprints"] = np.array(list(self._fingerprints), dtype="S32")
        return arrays

    def _base_arrays(self) -> dict[str, np.ndarray]:
        arrays: dict[str, np.ndarray] = {
            "level_numbers": np.array([lvl for lvl, _, _, _ in self._levels], dtype=np.int64)
        }
        for i, (_, keys, offsets, pids) in enumerate(self._levels):
            arrays[f"level_{i}_keys"] = keys
            arrays[f"level_{i}_offsets"] = offsets
            arrays[f"level_{i}_polygon_ids"] = pids
        return arrays

    def _delta_arrays(self, d: int) -> dict[str, np.ndarray]:
        segment = self._deltas[d]
        arrays: dict[str, np.ndarray] = {
            f"delta_{d}_level_numbers": np.array(
                [lvl for lvl, _, _, _ in segment], dtype=np.int64
            )
        }
        for i, (_, keys, offsets, pids) in enumerate(segment):
            arrays[f"delta_{d}_{i}_keys"] = keys
            arrays[f"delta_{d}_{i}_offsets"] = offsets
            arrays[f"delta_{d}_{i}_polygon_ids"] = pids
        return arrays

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The index as a flat name → array mapping.

        Per populated level the sorted keys, CSR offsets and postings, plus
        the frame parameters ``(origin_x, origin_y, size)`` and
        ``max_level``.  A consolidated, fingerprint-less index emits the
        original (v1) schema; mutated or fingerprinted indexes add a
        ``schema`` version field, the slot → dense map and the delta
        segments.  This is both the ``.npz`` schema of :meth:`save` and the
        unit of transport for shared-memory publishing
        (:mod:`repro.shard.shm`): an index rebuilt from these arrays answers
        every lookup bit for bit identically.
        """
        arrays = self._control_arrays()
        arrays.update(self._base_arrays())
        for d in range(len(self._deltas)):
            arrays.update(self._delta_arrays(d))
        return arrays

    def state_parts(self) -> list[tuple[str, dict]]:
        """The state partitioned into token-tagged segments.

        Returns ``[(token, arrays), ...]`` whose array union equals
        :meth:`state_arrays`.  A segment's token is stable while its arrays
        are unchanged and moves on any mutation that touches it, so a
        shared-memory publisher can re-ship **only the changed segments**:
        the control part changes on every mutation (it carries the
        tombstone map), the base only on :meth:`consolidate`, and each delta
        segment is immutable from birth.
        """
        parts = [
            (self._ctl_token, self._control_arrays()),
            (self._base_token, self._base_arrays()),
        ]
        for d, token in enumerate(self._delta_tokens):
            parts.append((token, self._delta_arrays(d)))
        return parts

    @staticmethod
    def _read_segment(data, num_levels: int, prefix: str, level_numbers):
        return [
            (
                int(level_numbers[i]),
                data[f"{prefix}{i}_keys"],
                data[f"{prefix}{i}_offsets"],
                data[f"{prefix}{i}_polygon_ids"],
            )
            for i in range(num_levels)
        ]

    @classmethod
    def from_state_arrays(cls, data) -> "FlatACT":
        """Rebuild from :meth:`state_arrays` output (or any mapping of it).

        ``data`` only needs ``__getitem__`` — a dict of live arrays, an open
        ``np.load`` handle, or zero-copy shared-memory views all work.
        Files written before the schema field (v1) load as consolidated
        indexes.
        """
        from repro.grid.uniform_grid import GridFrame

        ox, oy, size = data["frame_params"]
        max_level, num_levels = (int(v) for v in data["meta"])
        levels = cls._read_segment(data, num_levels, "level_", data["level_numbers"])
        flat = cls(GridFrame.from_raw(float(ox), float(oy), float(size)), max_level, levels)
        try:
            schema = int(data["schema"][0])
        except KeyError:
            schema = 1
        if schema == 1:
            return flat
        num_polygons, num_deltas, has_dense, has_fps = (int(v) for v in data["v2_meta"])
        flat._num_polygons = num_polygons
        if has_fps:
            flat._fingerprints = tuple(fp.decode() for fp in data["fingerprints"])
        for d in range(num_deltas):
            level_numbers = data[f"delta_{d}_level_numbers"]
            flat._deltas.append(
                cls._read_segment(data, len(level_numbers), f"delta_{d}_", level_numbers)
            )
            flat._delta_tokens.append(_next_token("d"))
        if has_dense:
            dense = np.asarray(data["dense_of_slot"], dtype=np.int64)
            flat._dense_of_slot = dense
            counts = np.zeros(dense.shape[0], dtype=np.int64)
            for segment in [flat._levels, *flat._deltas]:
                for _, _, _, pids in segment:
                    if pids.shape[0]:
                        counts += np.bincount(pids, minlength=dense.shape[0])
            flat._slot_counts = counts
            flat.num_cells = int(counts[dense >= 0].sum())
        return flat

    def save(self, path) -> None:
        """Serialise the index to an ``.npz`` file.

        The flat representation is already a handful of plain arrays, so the
        file holds :meth:`state_arrays` verbatim — including, for a live
        index, the per-polygon fingerprints, delta segments and tombstone
        map.  :meth:`load` restores an index whose arrays, and therefore
        whose lookups, are bit for bit identical.  Store runs persist
        through the same conventions (:meth:`repro.store.run.Run.save`).
        """
        np.savez(path, **self.state_arrays())

    @classmethod
    def load(cls, path) -> "FlatACT":
        """Restore an index saved with :meth:`save` (bit-identical arrays)."""
        with np.load(path) as data:
            return cls.from_state_arrays(data)

    # ------------------------------------------------------------------ #
    # batch lookups
    # ------------------------------------------------------------------ #
    def lookup_codes(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CSR matches for finest-level cell codes.

        Parameters
        ----------
        codes:
            Morton codes of the probe cells at :attr:`max_level`, in any
            order and with any number of repeats (anything ``np.asarray``
            turns into ``uint64``).

        Returns
        -------
        offsets, polygon_ids:
            ``offsets`` has length ``len(codes) + 1``; the polygon ids matching
            probe ``k`` are ``polygon_ids[offsets[k]:offsets[k + 1]]``, ordered
            coarse-to-fine exactly like the scalar trie walk, ascending
            polygon id within one level.

        The probe resolves **distinct cells, not points**.  Points and cells
        live on one Morton curve, so the codes are deduplicated and sorted
        once (``np.unique``) and the populated levels are walked finest to
        coarsest: a right shift keeps Morton order, so each level's prefixes
        are deduplicated by comparing neighbours, every ``searchsorted`` sees
        a short *sorted* needle array, and a coarse cell owns a contiguous
        run of the fine cells.  A level's matches are resolved per distinct
        prefix — across the base and every delta segment, slots mapped to
        dense ids, tombstones dropped, ``lexsort`` by ``(cell, dense id)``
        when the index is not consolidated — and expanded over that run.

        The matches of the distinct fine cells are assembled coarse-to-fine
        into a small cell-major CSR, and each point gathers its cell's list
        through the inverse map of the deduplication, which puts the pairs
        back in the caller's point order.  A point sees exactly one cell per
        level and a fresh build lists a cell's postings in ascending polygon
        id, so the arrays are bit-identical to a per-point, per-level probe
        of a from-scratch build.  Nothing is kept between calls.
        """
        codes = np.asarray(codes, dtype=np.uint64).reshape(-1)
        n = codes.shape[0]
        by_level: dict[int, list] = {}
        for segment in [self._levels, *self._deltas]:
            for level, keys, offsets, pids in segment:
                by_level.setdefault(level, []).append((keys, offsets, pids))
        if n == 0 or not by_level:
            return np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64)

        cells, inverse = np.unique(codes, return_inverse=True)
        # NumPy 2.0-2.2 shaped the inverse like the input, not like a vector.
        inverse = inverse.reshape(-1)
        num_cells = cells.shape[0]
        dense_of_slot = self._dense_of_slot

        # ``prefixes`` are the distinct cells of the level being probed and
        # ``first[i]:first[i + 1]`` is the run of fine cells under prefix i.
        prefixes = cells
        first = np.arange(num_cells + 1, dtype=np.int64)
        at_level = self.max_level
        cell_chunks: list[np.ndarray] = []
        id_chunks: list[np.ndarray] = []
        for level in sorted(by_level, reverse=True):
            shifted = prefixes >> np.uint64(2 * (at_level - level))
            at_level = level
            boundary = np.ones(shifted.shape[0], dtype=bool)
            boundary[1:] = shifted[1:] != shifted[:-1]
            prefixes = shifted[boundary]
            first = np.append(first[:-1][boundary], num_cells)

            owner_parts: list[np.ndarray] = []
            id_parts: list[np.ndarray] = []
            for keys, offsets, pids in by_level[level]:
                hit, pos = isin_sorted(keys, prefixes, return_positions=True)
                owners = np.flatnonzero(hit)
                if owners.shape[0] == 0:
                    continue
                hit_pos = pos[owners]
                starts = offsets[hit_pos]
                counts = offsets[hit_pos + 1] - starts
                ids = pids[expand_slices(starts, counts)]
                owners = np.repeat(owners, counts)
                if dense_of_slot is not None:
                    ids = dense_of_slot[ids]
                    live = ids >= 0
                    ids, owners = ids[live], owners[live]
                owner_parts.append(owners)
                id_parts.append(ids)
            if not owner_parts:
                continue
            owners = np.concatenate(owner_parts)
            ids = np.concatenate(id_parts)
            if dense_of_slot is not None:
                # Segments and superseded slots interleave dense ids; a fresh
                # build lists every cell's postings ascending.
                order = np.lexsort((ids, owners))
                owners, ids = owners[order], ids[order]
            runs = first[owners + 1] - first[owners]
            cell_chunks.append(expand_slices(first[owners], runs))
            id_chunks.append(np.repeat(ids, runs))

        # The walk ran fine to coarse; the stable CSR assembly keeps chunk
        # order within a cell, so reversing yields coarse-to-fine.
        cell_offsets, cell_ids = csr_from_chunks(
            cell_chunks[::-1], id_chunks[::-1], num_cells
        )
        counts = np.diff(cell_offsets)[inverse]
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return offsets, cell_ids[expand_slices(cell_offsets[inverse], counts)]

    def lookup_point(self, x: float, y: float) -> list[int]:
        """Matches of a single point, coarse-to-fine (thin scalar path).

        Scalar callers (the python-loop oracle, interactive lookups) go
        through here instead of paying the batch kernel's per-call array
        setup; the per-level resolution is the same binary search.
        """
        # Out-of-frame points never match: point_to_cell would clamp them
        # onto an edge cell and silently turn them into false positives,
        # breaking the conservativity guarantee (errors only within epsilon
        # of a boundary).
        if not self.frame.contains_point(x, y):
            return []
        code = self.frame.point_to_cell(x, y, self.max_level).code
        if self._dense_of_slot is not None:
            return self._lookup_point_delta(code)
        matches: list[int] = []
        for level, keys, level_offsets, level_pids in self._levels:
            shifted = code >> (2 * (self.max_level - level))
            pos = int(np.searchsorted(keys, np.uint64(shifted)))
            if pos < keys.shape[0] and keys[pos] == shifted:
                matches.extend(int(p) for p in level_pids[level_offsets[pos] : level_offsets[pos + 1]])
        return matches

    def _lookup_point_delta(self, code: int) -> list[int]:
        dense_of_slot = self._dense_of_slot
        found: list[tuple[int, int]] = []
        for segment in [self._levels, *self._deltas]:
            for level, keys, level_offsets, level_pids in segment:
                shifted = code >> (2 * (self.max_level - level))
                pos = int(np.searchsorted(keys, np.uint64(shifted)))
                if pos < keys.shape[0] and keys[pos] == shifted:
                    for slot in level_pids[level_offsets[pos] : level_offsets[pos + 1]]:
                        dense = int(dense_of_slot[slot])
                        if dense >= 0:
                            found.append((level, dense))
        found.sort()
        return [dense for _, dense in found]

    def lookup_points(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CSR matches ``(offsets, polygon_ids)`` for many probe points.

        Points outside the :class:`~repro.grid.uniform_grid.GridFrame` get
        empty match lists: ``points_to_codes`` clamps them onto edge cells,
        and counting those clamped codes would report far-away points as
        inside edge-adjacent polygons — a false positive the distance bound
        does not allow.  Points exactly on the frame's max edge are in the
        frame and keep matching.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.shape != ys.shape:
            raise IndexError_("xs and ys must have the same shape")
        valid = self.frame.contains_points(xs, ys)
        if valid.all():
            codes = self.frame.points_to_codes(xs, ys, self.max_level)
            return self.lookup_codes(codes)
        codes = self.frame.points_to_codes(xs[valid], ys[valid], self.max_level)
        valid_offsets, polygon_ids = self.lookup_codes(codes)
        counts = np.zeros(xs.shape[0], dtype=np.int64)
        counts[valid] = np.diff(valid_offsets)
        offsets = np.zeros(xs.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return offsets, polygon_ids

    def lookup_points_batch(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Alias of :meth:`lookup_points`, mirroring the trie's batch API.

        The probe kernels call ``index.lookup_points_batch`` without caring
        whether the ACT index behind it is the pointer trie or this flat
        representation, so a bulk-loaded FlatACT can drive the join directly.
        """
        return self.lookup_points(xs, ys)

    def flattened(self) -> "FlatACT":
        """This index *is* the flat representation (trie-API compatibility)."""
        return self

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def num_levels(self) -> int:
        return len(self._levels)

    @property
    def num_delta_segments(self) -> int:
        return len(self._deltas)

    def memory_bytes(self) -> int:
        """Footprint of the key, offset and postings arrays (all segments)."""
        total = 0
        for segment in [self._levels, *self._deltas]:
            for _, keys, offsets, pids in segment:
                total += int(keys.nbytes + offsets.nbytes + pids.nbytes)
        if self._dense_of_slot is not None:
            total += int(self._dense_of_slot.nbytes + self._slot_counts.nbytes)
        return total
