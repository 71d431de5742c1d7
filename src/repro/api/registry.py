"""Cached polygon-index lifecycle management.

Every approximate query over a polygon suite needs the same expensive
artefact: a distance-bounded index (ACT / FlatACT) or a coarse covering
(ShapeIndex) over the suite.  The free-function kernels rebuild it per call
unless the caller threads a prebuilt instance by hand; the
:class:`IndexRegistry` centralises that lifecycle instead:

* indexes are cached per ``(suite fingerprint, frame, parameters)`` — the
  fingerprint is a content hash of the suite's ring coordinates
  (:mod:`repro.api.fingerprint`), so two structurally identical suites share
  an entry while any geometry change misses;
* hit / miss / invalidation counters are kept per registry — split by
  whether an entry is polygon-suite-scoped or point-scoped — so serving
  layers (and the benchmarks) can report cache effectiveness;
* :meth:`invalidate` drops entries wholesale or per suite — the updatable
  store calls it on flush / compaction so a registry shared between ad-hoc
  queries and store snapshots never serves an index the store no longer
  vouches for;
* :meth:`patch_suite` is the live-suite path: on a fingerprinted suite
  delta, patchable entries (FlatACT) are **patched in place** — only the
  changed polygons' cell arrays are rebuilt and spliced in — instead of
  being dropped and rebuilt from scratch.

The registry is deliberately *not* a global: a :class:`repro.api.SpatialDataset`
owns one (or shares one with its backing :class:`~repro.store.store.SpatialStore`),
and tests construct throwaway instances.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from repro.api.fingerprint import SuiteDelta, suite_fingerprint
from repro.approx.build_engine import get_build_engine
from repro.geometry.polygon import MultiPolygon, Polygon
from repro.grid.uniform_grid import GridFrame
from repro.index.flat_act import FlatACT
from repro.obs import trace
from repro.obs.log import get_logger

__all__ = ["IndexRegistry", "RegistryStats", "suite_fingerprint"]

_log = get_logger("registry")

Region = Polygon | MultiPolygon


@dataclass(slots=True)
class RegistryStats:
    """Lifetime counters of one registry, split by entry scope.

    ``suite_*`` counters cover polygon-suite-scoped entries (functions of the
    regions + frame + parameters alone); ``point_*`` counters cover
    point-scoped entries (per-shard point linearizations and friends, the
    ones a store flush must drop).  The unscoped :attr:`hits` /
    :attr:`misses` / :attr:`invalidations` aggregates are preserved as
    read-only properties.
    """

    suite_hits: int = 0
    point_hits: int = 0
    suite_misses: int = 0
    point_misses: int = 0
    suite_invalidations: int = 0
    point_invalidations: int = 0
    #: In-place suite-delta patches applied to cached entries.
    patches: int = 0
    #: Polygons whose postings those patches actually rebuilt.
    patched_polygons: int = 0
    #: Seconds spent building cache entries from scratch (misses only).
    build_seconds: float = 0.0
    #: Seconds spent patching cached entries in place.
    patch_seconds: float = 0.0

    @property
    def hits(self) -> int:
        return self.suite_hits + self.point_hits

    @property
    def misses(self) -> int:
        return self.suite_misses + self.point_misses

    @property
    def invalidations(self) -> int:
        return self.suite_invalidations + self.point_invalidations

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "build_seconds": self.build_seconds,
            "suite_hits": self.suite_hits,
            "point_hits": self.point_hits,
            "suite_misses": self.suite_misses,
            "point_misses": self.point_misses,
            "suite_invalidations": self.suite_invalidations,
            "point_invalidations": self.point_invalidations,
            "patches": self.patches,
            "patched_polygons": self.patched_polygons,
            "patch_seconds": self.patch_seconds,
        }


@dataclass(slots=True)
class _Entry:
    index: Any
    fingerprint: str
    #: What the cached index is a function of.  ``"suite"`` entries depend
    #: only on the polygon suite + frame + parameters; ``"points"`` entries
    #: (e.g. per-shard point linearizations) also depend on the point state
    #: and are the only ones a store flush / compaction must drop.
    scope: str = "suite"
    #: Rebuild recipe, kept so suite deltas can patch the entry in place:
    #: the kind / frame / params that produced the index.
    kind: str = "act"
    frame: "GridFrame | None" = None
    params: tuple = ()
    #: Seconds this entry has cost so far (initial build + all patches) and
    #: how many in-place patches it has absorbed — kept honest across
    #: deltas so ``explain()`` can show what an entry is really worth.
    build_seconds: float = 0.0
    patches: int = 0


@dataclass(slots=True)
class IndexRegistry:
    """Cache of probe-ready polygon indexes keyed on suite content.

    The cached objects are exactly what the kernels build on a miss
    (:class:`~repro.index.flat_act.FlatACT` for ACT entries,
    :class:`~repro.index.shape_index.ShapeIndex` for covering entries), so a
    hit is indistinguishable — bit for bit — from threading a prebuilt index
    into the kernel by hand.
    """

    stats: RegistryStats = field(default_factory=RegistryStats)
    _entries: dict[tuple, _Entry] = field(default_factory=dict)
    #: Serialises cache access: a store flush may invalidate point-scoped
    #: entries from a writer thread while serving threads fetch indexes.
    #: Misses build under the lock, so concurrent misses on one key build
    #: the index exactly once.
    _lock: threading.RLock = field(default_factory=threading.RLock, repr=False)

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def act_index(
        self,
        regions: "list[Region]",
        frame: GridFrame,
        epsilon: float,
        conservative: bool = True,
        fingerprint: "str | None" = None,
    ):
        """Probe-ready ACT index over the suite (cached per content + params)."""
        fingerprint = fingerprint or suite_fingerprint(regions)
        params = (float(epsilon), conservative)
        key = self._key("act", fingerprint, frame, params)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                index, seconds = self._timed(
                    "suite",
                    lambda: FlatACT.build(regions, frame, epsilon, conservative=conservative),
                )
                entry = _Entry(
                    index,
                    fingerprint,
                    kind="act",
                    frame=frame,
                    params=params,
                    build_seconds=seconds,
                )
                self._entries[key] = entry
            else:
                self.stats.suite_hits += 1
            return entry.index

    def shape_index(
        self,
        regions: "list[Region]",
        frame: GridFrame,
        max_cells_per_shape: int = 32,
        fingerprint: "str | None" = None,
    ):
        """Coarse-covering ShapeIndex over the suite (cached, see :meth:`act_index`)."""
        from repro.index.shape_index import ShapeIndex

        fingerprint = fingerprint or suite_fingerprint(regions)
        params = (int(max_cells_per_shape),)
        key = self._key("shape", fingerprint, frame, params)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                index, seconds = self._timed(
                    "suite",
                    lambda: ShapeIndex(regions, frame, max_cells_per_shape=max_cells_per_shape),
                )
                entry = _Entry(
                    index,
                    fingerprint,
                    kind="shape",
                    frame=frame,
                    params=params,
                    build_seconds=seconds,
                )
                self._entries[key] = entry
            else:
                self.stats.suite_hits += 1
            return entry.index

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def invalidate(self, fingerprint: "str | None" = None, scope: "str | None" = None) -> int:
        """Drop cached entries; returns how many were dropped.

        With ``fingerprint`` only that suite's entries go; with ``scope``
        only entries of that scope.  The updatable store passes
        ``scope="points"`` on flush / compaction: polygon-suite indexes are
        functions of the regions and frame alone, so they survive point
        mutations — a serving workload keeps its ACT cache across the whole
        ingest stream.  With neither argument the whole cache is cleared.
        Counted once per call, attributed to the point-scoped counter only
        for pure ``scope="points"`` calls.
        """
        with self._lock:
            if fingerprint is None and scope is None:
                dropped = len(self._entries)
                self._entries.clear()
            else:
                keys = [
                    key
                    for key, entry in self._entries.items()
                    if (fingerprint is None or entry.fingerprint == fingerprint)
                    and (scope is None or entry.scope == scope)
                ]
                for key in keys:
                    del self._entries[key]
                dropped = len(keys)
            if scope == "points":
                self.stats.point_invalidations += 1
            else:
                self.stats.suite_invalidations += 1
            _log.info(
                "registry invalidate: scope=%s fingerprint=%s dropped=%d",
                scope, fingerprint and fingerprint[:12], dropped,
            )
            return dropped

    def patch_suite(
        self, delta: SuiteDelta, new_regions: "list[Region]"
    ) -> dict:
        """Patch every cached entry of a mutated suite in place.

        ``delta`` describes the mutation (from :func:`~repro.api.fingerprint.
        diff_suites` or :func:`~repro.api.fingerprint.removal_delta`) and
        ``new_regions`` is the suite *after* it.  Entries whose fingerprint
        matches ``delta.old_fingerprint`` are handled one of two ways:

        * **patchable** entries — :class:`~repro.index.flat_act.FlatACT`
          indexes with a recorded rebuild recipe — get only the changed
          polygons' cell arrays rebuilt (with the entry's own frame and
          epsilon) and spliced in: replace → remove → add, then the entry is
          re-keyed under the new fingerprint;
        * everything else (shape coverings) is dropped, and
          the next lookup rebuilds it — counted as one suite invalidation.

        Returns ``{"patched": n, "dropped": n, "polygons": n, "seconds": s}``.
        A no-op delta (every fingerprint identical) touches nothing.
        """
        if delta.is_noop:
            return {"patched": 0, "dropped": 0, "polygons": 0, "seconds": 0.0}
        with self._lock:
            matching = [
                (key, entry)
                for key, entry in self._entries.items()
                if entry.fingerprint == delta.old_fingerprint
            ]
            patched = dropped = 0
            total_seconds = 0.0
            for key, entry in matching:
                if (
                    entry.kind == "act"
                    and isinstance(entry.index, FlatACT)
                    and entry.frame is not None
                ):
                    with trace.timed(
                        "registry.patch", kind=entry.kind, polygons=delta.num_changed
                    ) as patch_span:
                        self._patch_entry(entry, delta, new_regions)
                    seconds = patch_span.seconds
                    entry.fingerprint = delta.new_fingerprint
                    entry.build_seconds += seconds
                    entry.patches += 1
                    del self._entries[key]
                    new_key = self._key(
                        entry.kind, delta.new_fingerprint, entry.frame, entry.params
                    )
                    self._entries[new_key] = entry
                    patched += 1
                    total_seconds += seconds
                else:
                    del self._entries[key]
                    dropped += 1
            polygons = delta.num_changed * patched
            self.stats.patches += patched
            self.stats.patched_polygons += polygons
            self.stats.patch_seconds += total_seconds
            if dropped:
                self.stats.suite_invalidations += 1
            _log.info(
                "registry patch: patched=%d dropped=%d polygons=%d seconds=%.6f",
                patched, dropped, polygons, total_seconds,
            )
            return {
                "patched": patched,
                "dropped": dropped,
                "polygons": polygons,
                "seconds": total_seconds,
            }

    def _patch_entry(self, entry: _Entry, delta: SuiteDelta, new_regions) -> None:
        """Splice one FlatACT entry's postings per the delta (replace → remove → add)."""
        epsilon, conservative = entry.params
        index: FlatACT = entry.index
        changed = [*delta.replaced, *delta.added]
        cells_by_position: dict[int, tuple] = {}
        if changed:
            cells = get_build_engine().build_cell_arrays(
                [new_regions[position] for position in changed],
                entry.frame,
                epsilon,
                conservative=conservative,
            )
            cells_by_position = dict(zip(changed, cells))
        for position in delta.replaced:
            index.replace_polygon(position, cells_by_position[position])
        if delta.removed:
            index.remove_polygons(delta.removed)
        if delta.added:
            index.add_polygons([cells_by_position[p] for p in delta.added])

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def memory_bytes(self) -> int:
        """Footprint of every cached index."""
        with self._lock:
            return sum(int(entry.index.memory_bytes()) for entry in self._entries.values())

    def entry_summaries(self) -> list[dict]:
        """Per-entry accounting: kind, scope, patches, cumulative build seconds."""
        with self._lock:
            return [
                {
                    "kind": entry.kind,
                    "scope": entry.scope,
                    "fingerprint": entry.fingerprint,
                    "patches": entry.patches,
                    "build_seconds": entry.build_seconds,
                }
                for entry in self._entries.values()
            ]

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _key(kind: str, fingerprint: str, frame: GridFrame, params: tuple):
        frame_key = (float(frame.origin_x), float(frame.origin_y), float(frame.size))
        return (kind, fingerprint, frame_key, params)

    def _timed(self, scope: str, build):
        if scope == "points":
            self.stats.point_misses += 1
        else:
            self.stats.suite_misses += 1
        with trace.timed("registry.build", scope=scope) as build_span:
            index = build()
        seconds = build_span.seconds
        self.stats.build_seconds += seconds
        return index, seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"IndexRegistry(entries={len(self._entries)}, hits={self.stats.hits}, "
            f"misses={self.stats.misses})"
        )
