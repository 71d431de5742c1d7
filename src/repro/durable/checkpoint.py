"""Whole-session checkpoints: everything a restartable node needs on disk.

A :class:`~repro.api.dataset.SpatialDataset` is more than its point store —
it carries named polygon suites (with content fingerprints the index cache
keys on), an :class:`~repro.api.config.EngineConfig` and the planner knobs
(``level``, ``shards``).  :func:`save_session` persists all of it under one
directory so :func:`open_session` can bring an identical session back after
a restart — the lever that makes a :class:`~repro.serve.server.QueryServer`
node restartable (see ``examples/restartable_serving.py``).

Layout::

    session/
      session.json          # commit point: kind, level, frame, extent, config
                            # (shard workers), suite index
      suites/
        suite_0000.wkt      # one WKT geometry per line, suite order
      points.npz            # static sessions: the immutable point set
      store/                # store sessions: SpatialStore/ShardedStore.save

``session.json`` is written last, atomically (fsync'd temp file +
``os.replace`` + directory fsync, through the :mod:`repro.durable.faults`
hooks), so a crash mid-save leaves either the previous complete session or
the new one — never a torn mix.  Suite geometry is verified on load: every
suite's content fingerprint is recomputed from the parsed WKT and compared
against the stored one, so silent geometry corruption fails loudly instead
of serving wrong aggregates.

Store-backed sessions come back **durable**: the store subdirectory keeps
its WAL, an in-place re-save truncates it, and :func:`open_session` replays
whatever the crash left behind.  A save to a *foreign* directory (the
session's store lives elsewhere, or only in memory) writes a checkpoint
copy and equips it with a fresh, empty WAL so the copy is itself a
restartable durable store.

This module imports :mod:`repro.api` and is therefore loaded lazily by the
facade (``repro.durable`` does not import it at package import time).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.durable import faults
from repro.durable.wal import CommitLog, WriteAheadLog
from repro.errors import StoreError
from repro.geometry.point import PointSet
from repro.geometry.wkt import from_wkt
from repro.grid.uniform_grid import GridFrame
from repro.obs import trace

__all__ = ["SESSION_VERSION", "open_session", "save_session"]

#: Schema version written into ``session.json``.
SESSION_VERSION = 1
#: Manifest keys :func:`open_session` cannot do without.
_REQUIRED_KEYS = ("kind", "level", "frame", "extent", "suites")


def _lossless_wkt(geometry) -> str:
    """WKT with shortest-round-trip floats.

    The display serialiser (:func:`repro.geometry.wkt.to_wkt`) rounds to 6
    significant digits, which would change the suite's content fingerprint
    across a save/open cycle.  Checkpoints need ``float(repr(x)) == x``.
    """
    from repro.geometry.point import Point
    from repro.geometry.polygon import MultiPolygon, Polygon

    def ring(coords) -> str:
        parts = [f"{float(x)!r} {float(y)!r}" for x, y in coords]
        parts.append(f"{float(coords[0, 0])!r} {float(coords[0, 1])!r}")
        return "(" + ", ".join(parts) + ")"

    def body(polygon) -> str:
        rings = [ring(polygon.exterior.coords)]
        rings.extend(ring(hole.coords) for hole in polygon.holes)
        return "(" + ", ".join(rings) + ")"

    if isinstance(geometry, Point):
        return f"POINT ({float(geometry.x)!r} {float(geometry.y)!r})"
    if isinstance(geometry, Polygon):
        return "POLYGON " + body(geometry)
    if isinstance(geometry, MultiPolygon):
        return "MULTIPOLYGON (" + ", ".join(body(p) for p in geometry) + ")"
    raise StoreError(f"cannot checkpoint {type(geometry).__name__} geometry")


def _write_atomic(path: Path, data: bytes) -> None:
    """Durably write ``data`` to ``path`` via a same-directory temp file."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        faults.fsync_fileno(handle.fileno())
    faults.replace(tmp, path)
    faults.fsync_dir(path.parent)


# --------------------------------------------------------------------- #
# save
# --------------------------------------------------------------------- #
def save_session(dataset, directory, *, sync: bool = True) -> Path:
    """Checkpoint the whole session under ``directory``; see module docs.

    Returns the session directory.  Safe to call repeatedly over the same
    directory — the manifest swap is atomic and the store save is the
    store's own crash-safe checkpoint.
    """
    from repro.shard.store import ShardedStore

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with trace.span("session.save", directory=str(directory)):
        store = dataset.store
        if store is None:
            kind = "static"
            _save_points(directory / "points.npz", dataset.points())
        else:
            kind = "sharded" if isinstance(store, ShardedStore) else "store"
            _save_store(store, directory / "store", sync=sync)

        suites_dir = directory / "suites"
        suites_dir.mkdir(exist_ok=True)
        suites = []
        for pos, name in enumerate(dataset.suite_names):
            suite = dataset.suite(name)
            filename = f"suite_{pos:04d}.wkt"
            body = "".join(_lossless_wkt(region) + "\n" for region in suite.regions)
            _write_atomic(suites_dir / filename, body.encode("utf-8"))
            suites.append(
                {
                    "name": suite.name,
                    "file": f"suites/{filename}",
                    "fingerprint": suite.fingerprint,
                    "entry_fingerprints": list(suite.entry_fingerprints),
                }
            )

        manifest = {
            "format_version": SESSION_VERSION,
            "kind": kind,
            "level": dataset.level,
            "shards": dataset.shards if kind == "static" else None,
            "extent": {
                "min_x": float(dataset.extent.min_x),
                "min_y": float(dataset.extent.min_y),
                "max_x": float(dataset.extent.max_x),
                "max_y": float(dataset.extent.max_y),
            },
            "frame": {
                "origin_x": float(dataset.frame.origin_x),
                "origin_y": float(dataset.frame.origin_y),
                "size": float(dataset.frame.size),
            },
            "config": {"workers": int(dataset.config.workers)},
            "suites": suites,
        }
        _write_atomic(
            directory / "session.json",
            json.dumps(manifest, indent=2).encode("utf-8"),
        )
    return directory


def _save_points(path: Path, points: PointSet) -> None:
    """The static point side, durably (same temp-file dance as manifests)."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    arrays = {"xs": points.xs, "ys": points.ys}
    for name in points.attribute_names:
        arrays[f"attr_{name}"] = points.attribute(name)
    with open(tmp, "wb") as handle:
        np.savez(handle, **arrays)
        handle.flush()
        faults.fsync_fileno(handle.fileno())
    faults.replace(tmp, path)
    faults.fsync_dir(path.parent)


def _save_store(store, store_dir: Path, *, sync: bool) -> None:
    """Checkpoint the point store into the session.

    In-place (the store already lives at ``store_dir``) this is the store's
    own durable checkpoint — WAL / commit log truncation included.  To a
    foreign directory it writes a copy and then *resets* the copy's logs to
    a fresh empty epoch-0 state, so the copy is independently durable and a
    stale log from an earlier copy can never replay over the new manifest.
    """
    from repro.shard.store import ShardedStore

    in_place = store.directory is not None and Path(store.directory) == store_dir
    sharded = isinstance(store, ShardedStore)
    if not in_place:
        # Old logs first: a crash after this point leaves the previous
        # manifest with no log tail — a consistent (if older) checkpoint.
        if sharded:
            _reset_log_dir(store_dir / "commit")
            for pos in range(store.num_shards):
                _reset_log_dir(store_dir / f"shard{pos:02d}" / "wal")
        else:
            _reset_log_dir(store_dir / "wal")
    store.save(store_dir)
    if not in_place:
        if sharded:
            CommitLog.create(store_dir / "commit", epoch=0, sync=sync).close()
            for pos in range(store.num_shards):
                WriteAheadLog.create(
                    store_dir / f"shard{pos:02d}" / "wal", epoch=0, sync=sync
                ).close()
        else:
            WriteAheadLog.create(store_dir / "wal", epoch=0, sync=sync).close()


def _reset_log_dir(log_dir: Path) -> None:
    """Drop every segment of a previous copy's log (foreign saves only)."""
    if not log_dir.is_dir():
        return
    for segment in sorted(log_dir.glob("*.log")):
        segment.unlink()
    faults.fsync_dir(log_dir)


# --------------------------------------------------------------------- #
# open
# --------------------------------------------------------------------- #
def open_session(
    directory,
    *,
    registry=None,
    config=None,
    durable: "bool | None" = None,
    sync: bool = True,
):
    """Restore a session checkpointed with :func:`save_session`.

    ``config`` overrides the persisted :class:`EngineConfig` wholesale
    (cost model and device specs are not serialisable and always come from
    the override or the defaults).  ``durable`` / ``sync`` pass through to
    the store open — store-backed sessions replay their WALs here, and the
    dataset's ``store.last_recovery`` reports what came back.  Manifests
    that still carry ``config.engine`` / ``config.build_engine`` (written
    when the library had selectable backends) open unchanged; both keys are
    ignored.

    Raises
    ------
    StoreError
        For a missing/malformed manifest, an unsupported version, or a
        suite whose recomputed fingerprint does not match the stored one.
    """
    from repro.api.config import EngineConfig
    from repro.api.dataset import SpatialDataset
    from repro.shard.store import ShardedStore
    from repro.store.store import SpatialStore

    directory = Path(directory)
    manifest_path = directory / "session.json"
    if not manifest_path.exists():
        raise StoreError(f"no session manifest in {directory}")
    with trace.span("session.open", directory=str(directory)):
        manifest = _read_manifest(manifest_path)
        if config is None:
            config = EngineConfig(workers=manifest["workers"])

        kind = manifest["kind"]
        kwargs = {"config": config, "level": manifest["level"]}
        if kind == "static":
            source = _load_points(directory / "points.npz")
            kwargs["frame"] = manifest["frame"]
            kwargs["shards"] = manifest["shards"]
            kwargs["registry"] = registry
        elif kind == "store":
            source = SpatialStore.open(
                directory / "store", registry=registry, durable=durable, sync=sync
            )
        elif kind == "sharded":
            source = ShardedStore.open(
                directory / "store", registry=registry, durable=durable, sync=sync
            )
        else:
            raise StoreError(f"unknown session kind {kind!r}")

        dataset = SpatialDataset(source, **kwargs)
        for name, file, fingerprint in manifest["suites"]:
            dataset.add_suite(name, _load_suite(directory / file))
            restored = dataset.suite(name)
            if restored.fingerprint != fingerprint:
                raise StoreError(
                    f"suite {name!r} failed fingerprint verification "
                    f"(stored {fingerprint[:12]}…, recomputed "
                    f"{restored.fingerprint[:12]}…): geometry on disk does not "
                    "match what was checkpointed"
                )
        return dataset


def _read_manifest(path: Path) -> dict:
    """Parse ``session.json`` into the fields :func:`open_session` uses.

    Every defect — bytes that are not JSON, a missing required key, a value
    of the wrong shape — surfaces as a :class:`StoreError` naming the file.
    """
    try:
        manifest = json.loads(path.read_text())
    except (UnicodeDecodeError, ValueError) as exc:
        raise StoreError(f"malformed session manifest {path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise StoreError(f"malformed session manifest {path}: not a JSON object")
    version = manifest.get("format_version", -1)
    if version != SESSION_VERSION:
        raise StoreError(
            f"unsupported session version {version} "
            f"(this build reads version {SESSION_VERSION})"
        )
    missing = [key for key in _REQUIRED_KEYS if key not in manifest]
    if missing:
        raise StoreError(
            f"malformed session manifest {path}: missing {', '.join(missing)}"
        )
    try:
        frame = manifest["frame"]
        return {
            "kind": manifest["kind"],
            "level": int(manifest["level"]),
            "frame": GridFrame.from_raw(frame["origin_x"], frame["origin_y"], frame["size"]),
            "shards": manifest.get("shards"),
            "workers": int((manifest.get("config") or {}).get("workers", 0)),
            "suites": [
                (entry["name"], entry["file"], entry["fingerprint"])
                for entry in manifest["suites"]
            ],
        }
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise StoreError(f"malformed session manifest {path}: bad {exc!r}") from None


def _load_points(path: Path) -> PointSet:
    if not path.exists():
        raise StoreError(f"static session is missing its point set: {path}")
    with np.load(path) as data:
        attributes = {
            key[len("attr_"):]: data[key]
            for key in data.files
            if key.startswith("attr_")
        }
        return PointSet(data["xs"], data["ys"], attributes)


def _load_suite(path: Path) -> list:
    if not path.exists():
        raise StoreError(f"session is missing suite geometry: {path}")
    regions = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line:
            regions.append(from_wkt(line))
    return regions
