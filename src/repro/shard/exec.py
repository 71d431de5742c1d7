"""Scatter-gather executors: serial fan-out and a persistent process pool.

The gather layer (:mod:`repro.shard.gather`) is executor-agnostic: it hands
an executor the resolved ACT index plus one coordinate block per shard and
gets back per-shard CSR probe results and per-shard probe seconds.  Two
implementations exist:

* :class:`SerialExecutor` — probes every shard in-process, in shard order.
  This is the default: deterministic, zero startup cost, and what parity
  tests and CI run.
* :class:`PoolExecutor` — a persistent ``ProcessPoolExecutor``.  The index
  is published **once** per (index, pool) pair through
  :mod:`repro.shard.shm` — its :meth:`~repro.index.FlatACT.state_arrays`
  are already flat buffers, so workers attach and reshape instead of
  unpickling — and each task ships only a shard's coordinate block (also
  via shared memory) plus two small manifests.  Workers keep an attached
  index cache across tasks, so a query fans out K tasks that all reuse the
  same mapped CSR buffers.

Both return **identical bits**: the probe kernels are deterministic
functions of (index arrays, coordinate arrays), and shared memory transports
both byte-exactly.  The pool prefers the ``fork`` start method (no module
re-import, instant startup) and falls back to ``spawn`` where fork is
unavailable.

Executors are processwide singletons — :func:`get_executor` hands out one
serial executor and one pool per worker count, torn down at interpreter
exit (:func:`shutdown_executors`).
"""

from __future__ import annotations

import atexit
import multiprocessing
import weakref
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.errors import QueryError
from repro.obs import trace
from repro.shard.shm import ShmBlock, attach_arrays, pack_arrays

__all__ = ["SerialExecutor", "PoolExecutor", "get_executor", "shutdown_executors"]

_EMPTY_CSR = (np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64))


class SerialExecutor:
    """In-process fan-out: probe shards one after another (the default)."""

    name = "serial"
    workers = 0

    def probe_act(self, trie, shard_coords):
        """Probe each shard's ``(xs, ys)`` block against one ACT index.

        Returns ``(results, seconds)``: per shard a CSR ``(offsets,
        polygon_ids)`` pair and the probe wall seconds.
        """
        results = []
        seconds = []
        for i, (xs, ys) in enumerate(shard_coords):
            with trace.timed("shard.probe", shard=i, points=int(xs.shape[0])) as shard_span:
                if xs.shape[0] == 0:
                    results.append(_EMPTY_CSR)
                else:
                    results.append(trie.lookup_points_batch(xs, ys))
            seconds.append(shard_span.seconds)
        return results, seconds

    def close(self) -> None:  # symmetric with PoolExecutor
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "SerialExecutor()"


# --------------------------------------------------------------------------- #
# pool workers (module-level so they pickle under spawn as well as fork)
# --------------------------------------------------------------------------- #

#: Worker-side caches.  An index arrives as a *tuple* of segment manifests
#: (control + base + delta segments — see :meth:`FlatACT.state_parts`);
#: attached blocks are cached per segment name and reconstructed indexes per
#: manifest tuple, so a patched index re-attaches only its changed segments
#: while the heavyweight base CSR block stays mapped.  Small caps: a worker
#: typically sees one live index, plus stragglers during registry turnover.
_WORKER_BLOCK_CACHE: dict = {}
_WORKER_TRIE_CACHE: dict = {}
_WORKER_TRIE_CACHE_MAX = 4


def _worker_attached_trie(trie_manifests, untrack):
    from repro.index.flat_act import FlatACT

    key = tuple(manifest[0] for manifest in trie_manifests)
    trie = _WORKER_TRIE_CACHE.get(key)
    if trie is None:
        merged = {}
        for manifest in trie_manifests:
            name = manifest[0]
            block = _WORKER_BLOCK_CACHE.get(name)
            if block is None:
                block = attach_arrays(manifest, untrack=untrack)
                _WORKER_BLOCK_CACHE[name] = block
            merged.update(block.arrays)
        trie = FlatACT.from_state_arrays(merged)
        while len(_WORKER_TRIE_CACHE) >= _WORKER_TRIE_CACHE_MAX:
            old_key = next(iter(_WORKER_TRIE_CACHE))
            del _WORKER_TRIE_CACHE[old_key]
        _WORKER_TRIE_CACHE[key] = trie
        # Close blocks no cached index references any more (the evicted
        # index's segments, minus any the survivors still share).
        live = {name for cached in _WORKER_TRIE_CACHE for name in cached}
        for name in [n for n in _WORKER_BLOCK_CACHE if n not in live]:
            _WORKER_BLOCK_CACHE.pop(name).close()
    return trie


def _worker_probe_act(trie_manifests, coords_manifest, untrack, collect_spans=False):
    """Pool task: attach index + coordinates, probe, return CSR copies.

    The returned arrays are materialised copies (they leave shared memory
    through the result pipe); the coordinate block is closed per task, the
    index blocks stay cached.  ``untrack`` is true for spawned workers,
    whose private resource tracker must not adopt the parent's segments.
    With ``collect_spans`` the envelope's last slot carries the worker-side
    span payload (:func:`repro.obs.trace.span_to_dict`); the parent grafts
    it under its local per-shard span, rebased onto the parent clock.
    """
    trie = _worker_attached_trie(trie_manifests, untrack)
    coords = attach_arrays(coords_manifest, untrack=untrack)
    try:
        with trace.timed("worker.probe_act", points=int(coords["xs"].shape[0])) as probe_span:
            offsets, pids = trie.lookup_points_batch(coords["xs"], coords["ys"])
        payload = trace.span_to_dict(probe_span) if collect_spans else None
        return (
            np.array(offsets, dtype=np.int64),
            np.array(pids, dtype=np.int64),
            probe_span.seconds,
            payload,
        )
    finally:
        coords.close()


class PoolExecutor:
    """Persistent process pool probing shards in parallel over shared memory."""

    name = "pool"

    def __init__(self, workers: int, start_method: str | None = None) -> None:
        if workers < 2:
            raise QueryError("a pool executor needs at least 2 workers")
        self.workers = workers
        methods = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else "spawn"
        context = multiprocessing.get_context(start_method)
        self.start_method = start_method
        self._pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        #: Published index segments, keyed by the index's per-segment
        #: generation tokens (:meth:`FlatACT.state_parts`).  A token is
        #: minted once per segment content and never reused, so a cached
        #: block can never be stale: patching an index in place moves the
        #: tokens of exactly the changed segments, and only those get
        #: re-packed — the base CSR ships once and survives every patch.
        self._published: dict[str, ShmBlock] = {}
        self._published_max = 16
        #: Lifetime shared-memory publish accounting: bytes/segments actually
        #: packed (cache hits ship nothing).  The serving layer reports these.
        self.published_bytes = 0
        self.published_segments = 0
        # Shuts the pool down and unlinks every published segment when the
        # executor is garbage collected or the interpreter exits, even if
        # close() is never called.  The callback holds the pool and the
        # (shared, mutated in place) published dict, never self.
        self._finalizer = weakref.finalize(
            self, PoolExecutor._release, self._pool, self._published
        )

    @staticmethod
    def _release(pool: ProcessPoolExecutor, published: dict) -> None:
        pool.shutdown(wait=True)
        for block in published.values():
            block.unlink()
        published.clear()

    def _publish(self, trie) -> tuple:
        """Ship the index's segments, reusing every already-published one.

        Returns the tuple of per-segment shm manifests the worker needs to
        reassemble the index.  Only segments whose generation token is new
        are packed; on a patched index that is the small control part plus
        the latest delta run, never the base CSR.
        """
        flat = trie.flattened()
        parts = flat.state_parts()
        current = {token for token, _ in parts}
        manifests = []
        for token, arrays in parts:
            block = self._published.get(token)
            if block is None:
                while len(self._published) >= self._published_max:
                    stale = next(
                        (t for t in self._published if t not in current), None
                    )
                    if stale is None:
                        break
                    self._published.pop(stale).unlink()
                with trace.span("pool.publish", token=token) as publish_span:
                    block = pack_arrays(arrays, name_hint="repro_act")
                self._published[token] = block
                nbytes = int(sum(array.nbytes for array in arrays.values()))
                self.published_bytes += nbytes
                self.published_segments += 1
                publish_span.annotate(bytes=nbytes)
            manifests.append(block.manifest)
        return tuple(manifests)

    def probe_act(self, trie, shard_coords):
        """Parallel twin of :meth:`SerialExecutor.probe_act` (same contract)."""
        tracing = trace.enabled()
        trie_manifests = self._publish(trie)
        futures = {}
        dispatched = {}
        coord_blocks = []
        results = [_EMPTY_CSR] * len(shard_coords)
        seconds = [0.0] * len(shard_coords)
        try:
            for i, (xs, ys) in enumerate(shard_coords):
                if xs.shape[0] == 0:
                    continue  # nothing to ship for an empty shard
                block = pack_arrays({"xs": xs, "ys": ys}, name_hint="repro_pts")
                coord_blocks.append(block)
                futures[i] = self._pool.submit(
                    _worker_probe_act,
                    trie_manifests,
                    block.manifest,
                    self.start_method != "fork",
                    tracing,
                )
                dispatched[i] = trace.now()
            for i, future in futures.items():
                offsets, pids, elapsed, payload = future.result()
                results[i] = (offsets, pids)
                seconds[i] = elapsed
                if tracing and payload is not None:
                    # A local span covering dispatch -> result, with the
                    # worker-side probe span grafted in (rebased to the
                    # parent clock at dispatch time).
                    local = trace.Span("shard.probe", {"shard": i, "pool": True})
                    local.start = dispatched[i]
                    local.end = trace.now()
                    tracer = trace.active()
                    if tracer is not None:
                        tracer.attach(payload, parent=local, rebase_to=local.start)
                        trace.add_finished(local)
        finally:
            for block in coord_blocks:
                block.unlink()
        return results, seconds

    def close(self) -> None:
        """Tear down the pool and release every published segment (idempotent)."""
        self._finalizer()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PoolExecutor(workers={self.workers}, start_method={self.start_method!r})"


# --------------------------------------------------------------------------- #
# executor registry
# --------------------------------------------------------------------------- #
_SERIAL = SerialExecutor()
_POOLS: dict[int, PoolExecutor] = {}


def get_executor(workers=None):
    """Resolve a worker count to a shared executor.

    ``None``/``0``/``1`` → the serial executor; ``K >= 2`` → a persistent
    ``K``-worker pool, created on first use and reused across queries.  An
    executor instance passes through unchanged.
    """
    if workers is None or workers in (0, 1):
        return _SERIAL
    if isinstance(workers, (SerialExecutor, PoolExecutor)):
        return workers
    workers = int(workers)
    if workers < 0:
        raise QueryError(f"invalid worker count {workers}")
    pool = _POOLS.get(workers)
    if pool is None:
        pool = PoolExecutor(workers)
        _POOLS[workers] = pool
    return pool


def shutdown_executors() -> None:
    """Close every cached pool and unlink its shared-memory segments."""
    for pool in _POOLS.values():
        pool.close()
    _POOLS.clear()


atexit.register(shutdown_executors)
