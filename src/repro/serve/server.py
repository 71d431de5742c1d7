"""The concurrent serving front end: micro-batched query coalescing.

Every hot path in this reproduction is batch-native — the probe kernels
classify a million points per call — yet a naive server executes queries one
at a time and leaves that throughput on the floor.  :class:`QueryServer`
applies the micro-batching trick of inference servers to the paper's
distance-bounded queries:

1. **Queue** — callers submit requests from any thread and get a
   ``concurrent.futures.Future`` back (wrap it with
   ``asyncio.wrap_future`` to await from an event loop).
2. **Coalesce** — the dispatcher groups *compatible* requests (same kind,
   suite, epsilon and point filter) within a bounded window:
   at most ``max_batch`` requests, closed early after ``max_wait_ms``.
3. **Kernel** — the batch executes as **one** fused kernel call
   (:mod:`repro.serve.fused`): join batches share a single probe pass over
   the point source, lookup batches concatenate their probe coordinates.
4. **Scatter** — per-request results are sliced back by request id and the
   futures resolve, each with per-request timing telemetry.

**Isolation.**  On a store-backed dataset every batch pins one
:meth:`~repro.store.store.SpatialStore.snapshot` at dequeue; responses carry
it, and each answer is bit-identical — floats included — to running that
request alone against the pinned snapshot.  Reads therefore never block
streaming ingest, and ingest never smears a response across store states.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import QueryError
from repro.geometry.point import PointSet
from repro.obs import trace
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.query.spec import AggregationQuery
from repro.serve.fused import fused_act_join, fused_lookup
from repro.serve.request import (
    RequestTiming,
    ServeRequest,
    ServeResponse,
    SuiteUpdateAnswer,
)

__all__ = ["QueryServer", "ServerStats", "StatsSnapshot"]

_log = get_logger("serve")


@dataclass(slots=True)
class ServerStats:
    """Mutable lifetime counters of one :class:`QueryServer`.

    Internal: the dispatcher mutates this under the server lock; callers
    read through :attr:`QueryServer.stats`, which returns an internally
    consistent frozen :class:`StatsSnapshot` instead of this live object.
    """

    requests: int = 0
    responses: int = 0
    batches: int = 0
    #: Requests that shared their batch with at least one other request.
    fused_requests: int = 0
    errors: int = 0
    max_batch_requests: int = 0
    kernel_seconds: float = 0.0
    queue_wait_seconds: float = 0.0

    @property
    def mean_batch_requests(self) -> float:
        """Average coalesced batch size (1.0 means no coalescing happened)."""
        return self.responses / self.batches if self.batches else 0.0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "responses": self.responses,
            "batches": self.batches,
            "fused_requests": self.fused_requests,
            "errors": self.errors,
            "max_batch_requests": self.max_batch_requests,
            "mean_batch_requests": self.mean_batch_requests,
            "kernel_seconds": self.kernel_seconds,
            "queue_wait_seconds": self.queue_wait_seconds,
        }


class StatsSnapshot:
    """A frozen, internally consistent copy of a server's telemetry.

    Taken atomically under the server lock, so no field can reflect a
    half-applied batch.  Reads like the old live counters
    (``snapshot.batches``), and calling it returns itself, so both
    ``server.stats.batches`` and ``server.stats().as_dict()`` work.
    """

    __slots__ = ("_data",)

    def __init__(self, data: dict) -> None:
        object.__setattr__(self, "_data", dict(data))

    def __getattr__(self, name: str):
        try:
            return self._data[name]
        except KeyError:
            raise AttributeError(name) from None

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("StatsSnapshot is frozen")

    def __call__(self) -> "StatsSnapshot":
        return self

    def as_dict(self) -> dict:
        return dict(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"StatsSnapshot(requests={self._data.get('requests')}, "
            f"responses={self._data.get('responses')}, "
            f"batches={self._data.get('batches')})"
        )


class QueryServer:
    """Micro-batching request server over one :class:`~repro.api.SpatialDataset`.

    Parameters
    ----------
    dataset:
        The dataset to serve.  Store-backed datasets get snapshot-per-batch
        isolation; static datasets are immutable and need none.
    max_batch:
        Most requests coalesced into one fused kernel call.  ``1`` disables
        coalescing entirely (one-at-a-time serial dispatch — the baseline
        the serving benchmark measures against).
    max_wait_ms:
        Bound on how long the dispatcher holds an open batch waiting for
        more compatible requests, counted from the *first* request's
        arrival.  Requests queued while a batch executes coalesce without
        waiting at all, so under load the effective added latency is far
        below this bound.
    max_batch_points:
        Cap on the concatenated probe points of one point-lookup batch
        (join batches share the dataset's points and are unaffected).
    stats_interval_seconds:
        When set, a daemon timer thread snapshots :attr:`stats` every
        interval and hands the frozen snapshot to ``stats_hook``.
    stats_hook:
        Callable receiving each periodic :class:`StatsSnapshot`.  Defaults
        to logging one summary line on the ``repro.serve`` logger.

    Use as a context manager, or call :meth:`start` / :meth:`close`::

        with dataset.serve(max_batch=32, max_wait_ms=2.0) as server:
            future = server.submit_join("neighborhoods", epsilon=4.0)
            response = future.result()
            print(response.counts, response.explain())
    """

    def __init__(
        self,
        dataset,
        *,
        max_batch: int = 64,
        max_wait_ms: float = 2.0,
        max_batch_points: int = 1 << 20,
        stats_interval_seconds: "float | None" = None,
        stats_hook=None,
    ) -> None:
        if max_batch < 1:
            raise QueryError("max_batch must be at least 1")
        if max_wait_ms < 0:
            raise QueryError("max_wait_ms must be non-negative")
        if stats_interval_seconds is not None and stats_interval_seconds <= 0:
            raise QueryError("stats_interval_seconds must be positive")
        self.dataset = dataset
        self.max_batch = int(max_batch)
        self.max_wait_seconds = float(max_wait_ms) / 1e3
        self.max_batch_points = int(max_batch_points)
        self._stats = ServerStats()
        self.metrics = MetricsRegistry()
        self._queue: deque[ServeRequest] = deque()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self._thread: "threading.Thread | None" = None
        self._next_request_id = 0
        self._started_at: "float | None" = None
        self._stats_interval = stats_interval_seconds
        self._stats_hook = stats_hook
        self._stats_stop = threading.Event()
        self._stats_thread: "threading.Thread | None" = None

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> StatsSnapshot:
        """Frozen, atomically taken copy of every serving counter.

        The dispatcher mutates its counters under the server lock; this
        snapshot is taken under the same lock, so the fields are mutually
        consistent (``responses`` can never be ahead of ``batches``).  The
        snapshot also folds in the histogram quantiles (latency, batch
        occupancy), the dataset's registry counters and the store's flush and
        compaction counters.
        """
        with self._lock:
            data = self._stats.as_dict()
            metrics = self.metrics.as_dict()
            uptime = (
                trace.now() - self._started_at if self._started_at is not None else 0.0
            )
        latency = metrics.get("latency_seconds", {})
        occupancy = metrics.get("batch_requests", {})
        data["uptime_seconds"] = uptime
        data["qps"] = data["responses"] / uptime if uptime > 0 else 0.0
        data["latency_p50_ms"] = latency.get("p50", 0.0) * 1e3
        data["latency_p99_ms"] = latency.get("p99", 0.0) * 1e3
        data["batch_occupancy_mean"] = occupancy.get("mean", 0.0)
        data["histograms"] = metrics
        data["registry"] = self.dataset.registry.stats.as_dict()
        store = self.dataset.store
        data["store"] = store.stats.as_dict() if store is not None else None
        return StatsSnapshot(data)

    def _stats_loop(self) -> None:
        while not self._stats_stop.wait(self._stats_interval):
            snapshot = self.stats
            if self._stats_hook is not None:
                self._stats_hook(snapshot)
            else:
                _log.info(
                    "server stats: requests=%d responses=%d batches=%d "
                    "qps=%.1f latency_p50_ms=%.3f latency_p99_ms=%.3f "
                    "batch_occupancy_mean=%.2f",
                    snapshot.requests,
                    snapshot.responses,
                    snapshot.batches,
                    snapshot.qps,
                    snapshot.latency_p50_ms,
                    snapshot.latency_p99_ms,
                    snapshot.batch_occupancy_mean,
                )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "QueryServer":
        """Start the dispatcher thread (idempotent); returns ``self``.

        Requests submitted before :meth:`start` stay queued and coalesce
        as soon as the dispatcher runs — the parity tests use this to form
        deterministic batches.
        """
        if self._thread is None:
            self._started_at = trace.now()
            self._thread = threading.Thread(
                target=self._dispatch_loop, name="repro-query-server", daemon=True
            )
            self._thread.start()
            _log.info(
                "server start: max_batch=%d max_wait_ms=%g",
                self.max_batch,
                self.max_wait_seconds * 1e3,
            )
            if self._stats_interval is not None:
                self._stats_thread = threading.Thread(
                    target=self._stats_loop, name="repro-server-stats", daemon=True
                )
                self._stats_thread.start()
        return self

    def close(self) -> None:
        """Drain the queue, resolve every pending future, stop dispatching."""
        with self._wakeup:
            self._closed = True
            self._wakeup.notify_all()
        if self._thread is not None:
            self._thread.join()
        if self._stats_thread is not None:
            self._stats_stop.set()
            self._stats_thread.join()
            self._stats_thread = None
        _log.info(
            "server close: responses=%d batches=%d errors=%d",
            self._stats.responses,
            self._stats.batches,
            self._stats.errors,
        )

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit_join(
        self,
        suite: "str | None" = None,
        *,
        epsilon: "float | None" = None,
        spec: AggregationQuery | None = None,
    ) -> Future:
        """Queue an ACT aggregation join; returns a future of :class:`ServeResponse`.

        Joins over the same suite, epsilon and point filter
        coalesce into one shared probe pass — aggregate function and
        attribute may differ freely within a batch.
        """
        spec = spec or AggregationQuery(epsilon=epsilon if epsilon is not None else 4.0)
        if epsilon is not None and spec.epsilon != epsilon:
            spec = replace(spec, epsilon=epsilon)
        if spec.epsilon is None:
            raise QueryError("served joins run the ACT strategy and need an epsilon")
        target = self.dataset._resolve_suite(spec, suite)
        key = (
            "join",
            target.name,
            target.fingerprint,
            float(spec.epsilon),
            id(spec.point_filter) if spec.point_filter is not None else None,
        )
        return self._enqueue("join", key, target.name, spec, {"epsilon": float(spec.epsilon)})

    def submit_lookup(
        self,
        xs,
        ys,
        suite: "str | None" = None,
        *,
        epsilon: float = 4.0,
    ) -> Future:
        """Queue a point lookup: which suite regions match each ``(x, y)``.

        Compatible lookups concatenate into one probe call; the response's
        :class:`~repro.serve.request.LookupAnswer` slice is bit-identical
        to probing this block alone.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise QueryError("lookup coordinates must be two equal-length 1-D arrays")
        target = self.dataset._resolve_suite(None, suite)
        key = ("point-lookup", target.name, target.fingerprint, float(epsilon))
        return self._enqueue(
            "point-lookup",
            key,
            target.name,
            None,
            {"epsilon": float(epsilon), "xs": xs, "ys": ys},
            payload_points=int(xs.shape[0]),
        )

    def submit_raster_count(
        self,
        suite: "str | None" = None,
        *,
        cells_per_polygon: int,
        conservative: bool = True,
    ) -> Future:
        """Queue a per-region raster count over the code index.

        Identically-parameterised requests coalesce into one computation
        whose counts every request in the batch shares.
        """
        target = self.dataset._resolve_suite(None, suite)
        key = (
            "raster-count",
            target.name,
            target.fingerprint,
            int(cells_per_polygon),
            bool(conservative),
        )
        return self._enqueue(
            "raster-count",
            key,
            target.name,
            None,
            {"cells_per_polygon": int(cells_per_polygon), "conservative": bool(conservative)},
        )

    def submit_estimate(
        self,
        suite: "str | None" = None,
        *,
        epsilon: float,
    ) -> Future:
        """Queue a result-range estimation (certain COUNT intervals per region)."""
        target = self.dataset._resolve_suite(None, suite)
        key = ("range-estimate", target.name, target.fingerprint, float(epsilon))
        return self._enqueue(
            "range-estimate", key, target.name, None, {"epsilon": float(epsilon)}
        )

    def submit_suite_update(self, suite: str, regions) -> Future:
        """Queue a live suite mutation, strictly ordered against queries.

        The new geometry replaces the named suite via the dataset's
        delta-only path (:meth:`~repro.api.SpatialDataset.apply_suite`):
        unchanged polygons are fingerprint-skipped, changed ones are patched
        into every cached index.  The request acts as a **fence** in the
        queue — queries submitted before it are answered against the old
        suite, queries after it against the new one, and the
        fingerprint-carrying coalescing keys guarantee the two sides never
        share a fused batch.  The response's result is a
        :class:`~repro.serve.request.SuiteUpdateAnswer`.
        """
        target = self.dataset.suite(suite)
        # A unique key: mutations never coalesce with anything, including
        # each other — each runs alone, in queue order.
        key = ("suite-update", target.name, object())
        return self._enqueue(
            "suite-update", key, target.name, None, {"regions": list(regions)}
        )

    # Blocking conveniences: submit + wait.
    def update_suite(self, suite: str, regions) -> ServeResponse:
        return self.submit_suite_update(suite, regions).result()

    def join(self, suite=None, **kwargs) -> ServeResponse:
        return self.submit_join(suite, **kwargs).result()

    def lookup(self, xs, ys, suite=None, **kwargs) -> ServeResponse:
        return self.submit_lookup(xs, ys, suite, **kwargs).result()

    def raster_count(self, suite=None, **kwargs) -> ServeResponse:
        return self.submit_raster_count(suite, **kwargs).result()

    def estimate(self, suite=None, **kwargs) -> ServeResponse:
        return self.submit_estimate(suite, **kwargs).result()

    def _enqueue(self, kind, key, suite, spec, params, payload_points=0) -> Future:
        with self._wakeup:
            if self._closed:
                raise QueryError("the query server is closed")
            request = ServeRequest(
                kind=kind,
                key=key,
                suite=suite,
                spec=spec,
                params=params,
                future=Future(),
                request_id=self._next_request_id,
                enqueued=trace.now(),
                payload_points=payload_points,
            )
            self._next_request_id += 1
            self._queue.append(request)
            self._stats.requests += 1
            self._wakeup.notify_all()
            return request.future

    # ------------------------------------------------------------------ #
    # dispatcher
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            self._run_batch(batch)

    def _next_batch(self) -> "list[ServeRequest] | None":
        """Dequeue the head request plus every compatible one in the window."""
        with self._wakeup:
            while not self._queue:
                if self._closed:
                    return None
                self._wakeup.wait()
            head = self._queue.popleft()
            batch = [head]
            if head.kind == "suite-update":
                # Mutations dispatch immediately and alone: no batching
                # window, nothing coalesces with them, and everything queued
                # behind them waits until the patch lands.
                return batch
            payload = head.payload_points
            deadline = head.enqueued + self.max_wait_seconds
            while len(batch) < self.max_batch:
                payload = self._take_compatible(batch, head.key, payload)
                if len(batch) >= self.max_batch or self._closed:
                    break
                remaining = deadline - trace.now()
                if remaining <= 0:
                    break
                self._wakeup.wait(remaining)
            return batch

    def _take_compatible(self, batch, key, payload: int) -> int:
        """Move queued requests matching ``key`` into ``batch`` (order kept)."""
        kept: deque[ServeRequest] = deque()
        while self._queue and len(batch) < self.max_batch:
            request = self._queue.popleft()
            if request.kind == "suite-update":
                # A queued mutation is a fence: nothing submitted behind it
                # may jump ahead of it into this batch, even with a
                # compatible key (its key was computed pre-mutation).
                kept.append(request)
                break
            if (
                request.key == key
                and payload + request.payload_points <= self.max_batch_points
            ):
                batch.append(request)
                payload += request.payload_points
            else:
                kept.append(request)
        kept.extend(self._queue)
        self._queue = kept
        return payload

    def _run_batch(self, batch) -> None:
        dequeued = trace.now()
        with trace.span(
            "serve.batch", kind=batch[0].kind, requests=len(batch)
        ) as batch_span:
            store = self.dataset.store
            # Snapshot-per-batch isolation, pinned at dequeue: every request
            # in the batch answers from this exact store state, no matter how
            # much the store ingests, flushes or compacts while the kernel
            # runs.
            snapshot = store.snapshot() if store is not None else None
            try:
                handler = self._HANDLERS[batch[0].kind]
                results, batch_points, kernel_seconds, scatter_seconds = handler(
                    self, batch, snapshot
                )
            except BaseException as exc:  # noqa: BLE001 - forwarded to futures
                # Counter mutations stay under the server lock so a stats
                # snapshot never observes a half-applied batch.
                with self._lock:
                    self._stats.errors += len(batch)
                    self._stats.batches += 1
                _log.warning(
                    "batch failed: kind=%s requests=%d error=%r",
                    batch[0].kind,
                    len(batch),
                    exc,
                )
                for request in batch:
                    request.future.set_exception(exc)
                return
            resolved = trace.now()
            with self._lock:
                self._stats.batches += 1
                self._stats.responses += len(batch)
                self._stats.kernel_seconds += kernel_seconds
                self._stats.max_batch_requests = max(
                    self._stats.max_batch_requests, len(batch)
                )
                if len(batch) > 1:
                    self._stats.fused_requests += len(batch)
                for request in batch:
                    self._stats.queue_wait_seconds += dequeued - request.enqueued
                self.metrics.histogram("kernel_seconds").observe(kernel_seconds)
                self.metrics.histogram("scatter_seconds").observe(scatter_seconds)
                self.metrics.histogram("batch_requests").observe(float(len(batch)))
                queue_hist = self.metrics.histogram("queue_wait_seconds")
                latency_hist = self.metrics.histogram("latency_seconds")
                for request in batch:
                    queue_hist.observe(dequeued - request.enqueued)
                    latency_hist.observe(resolved - request.enqueued)
            tracing = trace.enabled()
            for request, result in zip(batch, results):
                wait = dequeued - request.enqueued
                request.future.set_result(
                    ServeResponse(
                        kind=request.kind,
                        suite=request.suite,
                        request_id=request.request_id,
                        result=result,
                        spec=request.spec,
                        snapshot=snapshot,
                        timing=RequestTiming(
                            queue_wait_seconds=wait,
                            kernel_seconds=kernel_seconds,
                            scatter_seconds=scatter_seconds,
                            batch_requests=len(batch),
                            batch_points=batch_points,
                            spans=batch_span if tracing else None,
                        ),
                    )
                )

    # ------------------------------------------------------------------ #
    # batch handlers (one fused call each)
    # ------------------------------------------------------------------ #
    def _segments(self, snapshot) -> "list[tuple[np.ndarray, PointSet]]":
        """Probe-ready ``(global_ids, points)`` segments of the point source."""
        if snapshot is None:
            points = self.dataset.points()
            return [(np.arange(len(points), dtype=np.int64), points)]
        if hasattr(snapshot, "_segments"):
            return [
                (ids, PointSet(xs, ys, values))
                for ids, xs, ys, values in snapshot._segments()
            ]
        # ShardedSnapshot: global ids make segment order irrelevant to the
        # ascending-id merge, so a flat fan-out keeps bit parity.
        return [
            (seg.ids, PointSet(seg.xs, seg.ys, seg.values))
            for shard in snapshot.segments()
            for seg in shard
        ]

    def _act_index(self, request, snapshot) -> "tuple[object, object]":
        suite = self.dataset.suite(request.suite)
        trie = self.dataset.registry.act_index(
            list(suite.regions),
            self.dataset.frame,
            epsilon=request.params["epsilon"],
            fingerprint=suite.fingerprint,
        )
        return suite, trie

    def _serve_join(self, batch, snapshot):
        suite, trie = self._act_index(batch[0], snapshot)
        with trace.timed(
            "batch.kernel", kind="join", requests=len(batch)
        ) as kernel_span:
            answers, probes, probe_seconds = fused_act_join(
                self._segments(snapshot),
                len(suite.regions),
                trie,
                [request.spec for request in batch],
            )
        scatter = max(kernel_span.seconds - probe_seconds, 0.0)
        return answers, probes, probe_seconds, scatter

    def _serve_point_lookup(self, batch, snapshot):
        _, trie = self._act_index(batch[0], snapshot)
        with trace.timed(
            "batch.kernel", kind="point-lookup", requests=len(batch)
        ) as kernel_span:
            answers, probes, probe_seconds = fused_lookup(
                trie,
                [(request.params["xs"], request.params["ys"]) for request in batch],
            )
        scatter = max(kernel_span.seconds - probe_seconds, 0.0)
        return answers, probes, probe_seconds, scatter

    def _serve_raster_count(self, batch, snapshot):
        head = batch[0]
        suite = self.dataset.suite(head.suite)
        cells = head.params["cells_per_polygon"]
        conservative = head.params["conservative"]
        with trace.timed(
            "batch.kernel", kind="raster-count", requests=len(batch)
        ) as kernel_span:
            if snapshot is None:
                counts = self.dataset.raster_count(
                    head.suite, cells_per_polygon=cells, conservative=conservative
                )
            else:
                counts = np.array(
                    [
                        snapshot.raster_count(region, cells, conservative=conservative)
                        for region in suite.regions
                    ],
                    dtype=np.int64,
                )
        # One shared computation answers the whole batch (copies, so no
        # response aliases another's array).
        return [counts.copy() for _ in batch], 0, kernel_span.seconds, 0.0

    def _serve_range_estimate(self, batch, snapshot):
        head = batch[0]
        suite = self.dataset.suite(head.suite)
        epsilon = head.params["epsilon"]
        with trace.timed(
            "batch.kernel", kind="range-estimate", requests=len(batch)
        ) as kernel_span:
            if snapshot is None:
                estimates = self.dataset.estimate(head.suite, epsilon=epsilon)
            else:
                estimates = [
                    snapshot.estimate_count_range(region, epsilon)
                    for region in suite.regions
                ]
        return [list(estimates) for _ in batch], 0, kernel_span.seconds, 0.0

    def _serve_suite_update(self, batch, snapshot):
        # Singleton by construction (_next_batch dispatches mutations alone);
        # runs in the dispatcher thread, so it is strictly serialised between
        # the batch that preceded it and the one that follows.
        request = batch[0]
        _log.info("suite-update fence begin: suite=%s", request.suite)
        with trace.timed(
            "batch.kernel", kind="suite-update", requests=1
        ) as kernel_span:
            summary = self.dataset.apply_suite(request.suite, request.params["regions"])
        _log.info(
            "suite-update fence end: suite=%s noop=%s replaced=%d added=%d "
            "removed=%d patched_entries=%d seconds=%.6f",
            request.suite,
            summary["noop"],
            summary["replaced"],
            summary["added"],
            summary["removed"],
            summary["patched_entries"],
            kernel_span.seconds,
        )
        answer = SuiteUpdateAnswer(
            suite=summary["suite"],
            noop=summary["noop"],
            old_fingerprint=summary["old_fingerprint"],
            new_fingerprint=summary["new_fingerprint"],
            replaced=summary["replaced"],
            added=summary["added"],
            removed=summary["removed"],
            unchanged=summary["unchanged"],
            patched_entries=summary["patched_entries"],
            dropped_entries=summary["dropped_entries"],
        )
        return [answer], 0, kernel_span.seconds, 0.0

    _HANDLERS = {
        "join": _serve_join,
        "point-lookup": _serve_point_lookup,
        "raster-count": _serve_raster_count,
        "range-estimate": _serve_range_estimate,
        "suite-update": _serve_suite_update,
    }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "closed" if self._closed else ("running" if self._thread else "idle")
        return (
            f"QueryServer(max_batch={self.max_batch}, "
            f"max_wait_ms={self.max_wait_seconds * 1e3:g}, {state})"
        )
