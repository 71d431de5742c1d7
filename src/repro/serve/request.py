"""Request and response shapes of the concurrent serving layer.

A :class:`ServeRequest` is one queued unit of work: what to compute (the
``kind`` plus kind-specific parameters), the coalescing ``key`` that decides
which other requests it may share a fused kernel call with, and the
``concurrent.futures.Future`` the dispatcher resolves.  A
:class:`ServeResponse` pairs the kind-specific answer with the per-request
serving telemetry (:class:`RequestTiming`) and, for store-backed datasets,
the exact :class:`~repro.store.snapshot.StoreSnapshot` the request was
pinned to at dequeue — the handle the parity tests replay solo runs against.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.query.spec import AggregationQuery

__all__ = [
    "JoinAnswer",
    "LookupAnswer",
    "RequestTiming",
    "ServeRequest",
    "ServeResponse",
    "SuiteUpdateAnswer",
]

#: Request kinds the server coalesces.  ``join`` and ``point-lookup`` fuse
#: into one concatenated kernel call; ``raster-count`` and ``range-estimate``
#: coalesce by computing one shared answer per identical parameter set.
#: ``suite-update`` never coalesces: it is a mutation fence — every request
#: ahead of it in the queue sees the old suite, every request behind it the
#: new one (and the fingerprint-carrying coalescing keys keep the two from
#: ever sharing a batch).
KINDS = ("join", "point-lookup", "raster-count", "range-estimate", "suite-update")


@dataclass(slots=True)
class ServeRequest:
    """One queued request: payload, coalescing key, completion future."""

    kind: str
    key: tuple
    suite: str
    spec: "AggregationQuery | None"
    params: dict
    future: Future
    request_id: int
    enqueued: float
    #: Probe points this request contributes to a fused call (the payload
    #: size for point lookups; 0 for the shared-probe kinds, whose points
    #: come from the dataset, not the request).
    payload_points: int = 0


@dataclass(slots=True)
class RequestTiming:
    """Per-request serving telemetry (the ``explain()`` of a served query).

    ``queue_wait_seconds`` is the time between submission and the dequeue
    that pinned the batch; ``kernel_seconds`` is the fused probe/compute
    phase shared by the whole batch; ``scatter_seconds`` is the per-batch
    cost of slicing results back to individual requests.
    """

    queue_wait_seconds: float = 0.0
    kernel_seconds: float = 0.0
    scatter_seconds: float = 0.0
    #: Requests coalesced into the batch that served this request.
    batch_requests: int = 1
    #: Total probe points of the fused kernel call.
    batch_points: int = 0
    #: Root :class:`repro.obs.trace.Span` of the batch that served this
    #: request when a tracer was active, ``None`` otherwise.  The timing
    #: fields above are views over the same measurements.
    spans: Any = None


@dataclass(slots=True)
class JoinAnswer:
    """Aggregation-join answer of one served request.

    ``aggregates`` and ``counts`` are bit-identical to the arrays a solo
    kernel run over the same snapshot / point set returns.
    """

    aggregates: np.ndarray
    counts: np.ndarray


@dataclass(slots=True)
class LookupAnswer:
    """Point-lookup answer: matching region ids per probe point, as CSR.

    ``offsets`` has one entry per point plus one; point ``i`` matched
    ``region_ids[offsets[i]:offsets[i + 1]]``.
    """

    offsets: np.ndarray
    region_ids: np.ndarray

    def matches(self, i: int) -> np.ndarray:
        """Region ids matched by probe point ``i``."""
        return self.region_ids[self.offsets[i] : self.offsets[i + 1]]

    def __len__(self) -> int:
        return int(self.offsets.shape[0] - 1)


@dataclass(slots=True)
class SuiteUpdateAnswer:
    """Result of a served suite mutation (the dataset's summary dict, typed).

    ``noop`` means every entry fingerprint matched — nothing was rebuilt and
    queries on either side of the request are indistinguishable.
    """

    suite: str
    noop: bool
    old_fingerprint: str
    new_fingerprint: str
    replaced: int = 0
    added: int = 0
    removed: int = 0
    unchanged: int = 0
    patched_entries: int = 0
    dropped_entries: int = 0


@dataclass(slots=True)
class ServeResponse:
    """One completed request: the answer plus its serving telemetry."""

    kind: str
    suite: str
    request_id: int
    result: Any
    spec: "AggregationQuery | None" = None
    #: The store snapshot the request was pinned to at dequeue (``None``
    #: for static datasets, whose point side is immutable).
    snapshot: Any = None
    timing: RequestTiming = field(default_factory=RequestTiming)

    # ------------------------------------------------------------------ #
    # convenience pass-throughs (join responses)
    # ------------------------------------------------------------------ #
    @property
    def aggregates(self) -> np.ndarray:
        return self.result.aggregates

    @property
    def counts(self) -> np.ndarray:
        return self.result.counts

    def explain(self) -> str:
        """One-line timing summary of how this request was served.

        With a tracer active at serve time, the batch's span tree follows
        on subsequent lines; the one-line summary itself is unchanged.
        """
        t = self.timing
        text = (
            f"{self.kind} over suite {self.suite!r}: "
            f"queue {t.queue_wait_seconds * 1e3:.3f}ms, "
            f"batch {t.batch_requests} request(s) / {t.batch_points:,} points, "
            f"kernel {t.kernel_seconds * 1e3:.3f}ms, "
            f"scatter {t.scatter_seconds * 1e3:.3f}ms"
        )
        if t.spans is not None:
            from repro.obs import trace

            text += "\n" + "\n".join(
                "  " + line for line in trace.render_tree(t.spans)
            )
        return text
