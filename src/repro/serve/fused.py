"""Fused batch kernels: one kernel call serving a whole request batch.

The serving layer's throughput comes from two coalescing shapes:

* :func:`fused_act_join` — N concurrent aggregation-join requests over the
  *same* point source, suite, epsilon and point filter share one probe
  pass.  The probe is the expensive half (it walks every live point
  through the ACT index); the per-request half is one ``np.add.at`` scatter
  over the shared match pairs with that request's value column.  Because
  the shared pairs are merged into ascending global-id order exactly as
  :meth:`~repro.store.snapshot.StoreSnapshot.act_join` does, every
  request's aggregates are **bit-identical** to running it alone against
  the same snapshot.
* :func:`fused_lookup` — N point-lookup requests concatenate their probe
  coordinates into one block, probe once, and slice the CSR result back
  per request.  The batch probe is a per-point function, so each slice
  equals the solo probe of that request's block, bit for bit.

Both probe through a :mod:`repro.shard.exec` executor, so a server with
``workers >= 2`` ships the batch to the persistent shared-memory process
pool (publish-once FlatACT CSR buffers, per-batch coordinate blocks) and
the fused call runs off the dispatcher thread.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QueryError
from repro.geometry.point import PointSet
from repro.obs import trace
from repro.serve.request import JoinAnswer, LookupAnswer
from repro.shard.exec import get_executor

__all__ = ["fused_act_join", "fused_lookup"]


def fused_act_join(
    segments,
    num_regions: int,
    trie,
    specs,
    executor=None,
) -> "tuple[list[JoinAnswer], int, float]":
    """One shared probe pass answering every join spec in the batch.

    ``segments`` is a list of ``(global_ids, PointSet)`` pairs in the
    canonical segment order of the point source (runs first, memtable last
    for a snapshot; one segment for a static set).  All ``specs`` must
    share one ``point_filter`` (the server's coalescing key guarantees it);
    aggregate function and attribute may differ freely — they only shape
    the per-request scatter, never the probe.

    Returns ``(answers, probed_points, probe_seconds)`` with one
    :class:`JoinAnswer` per spec, in spec order.
    """
    executor = get_executor(executor)
    base = specs[0]

    filtered: list[tuple[np.ndarray, PointSet]] = []
    for ids, points in segments:
        if base.point_filter is not None:
            mask = np.asarray(base.point_filter(points), dtype=bool)
            if mask.shape[0] != len(points):
                raise QueryError("point_filter must return one boolean per point")
            points = points.select(mask)
            ids = ids[mask]
        filtered.append((ids, points))

    coords = [(points.xs, points.ys) for _, points in filtered]
    with trace.span("fused.probe", segments=len(coords), specs=len(specs)):
        results, seconds = executor.probe_act(trie, coords)

    with trace.span("fused.scatter", specs=len(specs)):
        # Shared pair stream: segment order and point order within a segment
        # are exactly the solo kernel's, so after the stable ascending-id
        # merge the per-request scatter replays the solo run's addition
        # sequence.
        id_chunks: list[np.ndarray] = []
        pid_chunks: list[np.ndarray] = []
        idx_chunks: list[tuple[PointSet, np.ndarray]] = []
        probes = 0
        for (ids, points), (offsets, pids) in zip(filtered, results):
            probes += len(points)
            if pids.shape[0] == 0:
                continue
            point_idx = np.repeat(
                np.arange(len(points), dtype=np.int64), np.diff(offsets)
            )
            id_chunks.append(ids[point_idx])
            pid_chunks.append(pids)
            idx_chunks.append((points, point_idx))

        answers: list[JoinAnswer] = []
        if not pid_chunks:
            counts = np.zeros(num_regions, dtype=np.int64)
            sums = np.zeros(num_regions, dtype=np.float64)
            for spec in specs:
                answers.append(
                    JoinAnswer(
                        aggregates=spec.finalize(sums.copy(), counts.copy()),
                        counts=counts.copy(),
                    )
                )
            return answers, probes, float(sum(seconds))

        pair_ids = np.concatenate(id_chunks)
        order = np.argsort(pair_ids, kind="stable")
        pair_pids = np.concatenate(pid_chunks)[order]
        counts = np.bincount(pair_pids, minlength=num_regions).astype(np.int64)
        for spec in specs:
            pair_vals = np.concatenate(
                [spec.values(points)[point_idx] for points, point_idx in idx_chunks]
            )[order]
            sums = np.zeros(num_regions, dtype=np.float64)
            np.add.at(sums, pair_pids, pair_vals)
            answers.append(
                JoinAnswer(
                    aggregates=spec.finalize(sums, counts.copy()),
                    counts=counts.copy(),
                )
            )
    return answers, probes, float(sum(seconds))


def fused_lookup(
    trie,
    blocks,
    executor=None,
) -> "tuple[list[LookupAnswer], int, float]":
    """One concatenated probe answering every point-lookup block.

    ``blocks`` is one ``(xs, ys)`` pair per request.  The blocks are
    concatenated, probed in one batch call, and the CSR
    result is sliced back per request — per-point independence makes each
    slice bit-identical to probing that block alone.

    Returns ``(answers, probed_points, probe_seconds)``.
    """
    executor = get_executor(executor)
    lengths = [int(np.asarray(xs).shape[0]) for xs, _ in blocks]
    total = int(sum(lengths))
    if total == 0:
        empty = [
            LookupAnswer(
                offsets=np.zeros(n + 1, dtype=np.int64),
                region_ids=np.empty(0, dtype=np.int64),
            )
            for n in lengths
        ]
        return empty, 0, 0.0

    all_xs = np.concatenate([np.asarray(xs, dtype=np.float64) for xs, _ in blocks])
    all_ys = np.concatenate([np.asarray(ys, dtype=np.float64) for _, ys in blocks])
    with trace.span("fused.lookup", blocks=len(blocks), points=total):
        results, seconds = executor.probe_act(trie, [(all_xs, all_ys)])
    offsets, pids = results[0]

    answers: list[LookupAnswer] = []
    start = 0
    for n in lengths:
        end = start + n
        answers.append(
            LookupAnswer(
                offsets=np.array(offsets[start : end + 1]) - offsets[start],
                region_ids=np.array(pids[offsets[start] : offsets[end]]),
            )
        )
        start = end
    return answers, total, float(sum(seconds))
