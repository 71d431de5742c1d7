"""The per-point index-nested loops the batch probe kernels replaced.

:class:`PythonLoopEngine` walks the index from Python once per point, exactly
as the seed reproduction did, and accumulates each polygon's aggregates in
ascending point order.  That order defines the reference result the kernels
of :mod:`repro.query.engine` must reproduce bit for bit.  The bodies are kept
verbatim; only the base class and the engine registry they belonged to are
gone.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.predicates import point_in_region
from repro.query.engine import ProbeOutcome

__all__ = ["PythonLoopEngine"]


class PythonLoopEngine:
    """Per-point index-nested loops — the seed behaviour, kept as the oracle."""

    name = "python"

    def probe_act(self, trie, xs, ys, values, num_regions) -> ProbeOutcome:
        sums = np.zeros(num_regions, dtype=np.float64)
        counts = np.zeros(num_regions, dtype=np.int64)
        probes = 0
        for i in range(xs.shape[0]):
            matches = trie.lookup_point(float(xs[i]), float(ys[i]))
            probes += 1
            for polygon_id in matches:
                sums[polygon_id] += values[i]
                counts[polygon_id] += 1
        return ProbeOutcome(sums=sums, counts=counts, pip_tests=0, index_probes=probes)

    def probe_act_pairs(self, trie, xs, ys) -> tuple[np.ndarray, np.ndarray]:
        offsets = np.zeros(xs.shape[0] + 1, dtype=np.int64)
        matches: list[int] = []
        for i in range(xs.shape[0]):
            hits = trie.lookup_point(float(xs[i]), float(ys[i]))
            matches.extend(hits)
            offsets[i + 1] = offsets[i] + len(hits)
        return offsets, np.asarray(matches, dtype=np.int64)

    def probe_rtree(self, tree, regions, xs, ys, values) -> ProbeOutcome:
        return self._filter_refine(tree.query_point, regions, xs, ys, values)

    def probe_shape_index(self, shape_index, regions, xs, ys, values) -> ProbeOutcome:
        return self._filter_refine(shape_index.candidates, regions, xs, ys, values)

    @staticmethod
    def _filter_refine(candidates_fn, regions, xs, ys, values) -> ProbeOutcome:
        sums = np.zeros(len(regions), dtype=np.float64)
        counts = np.zeros(len(regions), dtype=np.int64)
        pip_tests = 0
        probes = 0
        for i in range(xs.shape[0]):
            x = float(xs[i])
            y = float(ys[i])
            probes += 1
            for polygon_id in candidates_fn(x, y):
                pip_tests += 1
                if point_in_region(x, y, regions[polygon_id]):
                    sums[polygon_id] += values[i]
                    counts[polygon_id] += 1
        return ProbeOutcome(sums=sums, counts=counts, pip_tests=pip_tests, index_probes=probes)

    def count_ranges(self, index, ranges) -> int:
        return index.count_ranges([(int(lo), int(hi)) for lo, hi in ranges])
