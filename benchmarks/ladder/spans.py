"""Benchmark-side span recorder.

The ladder times the program from the outside: every call into a layer is
wrapped in a span recorded here, in memory, and written out when the run
ends.  A span is ``(id, name, start, end, parent, op)``; ``name`` is
``<layer>.<call>`` with the layer being the ``repro`` module the call enters,
and ``op`` is the identifier of the operation (query, request, batch) it
served.  No metric depends on a span *inside* the program, so later PRs can
rename those freely.

With recording off (the untraced run that produces the end-to-end numbers)
:meth:`Recorder.span` hands back one shared no-op context.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import nullcontext

__all__ = ["Recorder"]

_NOOP = nullcontext()


class _Span:
    __slots__ = ("recorder", "name", "op", "index")

    def __init__(self, recorder: "Recorder", name: str, op) -> None:
        self.recorder = recorder
        self.name = name
        self.op = op

    def __enter__(self) -> "_Span":
        rec = self.recorder
        stack = rec._stack()
        parent = stack[-1] if stack else -1
        with rec._lock:
            self.index = len(rec.rows)
            rec.rows.append([self.name, 0.0, 0.0, parent, self.op])
        stack.append(self.index)
        rec.rows[self.index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        rec = self.recorder
        rec.rows[self.index][2] = end
        rec._stack().pop()


class Recorder:
    """In-memory span list with per-thread parent stacks."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = bool(enabled)
        #: ``[name, start, end, parent_index, op]`` per span, in start order
        #: within a thread.
        self.rows: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, op=None):
        """Context manager timing one call (a shared no-op when disabled)."""
        if not self.enabled:
            return _NOOP
        return _Span(self, name, op)

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.rows if n == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per span name not covered by that span's children.

        Children of one span never overlap (a thread runs them in sequence),
        so coverage is the plain sum of child durations.
        """
        covered = [0.0] * len(self.rows)
        for _, start, end, parent, _ in self.rows:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), child in zip(self.rows, covered):
            out[name] = out.get(name, 0.0) + (end - start) - child
        return out

    def write(self, path, meta: dict) -> None:
        spans = [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}
            for i, (name, start, end, parent, op) in enumerate(self.rows)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta, "self_seconds": self.self_times(), "spans": spans}, handle)
