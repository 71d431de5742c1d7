"""Contextvar-based span tracer with Perfetto-compatible export.

The tracer records wall-clock spans into a nested tree.  Two entry points
cover the two kinds of callers in the codebase:

* :func:`span` — instrumentation for hot paths.  When no tracer is active
  it returns a shared null singleton: no ``Span`` is allocated and
  ``perf_counter`` is never called, so disabled tracing costs one global
  read per call site.  When a tracer is active it returns a recording span
  nested under the caller's current span.
* :func:`timed` — measurement that must always happen (the per-stage
  timers behind ``DatasetResult``, ``RequestTiming`` and the bench
  harness).  It always returns a real measuring span; when a tracer is
  active the span additionally lands in the trace tree, otherwise it is
  detached and only its ``seconds`` are read.

Span stacks live in a :class:`~contextvars.ContextVar`.  New threads start
with an empty context, so spans can never leak across client threads: each
thread builds its own root.  Finished roots are appended to the active
tracer under a lock.

Export formats: a plain JSON dict tree (:meth:`Tracer.to_dict`) and the
Chrome trace-event format (:meth:`Tracer.chrome_trace`) loadable in
Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import json
import os
import threading
from contextvars import ContextVar
from time import perf_counter
from typing import Any, Iterator

__all__ = [
    "Span",
    "Tracer",
    "active",
    "annotate",
    "current_span",
    "disable",
    "enable",
    "enabled",
    "now",
    "render_tree",
    "span",
    "span_to_dict",
    "timed",
]

# The per-context span stack.  ``default=None`` (not a shared list!) so each
# new thread/context lazily creates its own stack on first use.
_STACK: ContextVar[list["Span"] | None] = ContextVar("repro_trace_stack", default=None)

# Module-level enabled flag: ``None`` means tracing is off and ``span()``
# short-circuits to the null singleton before any allocation.
_ACTIVE: "Tracer | None" = None


class Span:
    """One timed region; a context manager that nests into the trace tree."""

    __slots__ = ("name", "tags", "start", "end", "children", "tid")

    def __init__(self, name: str, tags: dict[str, Any] | None = None):
        self.name = name
        self.tags = tags if tags is not None else {}
        self.start = 0.0
        self.end = 0.0
        self.children: list[Span] = []
        self.tid = 0

    @property
    def seconds(self) -> float:
        return max(self.end - self.start, 0.0)

    @property
    def self_seconds(self) -> float:
        """Duration not covered by child spans."""
        return max(self.seconds - sum(c.seconds for c in self.children), 0.0)

    def annotate(self, **tags: Any) -> None:
        self.tags.update(tags)

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def __enter__(self) -> "Span":
        if _ACTIVE is not None:
            stack = _STACK.get()
            if stack is None:
                stack = []
                _STACK.set(stack)
            stack.append(self)
        self.tid = threading.get_ident()
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = perf_counter()
        tracer = _ACTIVE
        if tracer is not None:
            stack = _STACK.get()
            # The identity check keeps mismatched enter/exit pairs (tracer
            # enabled mid-span) from corrupting another span's children.
            if stack and stack[-1] is self:
                stack.pop()
                if stack:
                    stack[-1].children.append(self)
                else:
                    tracer.add_root(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.seconds * 1e3:.3f}ms, {len(self.children)} children)"


class _NullSpan:
    """Shared do-nothing span returned by :func:`span` when tracing is off."""

    __slots__ = ()
    seconds = 0.0
    self_seconds = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **tags: Any) -> None:
        pass


_NULL = _NullSpan()


def span(name: str, **tags: Any):
    """A recording span when a tracer is active, the null singleton otherwise."""
    if _ACTIVE is None:
        return _NULL
    return Span(name, tags)


def timed(name: str, **tags: Any) -> Span:
    """A span that always measures, tree-registered only when tracing is on."""
    return Span(name, tags)


def now() -> float:
    """The tracer's clock (``perf_counter``), for event timestamps."""
    return perf_counter()


def enabled() -> bool:
    return _ACTIVE is not None


def active() -> "Tracer | None":
    return _ACTIVE


def enable() -> "Tracer":
    """Install (and return) a fresh tracer as the active one."""
    global _ACTIVE
    _ACTIVE = Tracer()
    return _ACTIVE


def disable() -> "Tracer | None":
    """Deactivate tracing; returns the tracer that was active, if any."""
    global _ACTIVE
    tracer = _ACTIVE
    _ACTIVE = None
    return tracer


def current_span() -> Span | None:
    stack = _STACK.get()
    return stack[-1] if stack else None


def annotate(**tags: Any) -> None:
    """Attach tags to the innermost open span, if one exists."""
    current = current_span()
    if current is not None:
        current.annotate(**tags)


def render_tree(span: Span, indent: int = 0) -> list[str]:
    """Indented text rendering of a span subtree (one line per span)."""
    pad = "  " * indent
    lines = [
        f"{pad}{span.name} {span.seconds * 1e3:.3f}ms"
        f" (self {span.self_seconds * 1e3:.3f}ms)"
    ]
    for child in span.children:
        lines.extend(render_tree(child, indent + 1))
    return lines


def span_to_dict(span: Span) -> dict[str, Any]:
    """Serialize a span subtree to plain JSON-ready dicts."""
    return {
        "name": span.name,
        "tags": dict(span.tags),
        "start": span.start,
        "end": span.end,
        "children": [span_to_dict(c) for c in span.children],
    }


class Tracer:
    """Collects finished root spans; thread-safe; export to JSON / Chrome."""

    def __init__(self):
        self._lock = threading.Lock()
        self.roots: list[Span] = []

    def add_root(self, span: Span) -> None:
        with self._lock:
            self.roots.append(span)

    def walk(self) -> Iterator[Span]:
        with self._lock:
            roots = list(self.roots)
        for root in roots:
            yield from root.walk()

    def find(self, name: str) -> list[Span]:
        return [s for s in self.walk() if s.name == name]

    def to_dict(self) -> dict[str, Any]:
        with self._lock:
            roots = list(self.roots)
        return {"roots": [span_to_dict(r) for r in roots]}

    def chrome_trace(self) -> dict[str, Any]:
        """Chrome trace-event JSON (``ph: "X"`` complete events), for Perfetto."""
        with self._lock:
            roots = list(self.roots)
        if not roots:
            return {"traceEvents": []}
        origin = min(r.start for r in roots)
        pid = os.getpid()
        events = []
        for root in roots:
            for item in root.walk():
                events.append(
                    {
                        "name": item.name,
                        "cat": "repro",
                        "ph": "X",
                        "ts": (item.start - origin) * 1e6,
                        "dur": item.seconds * 1e6,
                        "pid": pid,
                        "tid": item.tid or 0,
                        "args": {k: _jsonable(v) for k, v in item.tags.items()},
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, default=str)

    def write_chrome(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, default=str)


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
