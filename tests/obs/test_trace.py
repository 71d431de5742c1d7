"""Tracer unit tests: nesting, thread isolation, zero-cost disabled paths."""

import json
import threading

import pytest

from repro.obs import trace


@pytest.fixture(autouse=True)
def _tracer_off():
    """Every test starts and ends with tracing disabled."""
    trace.disable()
    yield
    trace.disable()


class TestDisabledPath:
    def test_span_returns_shared_null_singleton(self):
        assert trace.span("a") is trace.span("b", tag=1)

    def test_disabled_span_never_allocates_or_reads_clock(self, monkeypatch):
        def boom():
            raise AssertionError("perf_counter called on the disabled path")

        # Spy on both the clock and Span construction: a disabled span() must
        # touch neither.
        monkeypatch.setattr(trace, "perf_counter", boom)
        monkeypatch.setattr(
            trace.Span,
            "__init__",
            lambda *a, **k: (_ for _ in ()).throw(
                AssertionError("Span allocated on the disabled path")
            ),
        )
        with trace.span("hot.loop", shard=3) as s:
            s.annotate(extra=1)
        assert s.seconds == 0.0
        assert s.self_seconds == 0.0

    def test_timed_measures_without_tracer(self):
        with trace.timed("always.measured") as span:
            pass
        assert span.seconds >= 0.0
        assert trace.active() is None

    def test_timed_does_not_register_without_tracer(self):
        with trace.timed("detached"):
            pass
        tracer = trace.enable()
        assert tracer.roots == []


class TestNesting:
    def test_parent_child_tree(self):
        tracer = trace.enable()
        with trace.span("root") as root:
            with trace.span("child.a"):
                with trace.span("grandchild"):
                    pass
            with trace.span("child.b"):
                pass
        assert [c.name for c in root.children] == ["child.a", "child.b"]
        assert [c.name for c in root.children[0].children] == ["grandchild"]
        assert tracer.roots == [root]

    def test_timed_registers_in_tree_when_active(self):
        trace.enable()
        with trace.span("root") as root:
            with trace.timed("stage"):
                pass
        assert [c.name for c in root.children] == ["stage"]

    def test_self_seconds_sum_to_root_wall(self):
        trace.enable()
        with trace.span("root") as root:
            with trace.span("a"):
                with trace.span("a.a"):
                    pass
            with trace.span("b"):
                pass
        total_self = sum(s.self_seconds for s in root.walk())
        assert total_self == pytest.approx(root.seconds, rel=1e-9)

    def test_annotate_current_span(self):
        trace.enable()
        with trace.span("root") as root:
            trace.annotate(shards=4)
        assert root.tags["shards"] == 4

    def test_annotate_without_span_is_noop(self):
        trace.enable()
        trace.annotate(ignored=True)

    def test_exception_still_closes_span(self):
        tracer = trace.enable()
        with pytest.raises(ValueError):
            with trace.span("root"):
                with trace.span("child"):
                    raise ValueError("boom")
        assert [r.name for r in tracer.roots] == ["root"]
        assert [c.name for c in tracer.roots[0].children] == ["child"]

    def test_enable_mid_span_does_not_corrupt_tree(self):
        # The outer span entered while tracing was off; enabling mid-span
        # must not let its exit pop someone else's frame.
        outer = trace.timed("outer")
        outer.__enter__()
        tracer = trace.enable()
        with trace.span("inner"):
            pass
        outer.__exit__(None, None, None)
        assert [r.name for r in tracer.roots] == ["inner"]


class TestThreads:
    def test_spans_do_not_leak_across_threads(self):
        tracer = trace.enable()
        seen = {}

        def worker(name):
            # A fresh thread starts with an empty span stack: its span is a
            # root, never a child of another thread's open span.
            with trace.span(f"thread.{name}"):
                seen[name] = trace.current_span().name

        with trace.span("main.root") as root:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert root.children == []
        assert seen == {i: f"thread.{i}" for i in range(4)}
        names = sorted(r.name for r in tracer.roots)
        assert names == sorted(
            ["main.root"] + [f"thread.{i}" for i in range(4)]
        )

    def test_concurrent_roots_all_collected(self):
        tracer = trace.enable()

        def worker():
            for _ in range(50):
                with trace.span("w"):
                    pass

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer.roots) == 200


class TestSerialization:
    def _sample_root(self):
        trace.enable()
        with trace.span("root", kind="join") as root:
            with trace.span("child", shard=0):
                pass
        trace.disable()
        return root

    def test_span_to_dict_payload(self):
        root = self._sample_root()
        payload = trace.span_to_dict(root)
        assert payload["name"] == "root"
        assert payload["tags"] == {"kind": "join"}
        assert (payload["start"], payload["end"]) == (root.start, root.end)
        assert [c["name"] for c in payload["children"]] == ["child"]


class TestExport:
    def test_chrome_trace_events(self, tmp_path):
        tracer = trace.enable()
        with trace.span("root", suite="n"):
            with trace.span("child"):
                pass
        trace.disable()
        path = tmp_path / "trace.json"
        tracer.write_chrome(path)
        data = json.loads(path.read_text())
        names = {e["name"] for e in data["traceEvents"]}
        assert names == {"root", "child"}
        for event in data["traceEvents"]:
            assert event["ph"] == "X"
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0

    def test_json_tree_export(self, tmp_path):
        tracer = trace.enable()
        with trace.span("root"):
            pass
        trace.disable()
        path = tmp_path / "spans.json"
        tracer.write_json(path)
        data = json.loads(path.read_text())
        assert [r["name"] for r in data["roots"]] == ["root"]

    def test_find_and_walk(self):
        tracer = trace.enable()
        with trace.span("root"):
            with trace.span("shard.probe", shard=0):
                pass
            with trace.span("shard.probe", shard=1):
                pass
        assert len(tracer.find("shard.probe")) == 2
        assert len(list(tracer.walk())) == 3

    def test_render_tree(self):
        trace.enable()
        with trace.span("root") as root:
            with trace.span("child"):
                pass
        lines = trace.render_tree(root)
        assert lines[0].startswith("root ")
        assert lines[1].startswith("  child ")
