"""Tests for the command-line interface.

Besides per-command smoke runs, the suite verifies end to end that the
``join`` sweep reaches the exact-join probe kernels: the test wraps them in
recording spies and asserts both executed.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_join_defaults(self):
        args = build_parser().parse_args(["join"])
        assert args.strategy == "all"
        assert args.epsilon == 4.0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["join", "--strategy", "bogus"])

    def test_serve_bench_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.clients == 8
        assert args.duration == 2.0
        assert args.max_batch == 32
        assert args.max_wait_ms == 2.0
        assert args.serial_baseline is True

    def test_serve_bench_window_flags(self):
        args = build_parser().parse_args(
            ["serve-bench", "--clients", "4", "--duration", "0.5",
             "--max-batch", "16", "--max-wait-ms", "5", "--no-serial-baseline"]
        )
        assert args.clients == 4
        assert args.duration == 0.5
        assert args.max_batch == 16
        assert args.max_wait_ms == 5.0
        assert args.serial_baseline is False

    def test_suite_defaults(self):
        args = build_parser().parse_args(["suite"])
        assert args.epsilon == 4.0
        assert args.script.startswith("move:0:")

    def test_suite_bad_script_rejected(self):
        from repro.cli import _parse_suite_script

        with pytest.raises(SystemExit):
            _parse_suite_script("teleport:0")
        with pytest.raises(SystemExit):
            _parse_suite_script("move:0")  # missing the dx,dy operand
        assert _parse_suite_script("move:1:2,3;add:2;remove:0;noop:1") == [
            ("move", 1, 2.0, 3.0),
            ("add", 2),
            ("remove", 0),
            ("noop", 1),
        ]


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "repro.approx" in out

    def test_workload_summary(self, capsys):
        assert main(["workload", "--points", "500", "--regions", "4"]) == 0
        out = capsys.readouterr().out
        assert "points" in out
        assert "500" in out

    def test_join_single_strategy(self, capsys):
        code = main(
            ["join", "--strategy", "brj", "--points", "2000", "--regions", "4", "--epsilon", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "brj" in out
        assert "median rel. error" in out

    def test_join_act_strategy(self, capsys):
        code = main(
            ["join", "--strategy", "act", "--points", "1000", "--regions", "4", "--epsilon", "8"]
        )
        assert code == 0
        assert "act" in capsys.readouterr().out

    def test_estimate_command(self, capsys):
        code = main(["estimate", "--points", "2000", "--regions", "4", "--epsilon", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "certain interval" in out

    def test_plan_command_with_bound(self, capsys):
        assert main(["plan", "--points", "2000", "--regions", "4", "--epsilon", "10"]) == 0
        out = capsys.readouterr().out
        assert "optimizer chose" in out
        # The full strategy field competes, and the costs are reported.
        assert "costs:" in out
        assert "act" in out

    def test_plan_command_exact(self, capsys):
        """Without a distance bound only exact strategies compete."""
        assert main(["plan", "--points", "2000", "--regions", "4"]) == 0
        out = capsys.readouterr().out
        assert "optimizer chose" in out
        assert "'shape-index'" in out or "'rtree'" in out
        assert "pip_refine" in out

    def test_plan_command_execute(self, capsys):
        code = main(
            ["plan", "--points", "2000", "--regions", "4", "--epsilon", "10", "--execute"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "executed" in out
        assert "result:" in out

    def test_plan_command_execute_exact(self, capsys):
        assert main(["plan", "--points", "1000", "--regions", "4", "--execute"]) == 0
        out = capsys.readouterr().out
        assert "executed 'shape-index'" in out or "executed 'rtree'" in out

    def test_census_suite(self, capsys):
        assert main(["workload", "--suite", "census", "--points", "100", "--regions", "9"]) == 0
        assert "census" in capsys.readouterr().out

    def test_store_command(self, capsys):
        code = main(
            [
                "store",
                "--points", "1500", "--regions", "4", "--batches", "3",
                "--epsilon", "16", "--level", "9", "--memtable-capacity", "400",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Streaming ingest" in out
        assert "matches from-scratch rebuild" in out
        assert "index registry hits / misses" in out
        assert "NO" not in out

    def test_store_command_no_compact(self, capsys):
        code = main(
            [
                "store",
                "--points", "1200", "--regions", "4", "--batches", "4",
                "--epsilon", "16", "--level", "9", "--memtable-capacity", "200",
                "--no-compact",
            ]
        )
        assert code == 0
        assert "matches from-scratch rebuild" in capsys.readouterr().out

    def test_serve_bench_command(self, capsys):
        code = main(
            [
                "serve-bench",
                "--points", "1500", "--regions", "4", "--clients", "2",
                "--duration", "0.2", "--max-batch", "8", "--epsilon", "16",
                "--level", "9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Serving layer" in out
        assert "serial" in out and "coalesced" in out
        assert "serial-dispatch QPS" in out

    def test_serve_bench_no_baseline_no_ingest(self, capsys):
        code = main(
            [
                "serve-bench",
                "--points", "1200", "--regions", "4", "--clients", "2",
                "--duration", "0.2", "--epsilon", "16", "--level", "9",
                "--no-serial-baseline", "--ingest-batch", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "coalesced" in out
        assert "serial-dispatch QPS" not in out

    def test_suite_command(self, capsys):
        code = main(
            [
                "suite",
                "--points", "1200", "--regions", "4", "--epsilon", "16",
                "--script", "move:0:40,-25;add:2;remove:1;noop:0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Live suite mutations" in out
        assert "registry patches / patched polygons" in out
        assert "skip" in out  # the noop op fingerprint-skipped
        assert "NO" not in out  # rebuild parity held

    def test_suite_command_scale(self, capsys):
        code = main(
            [
                "suite",
                "--points", "800", "--regions", "4", "--epsilon", "16",
                "--script", "scale:0:0.8",
            ]
        )
        assert code == 0
        assert "1r/0a/0d" in capsys.readouterr().out


class TestJoinReachesKernels:
    def test_raster_strategies_via_join_all(self, monkeypatch, capsys):
        """The 'all' sweep drives both exact-join probe kernels too."""
        import repro.query.join_mm as join_mm

        calls: list[str] = []
        for name, label in (("probe_rtree", "rtree"), ("probe_shape_index", "shape-index")):
            original = getattr(join_mm, name)

            def wrapper(*args, _original=original, _label=label, **kwargs):
                calls.append(_label)
                return _original(*args, **kwargs)

            monkeypatch.setattr(join_mm, name, wrapper)
        assert main(["join", "--points", "400", "--regions", "4", "--epsilon", "16"]) == 0
        assert {"rtree", "shape-index"} <= set(calls)


class TestTraceCommand:
    def test_trace_join_writes_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(
            ["trace", "-o", str(out), "join", "--points", "400", "--regions", "4",
             "--strategy", "act"]
        ) == 0
        text = capsys.readouterr().out
        assert "wrote Chrome trace-event JSON" in text
        data = json.loads(out.read_text())
        names = {event["name"] for event in data["traceEvents"]}
        # The span tree covers plan -> registry -> kernel.
        assert {"dataset.query", "query.plan", "query.execute",
                "registry.build", "join.probe"} <= names
        for event in data["traceEvents"]:
            assert event["ph"] == "X"

    def test_trace_self_times_account_for_wall_clock(self, tmp_path, capsys):
        from repro.obs import trace as trace_mod

        captured = {}
        original = trace_mod.Tracer.write_chrome

        def spy(self, path):
            captured["tracer"] = self
            return original(self, path)

        trace_mod.Tracer.write_chrome = spy
        try:
            assert main(
                ["trace", "-o", str(tmp_path / "t.json"), "join", "--points", "400",
                 "--regions", "4", "--strategy", "act"]
            ) == 0
        finally:
            trace_mod.Tracer.write_chrome = original
        tracer = captured["tracer"]
        query_roots = [r for r in tracer.roots if r.name == "dataset.query"]
        assert query_roots
        for root in query_roots:
            self_sum = sum(s.self_seconds for s in root.walk())
            assert self_sum == pytest.approx(root.seconds, rel=0.05)

    def test_trace_sharded_join_covers_scatter(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(
            ["trace", "-o", str(out), "store", "--points", "400", "--regions", "4",
             "--batches", "2", "--shards", "2"]
        ) == 0
        names = {e["name"] for e in json.loads(out.read_text())["traceEvents"]}
        assert {"gather.build", "gather.probe", "gather.scatter",
                "shard.probe"} <= names

    def test_trace_requires_a_command(self):
        with pytest.raises(SystemExit):
            main(["trace"])

    def test_trace_rejects_tracing_itself(self):
        with pytest.raises(SystemExit):
            main(["trace", "trace", "info"])

    def test_tracer_disabled_after_run(self, tmp_path, capsys):
        from repro.obs import trace as trace_mod

        assert main(
            ["trace", "-o", str(tmp_path / "t.json"), "info"]
        ) == 0
        assert not trace_mod.enabled()

    def test_verbose_flag_wires_handler(self, capsys):
        import logging

        from repro.obs.log import _ROOT

        assert main(["--verbose", "info"]) == 0
        marked = [h for h in _ROOT.handlers
                  if getattr(h, "_repro_verbose_handler", False)]
        try:
            assert len(marked) == 1
        finally:
            for handler in marked:
                _ROOT.removeHandler(handler)
            _ROOT.setLevel(logging.NOTSET)

    def test_serve_bench_trace_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(
            ["serve-bench", "--points", "400", "--regions", "4", "--clients", "2",
             "--duration", "0.2", "--no-serial-baseline", "--trace"]
        ) == 0
        text = capsys.readouterr().out
        assert "serve-trace.json" in text
        data = json.loads((tmp_path / "serve-trace.json").read_text())
        names = {e["name"] for e in data["traceEvents"]}
        assert "serve.batch" in names
        assert "batch.kernel" in names
