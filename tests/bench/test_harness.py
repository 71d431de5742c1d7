"""Tests for the benchmark harness helpers."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    BenchScale,
    append_run_record,
    default_records_path,
    format_ratio,
    format_table,
    measure,
    run_record,
    scale_from_env,
)


class TestBenchScale:
    def test_defaults_positive(self):
        scale = BenchScale()
        assert scale.num_points > 0
        assert scale.brj_points > 0

    def test_scaled_never_below_one(self):
        tiny = BenchScale().scaled(1e-9)
        assert tiny.num_points == 1
        assert tiny.census_rows == 1

    def test_scale_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_POINTS", "123")
        monkeypatch.setenv("REPRO_BENCH_NEIGHBORHOODS", "7")
        scale = scale_from_env()
        assert scale.num_points == 123
        assert scale.num_neighborhoods == 7


class TestMeasure:
    def test_measure_returns_result_and_time(self):
        measurement, result = measure("double", lambda: 21 * 2, flavour=1.0)
        assert result == 42
        assert measurement.seconds >= 0.0
        assert measurement.metrics["flavour"] == 1.0

    def test_measurement_row(self):
        measurement, _ = measure("x", lambda: None, a=1.0)
        row = measurement.row("a", "missing")
        assert row[0] == "x"
        assert row[2] == 1.0


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1.0], ["bbbb", 123456.789]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len(lines) == 5

    def test_format_ratio(self):
        assert format_ratio(2.0, 17.0) == "8.5x"
        assert format_ratio(0.0, 1.0) == "inf"

    def test_format_small_floats(self):
        table = format_table(["v"], [[0.00001234]])
        assert "e-05" in table


class TestRunRecords:
    def test_record_carries_throughput(self):
        record = run_record("fig6", "act:census", 0.5, num_points=1000, metrics={"pip": 0})
        assert record["points_per_second"] == pytest.approx(2000.0)
        assert record["metrics"] == {"pip": 0}
        assert record["run_id"]
        assert record["unix_time"] > 0

    def test_run_id_stable_within_process(self):
        a = run_record("fig6", "x", 1.0)
        b = run_record("fig6", "y", 1.0)
        assert a["run_id"] == b["run_id"]

    def test_run_id_from_env(self, monkeypatch):
        import importlib

        import repro.bench.reporting as reporting

        monkeypatch.setenv("REPRO_BENCH_RUN_ID", "abc123")
        importlib.reload(reporting)
        try:
            assert reporting.run_record("fig6", "x", 1.0)["run_id"] == "abc123"
        finally:
            monkeypatch.delenv("REPRO_BENCH_RUN_ID")
            importlib.reload(reporting)

    def test_serving_fields_default_to_none(self):
        record = run_record("fig6", "act:census", 0.5)
        assert record["latency_p50_ms"] is None
        assert record["latency_p99_ms"] is None
        assert record["qps"] is None

    def test_serving_fields_recorded_at_top_level(self):
        record = run_record(
            "serving",
            "coalesced:act",
            2.0,
            latency_p50_ms=3.5,
            latency_p99_ms=11.25,
            qps=412.0,
        )
        assert record["latency_p50_ms"] == pytest.approx(3.5)
        assert record["latency_p99_ms"] == pytest.approx(11.25)
        assert record["qps"] == pytest.approx(412.0)
        # The serving fields survive the JSON round trip as schema fields,
        # not metrics.
        restored = json.loads(json.dumps(record))
        assert restored["qps"] == pytest.approx(412.0)
        assert "qps" not in restored.get("metrics", {})

    def test_zero_seconds_has_no_throughput(self):
        record = run_record("fig6", "act:census", 0.0, num_points=1000)
        assert record["points_per_second"] is None

    def test_append_writes_json_lines(self, tmp_path):
        path = str(tmp_path / "nested" / "runs.jsonl")
        append_run_record(run_record("fig6", "a", 1.0, num_points=10), path)
        append_run_record(run_record("fig6", "b", 2.0, num_points=10), path)
        with open(path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert [r["name"] for r in records] == ["a", "b"]
        assert records[1]["points_per_second"] == pytest.approx(5.0)

    def test_default_path_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_JSON", "/tmp/x.jsonl")
        assert default_records_path() == "/tmp/x.jsonl"
