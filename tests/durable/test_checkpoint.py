"""Whole-session checkpoints: SpatialDataset.save / SpatialDataset.open."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import EngineConfig, SpatialDataset
from repro.durable import crashsim
from repro.errors import StoreError
from repro.geometry.point import PointSet
from repro.geometry.polygon import Polygon
from repro.query import AggregationQuery
from repro.query.spec import Aggregate
from repro.shard.store import ShardedStore
from repro.store.store import SpatialStore


def _square(x, y, side):
    return Polygon(
        np.array([[x, y], [x + side, y], [x + side, y + side], [x, y + side]], float)
    )


@pytest.fixture()
def suite_regions():
    return [_square(100, 100, 300), _square(500, 400, 250), _square(50, 700, 180)]


@pytest.fixture()
def spec():
    return AggregationQuery(aggregate=Aggregate.SUM, attribute="fare", epsilon=4.0)


def _points(seed, n=3000):
    rng = np.random.default_rng(seed)
    return PointSet(
        rng.uniform(0, 1000, n),
        rng.uniform(0, 1000, n),
        {"fare": rng.uniform(1, 50, n), "tip": rng.uniform(0, 10, n)},
    )


class TestStaticSessions:
    def test_round_trip_bit_identical(self, tmp_path, crash_frame, suite_regions, spec):
        dataset = SpatialDataset(
            _points(1),
            frame=crash_frame,
            suites={"zones": suite_regions},
            config=EngineConfig(workers=3),
            level=10,
        )
        reference = dataset.query(spec)
        dataset.save(tmp_path / "session")
        restored = SpatialDataset.open(tmp_path / "session")
        assert restored.level == 10
        assert restored.config == EngineConfig(workers=3)
        assert restored.suite("zones").fingerprint == dataset.suite("zones").fingerprint
        result = restored.query(spec)
        np.testing.assert_array_equal(result.aggregates, reference.aggregates)
        np.testing.assert_array_equal(result.counts, reference.counts)

    def test_attributes_and_extent_survive(self, tmp_path, crash_frame, suite_regions):
        dataset = SpatialDataset(
            _points(2), frame=crash_frame, suites={"zones": suite_regions}
        )
        dataset.save(tmp_path / "session")
        restored = SpatialDataset.open(tmp_path / "session")
        assert restored.points().attribute_names == ("fare", "tip")
        assert restored.extent.min_x == dataset.extent.min_x
        assert restored.extent.max_y == dataset.extent.max_y

    def test_config_override_wins(self, tmp_path, crash_frame, suite_regions):
        dataset = SpatialDataset(
            _points(3),
            frame=crash_frame,
            suites={"zones": suite_regions},
            config=EngineConfig(workers=1),
        )
        dataset.save(tmp_path / "session")
        restored = SpatialDataset.open(tmp_path / "session", config=EngineConfig(workers=2))
        assert restored.config.workers == 2

    def test_parent_format_manifest_opens(self, tmp_path, crash_frame, suite_regions, spec):
        """A manifest from before the backend knobs were retired still opens:
        its ``config.engine`` / ``config.build_engine`` keys are ignored."""
        import json

        dataset = SpatialDataset(
            _points(12), frame=crash_frame, suites={"zones": suite_regions}, level=10
        )
        reference = dataset.query(spec)
        dataset.save(tmp_path / "session")  # writes points.npz + the suite WKT
        suite = dataset.suite("zones")
        manifest = {
            "format_version": 1,
            "kind": "static",
            "level": 10,
            "shards": None,
            "extent": {"min_x": dataset.extent.min_x, "min_y": dataset.extent.min_y,
                       "max_x": dataset.extent.max_x, "max_y": dataset.extent.max_y},
            "frame": {"origin_x": crash_frame.origin_x, "origin_y": crash_frame.origin_y,
                      "size": crash_frame.size},
            "config": {"engine": "python", "build_engine": "vectorized", "workers": 2},
            "suites": [{
                "name": "zones",
                "file": "suites/suite_0000.wkt",
                "fingerprint": suite.fingerprint,
                "entry_fingerprints": list(suite.entry_fingerprints),
            }],
        }
        (tmp_path / "session/session.json").write_text(json.dumps(manifest, indent=2))
        restored = SpatialDataset.open(tmp_path / "session")
        assert restored.config == EngineConfig(workers=2)
        result = restored.query(spec)
        np.testing.assert_array_equal(result.aggregates, reference.aggregates)
        np.testing.assert_array_equal(result.counts, reference.counts)

    def test_saved_config_carries_no_backend_names(self, tmp_path, crash_frame, suite_regions):
        import json

        dataset = SpatialDataset(
            _points(13), frame=crash_frame, suites={"zones": suite_regions}
        )
        dataset.save(tmp_path / "session")
        data = json.loads((tmp_path / "session/session.json").read_text())
        assert data["format_version"] == 1
        assert data["config"] == {"workers": 0}


class TestStoreSessions:
    def test_wal_tail_replays_through_session_open(
        self, tmp_path, crash_frame, suite_regions, spec
    ):
        store = SpatialStore.create(
            tmp_path / "session/store",
            crash_frame,
            10,
            attributes=("fare", "tip"),
            memtable_capacity=512,
        )
        store.insert(_points(4))
        dataset = SpatialDataset(store, suites={"zones": suite_regions})
        dataset.save(tmp_path / "session")  # in-place: WAL truncated here
        store.insert(_points(5, 150))  # post-checkpoint tail, WAL only
        reference = dataset.query(spec)
        store.close()

        restored = SpatialDataset.open(tmp_path / "session")
        assert restored.store.last_recovery.inserted_points == 150
        result = restored.query(spec)
        np.testing.assert_array_equal(result.aggregates, reference.aggregates)
        np.testing.assert_array_equal(result.counts, reference.counts)
        restored.store.close()

    def test_foreign_save_produces_durable_copy(self, tmp_path, crash_frame, suite_regions):
        memory_store = SpatialStore(
            crash_frame, 10, attributes=("fare", "tip"), memtable_capacity=512
        )
        memory_store.insert(_points(6))
        dataset = SpatialDataset(memory_store, suites={"zones": suite_regions})
        dataset.save(tmp_path / "session")
        dataset.save(tmp_path / "session")  # idempotent over the same directory

        restored = SpatialDataset.open(tmp_path / "session")
        assert restored.store.wal is not None
        restored.store.insert(_points(7, 80))  # goes through the copy's WAL
        live = restored.store.num_live
        restored.store.close()
        again = SpatialDataset.open(tmp_path / "session")
        assert again.store.num_live == live
        again.store.close()

    def test_sharded_session_round_trip(self, tmp_path, crash_frame, suite_regions, spec):
        store = ShardedStore.create(
            tmp_path / "session/store",
            crash_frame,
            10,
            4,
            attributes=("fare", "tip"),
            memtable_capacity=512,
        )
        store.insert(_points(8))
        dataset = SpatialDataset(store, suites={"zones": suite_regions})
        dataset.save(tmp_path / "session")
        store.insert(_points(9, 120))
        reference = dataset.query(spec)
        store.close()

        restored = SpatialDataset.open(tmp_path / "session")
        assert restored.shards == 4
        assert restored.store.last_recovery.inserted_points == 120
        result = restored.query(spec)
        np.testing.assert_array_equal(result.aggregates, reference.aggregates)
        restored.store.close()

    def test_session_open_after_kill9(self, tmp_path, suite_regions, spec):
        import subprocess
        import sys
        from pathlib import Path

        script = crashsim.make_script(seed=33, ops=18)
        child = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.durable.crashsim",
                str(tmp_path / "session/store"),
                "--ops",
                "18",
                "--seed",
                "33",
                "--crash-after",
                "11",
            ],
            env={"PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src")},
            timeout=120,
        )
        assert child.returncode == -9
        # The session manifest can be written around the crashed store: the
        # dataset facade only needs suites + config on top of it.
        probe = SpatialDataset(
            SpatialStore.open(tmp_path / "session/store"),
            suites={"zones": suite_regions},
        )
        probe.save(tmp_path / "session")
        probe.store.close()

        restored = SpatialDataset.open(tmp_path / "session")
        oracle = crashsim.build_oracle(script, 11)
        assert crashsim.logical_digest(restored.store) == crashsim.logical_digest(oracle)
        restored.store.close()


class TestVerification:
    def test_tampered_suite_geometry_detected(self, tmp_path, crash_frame, suite_regions):
        dataset = SpatialDataset(
            _points(10), frame=crash_frame, suites={"zones": suite_regions}
        )
        dataset.save(tmp_path / "session")
        wkt_file = tmp_path / "session/suites/suite_0000.wkt"
        wkt_file.write_text(wkt_file.read_text().replace("100", "101"))
        with pytest.raises(StoreError, match="fingerprint"):
            SpatialDataset.open(tmp_path / "session")

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(StoreError, match="session manifest"):
            SpatialDataset.open(tmp_path / "nowhere")

    def test_unsupported_version_raises(self, tmp_path, crash_frame, suite_regions):
        import json

        dataset = SpatialDataset(
            _points(11), frame=crash_frame, suites={"zones": suite_regions}
        )
        dataset.save(tmp_path / "session")
        manifest = tmp_path / "session/session.json"
        data = json.loads(manifest.read_text())
        data["format_version"] = 99
        manifest.write_text(json.dumps(data))
        with pytest.raises(StoreError, match="version"):
            SpatialDataset.open(tmp_path / "session")

    def test_truncated_manifest_raises(self, tmp_path, crash_frame, suite_regions):
        dataset = SpatialDataset(
            _points(14), frame=crash_frame, suites={"zones": suite_regions}
        )
        dataset.save(tmp_path / "session")
        manifest = tmp_path / "session/session.json"
        text = manifest.read_text()
        manifest.write_text(text[: len(text) // 2])
        with pytest.raises(StoreError, match="malformed session manifest"):
            SpatialDataset.open(tmp_path / "session")

    @pytest.mark.parametrize("key", ["kind", "level", "frame", "extent", "suites"])
    def test_manifest_missing_required_key_raises(
        self, tmp_path, crash_frame, suite_regions, key
    ):
        import json

        dataset = SpatialDataset(
            _points(15), frame=crash_frame, suites={"zones": suite_regions}
        )
        dataset.save(tmp_path / "session")
        manifest = tmp_path / "session/session.json"
        data = json.loads(manifest.read_text())
        del data[key]
        manifest.write_text(json.dumps(data))
        with pytest.raises(StoreError, match=f"missing {key}"):
            SpatialDataset.open(tmp_path / "session")

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda data: data.update(level="ten"),
            lambda data: data["frame"].pop("size"),
            lambda data: data["suites"][0].pop("fingerprint"),
            lambda data: data.update(suites=7),
        ],
        ids=["level", "frame", "suite-entry", "suites"],
    )
    def test_manifest_with_malformed_value_raises(
        self, tmp_path, crash_frame, suite_regions, corrupt
    ):
        import json

        dataset = SpatialDataset(
            _points(16), frame=crash_frame, suites={"zones": suite_regions}
        )
        dataset.save(tmp_path / "session")
        manifest = tmp_path / "session/session.json"
        data = json.loads(manifest.read_text())
        corrupt(data)
        manifest.write_text(json.dumps(data))
        with pytest.raises(StoreError, match="malformed session manifest"):
            SpatialDataset.open(tmp_path / "session")
