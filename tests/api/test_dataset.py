"""SpatialDataset behaviour: suites, config plumbing, explain, registry reuse."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.api import EngineConfig, IndexRegistry, SpatialDataset
from repro.api import dataset as dataset_module
from repro.errors import QueryError
from repro.hardware.gpu import DeviceSpec
from repro.query import AggregationQuery, CostModel


class TestConstruction:
    def test_static_source_requires_frame(self, taxi_points):
        with pytest.raises(QueryError):
            SpatialDataset(taxi_points)

    def test_store_brings_its_own_frame(self, workload, taxi_points):
        from repro.store import SpatialStore

        store = SpatialStore(workload.frame(), 8, attributes=taxi_points.attribute_names)
        dataset = SpatialDataset(store)
        assert dataset.frame is store.frame
        assert dataset.registry is store.registry

    def test_store_frame_conflict_rejected(self, workload, taxi_points):
        from repro.store import SpatialStore

        store = SpatialStore(workload.frame(), 8, attributes=taxi_points.attribute_names)
        with pytest.raises(QueryError):
            SpatialDataset(store, frame=workload.frame())

    def test_explicit_registry_shared_with_store(self, workload, taxi_points):
        from repro.store import SpatialStore

        registry = IndexRegistry()
        store = SpatialStore(workload.frame(), 8, attributes=taxi_points.attribute_names)
        dataset = SpatialDataset(store, registry=registry)
        assert dataset.registry is registry
        assert store.registry is registry


class TestShardsArgument:
    @pytest.mark.parametrize("shards", [2.5, True, "3"], ids=["float", "bool", "str"])
    def test_non_integer_shards_rejected(self, workload, taxi_points, shards):
        with pytest.raises(QueryError, match="integer"):
            SpatialDataset(taxi_points, frame=workload.frame(), shards=shards)

    @pytest.mark.parametrize("shards", [0, -1])
    def test_non_positive_shards_rejected(self, workload, taxi_points, shards):
        with pytest.raises(QueryError, match=">= 1"):
            SpatialDataset(taxi_points, frame=workload.frame(), shards=shards)


class TestSuites:
    def test_unknown_suite_rejected(self, dataset):
        with pytest.raises(QueryError):
            dataset.query(AggregationQuery(epsilon=8.0), suite="bogus")

    def test_single_suite_is_implicit(self, dataset):
        outcome = dataset.query(AggregationQuery(epsilon=8.0))
        assert outcome.suite == "neighborhoods"

    def test_spec_names_the_suite(self, dataset, census):
        dataset.add_suite("census", census)
        outcome = dataset.query(AggregationQuery(epsilon=8.0, suite="census"))
        assert outcome.suite == "census"
        assert outcome.counts.shape == (len(census),)

    def test_ambiguous_suite_rejected(self, dataset, census):
        dataset.add_suite("census", census)
        with pytest.raises(QueryError):
            dataset.query(AggregationQuery(epsilon=8.0))

    def test_suite_names(self, dataset, census):
        dataset.add_suite("census", census)
        assert dataset.suite_names == ("neighborhoods", "census")

    def test_replacing_suite_with_same_geometry_keeps_cache(self, dataset, neighborhoods):
        dataset.query(AggregationQuery(epsilon=8.0), strategy="act")
        dataset.add_suite("neighborhoods", list(neighborhoods))
        assert len(dataset.registry) == 1  # fingerprint unchanged → entry kept

    def test_replacing_suite_with_new_geometry_invalidates(self, dataset, census):
        dataset.query(AggregationQuery(epsilon=8.0), strategy="act")
        assert len(dataset.registry) == 1
        dataset.add_suite("neighborhoods", census)
        assert len(dataset.registry) == 0


class TestConfigPlumbing:
    """EngineConfig defaults and per-query overrides reach the planner."""

    def test_per_query_override_beats_default(self, dataset, monkeypatch):
        seen = []
        original = dataset_module.choose_plan

        def spy(*args, **kwargs):
            seen.append(kwargs["model"])
            return original(*args, **kwargs)

        monkeypatch.setattr(dataset_module, "choose_plan", spy)
        override = CostModel()
        dataset.query(AggregationQuery(epsilon=8.0), strategy="act")
        dataset.query(AggregationQuery(epsilon=8.0), strategy="act", cost_model=override)
        assert seen[0] is not override
        assert seen[1] is override

    def test_engine_config_merged(self):
        model = CostModel()
        device = DeviceSpec()
        config = EngineConfig(cost_model=model)
        merged = config.merged(device=device)
        assert merged.device is device
        assert merged.cost_model is model
        assert config.device is None  # original untouched
        assert config.merged() is config
        assert config.merged(cost_model=None).resolved_cost_model() == CostModel()

    def test_no_backend_knobs(self, dataset):
        """One probe path, one build path: nothing selects a backend."""
        assert [f.name for f in fields(EngineConfig)] == ["cost_model", "device"]

    def test_no_worker_override(self, dataset):
        """Every query runs in-process: ``workers`` is not an override."""
        with pytest.raises(TypeError):
            dataset.query(AggregationQuery(epsilon=8.0), strategy="act", workers=3)
        with pytest.raises(TypeError):
            EngineConfig(engine="python")
        with pytest.raises(TypeError):
            dataset.query(AggregationQuery(epsilon=8.0), strategy="act", build_engine="suite")


class TestRegistryReuse:
    def test_repeated_queries_hit_the_cache(self, dataset):
        first = dataset.query(AggregationQuery(epsilon=8.0), strategy="act")
        second = dataset.query(AggregationQuery(epsilon=8.0), strategy="act")
        assert (first.registry_hits, first.registry_misses) == (0, 1)
        assert (second.registry_hits, second.registry_misses) == (1, 0)
        assert first.registry_build_seconds > 0
        assert second.registry_build_seconds == 0
        assert np.array_equal(first.counts, second.counts)

    def test_shape_index_queries_share_covering(self, dataset):
        dataset.query(AggregationQuery(), strategy="shape-index")
        second = dataset.query(AggregationQuery(), strategy="shape-index")
        assert second.registry_hits == 1
        assert second.registry_misses == 0

    def test_act_index_accessor_hits_query_cache(self, dataset):
        dataset.query(AggregationQuery(epsilon=8.0), strategy="act")
        dataset.act_index("neighborhoods", 8.0)
        stats = dataset.registry_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1


class TestExplain:
    def test_explain_without_execution(self, dataset):
        rendered = dataset.explain(AggregationQuery(epsilon=8.0))
        assert "strategy" in rendered
        assert "costs:" in rendered
        assert dataset.registry.stats.misses == 0  # nothing built

    def test_result_explain_names_plan_and_suite(self, dataset):
        outcome = dataset.query(AggregationQuery(epsilon=8.0), strategy="act")
        rendered = outcome.explain()
        assert "'act'" in rendered
        assert "'neighborhoods'" in rendered
        assert "act_aggregate" in rendered

    def test_forcing_approximate_without_bound_fails(self, dataset):
        with pytest.raises(QueryError):
            dataset.query(AggregationQuery(), strategy="act")
