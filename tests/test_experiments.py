"""Tests for the experiment harness (factory + runner)."""

from __future__ import annotations

import pytest

from repro.evaluation.experiments import ExperimentConfig
from repro.incremental.ibase import IBaseSystem
from repro.matching.matcher import EditDistanceMatcher, JaccardMatcher
from repro.pier.base import PierSystem
from repro.progressive.batch import BatchERSystem
from repro.progressive.pbs import PBSSystem
from repro.progressive.pps import PPSSystem

from tests.conftest import build_matcher, build_system, compare


class TestMakeMatcher:
    def test_js(self):
        assert isinstance(build_matcher("JS"), JaccardMatcher)
        assert isinstance(build_matcher("js"), JaccardMatcher)

    def test_ed(self):
        assert isinstance(build_matcher("ED"), EditDistanceMatcher)

    def test_unknown(self):
        with pytest.raises(ValueError):
            build_matcher("cosine")


class TestMakeSystem:
    @pytest.mark.parametrize(
        "name,kind",
        [
            ("I-PES", PierSystem),
            ("I-PCS", PierSystem),
            ("I-PBS", PierSystem),
            ("I-BASE", IBaseSystem),
            ("PPS", PPSSystem),
            ("PBS", PBSSystem),
            ("PPS-GLOBAL", PPSSystem),
            ("PPS-LOCAL", PPSSystem),
            ("PBS-GLOBAL", PBSSystem),
            ("BATCH", BatchERSystem),
        ],
    )
    def test_factory(self, name, kind, toy_dirty_dataset):
        system = build_system(name, toy_dirty_dataset)
        assert isinstance(system, kind)

    def test_names_preserved(self, toy_dirty_dataset):
        assert build_system("PPS-GLOBAL", toy_dirty_dataset).name == "PPS-GLOBAL"
        assert build_system("PPS-LOCAL", toy_dirty_dataset).name == "PPS-LOCAL"
        assert build_system("PPS", toy_dirty_dataset).name == "PPS"

    def test_clean_clean_propagates(self, toy_clean_clean_dataset):
        system = build_system("I-PES", toy_clean_clean_dataset)
        assert system.collection.clean_clean

    def test_unknown(self, toy_dirty_dataset):
        with pytest.raises(ValueError):
            build_system("I-WHAT", toy_dirty_dataset)


class TestRunExperiment:
    def test_runs_all_systems(self, small_dblp_acm):
        config = ExperimentConfig(
            dataset_name="dblp_acm",
            systems=("I-PES", "I-BASE"),
            matcher="JS",
            n_increments=10,
            budget=30.0,
            dataset=small_dblp_acm,
        )
        results = compare(config)
        assert set(results) == {"I-PES", "I-BASE"}
        assert all(result.final_pc >= 0 for result in results.values())

    def test_batch_systems_get_single_increment_in_static(self, small_dblp_acm):
        config = ExperimentConfig(
            dataset_name="dblp_acm",
            systems=("PPS",),
            n_increments=10,
            rate=None,
            budget=30.0,
            dataset=small_dblp_acm,
        )
        results = compare(config)
        assert results["PPS"].increments_ingested == 1

    def test_dynamic_setting_streams_everyone(self, small_dblp_acm):
        config = ExperimentConfig(
            dataset_name="dblp_acm",
            systems=("PPS-GLOBAL",),
            n_increments=5,
            rate=100.0,
            budget=30.0,
            dataset=small_dblp_acm,
        )
        results = compare(config)
        assert results["PPS-GLOBAL"].increments_ingested == 5

    def test_with_overrides(self):
        config = ExperimentConfig(dataset_name="movies", systems=("I-PES",))
        faster = config.with_overrides(rate=8.0)
        assert faster.rate == 8.0
        assert faster.dataset_name == "movies"

    def test_load_uses_registry_when_no_dataset(self):
        config = ExperimentConfig(
            dataset_name="dblp_acm", systems=("I-PES",), scale=0.05
        )
        assert config.load().name == "dblp_acm"
