"""Tests for the strategy-selection heuristic (future work of the paper)."""

from __future__ import annotations

from repro.datasets.registry import load_dataset
from repro.pier.heuristic import (
    choose_strategy,
    make_chosen_strategy,
    profile_sample_stats,
)
from repro.pier.ipbs import IPBS
from repro.pier.ipes import IPES

from tests.conftest import make_profile


class TestProfileSampleStats:
    def test_empty_sample(self):
        stats = profile_sample_stats([])
        assert stats.sample_size == 0
        assert stats.length_cv == 0.0

    def test_uniform_lengths_low_cv(self):
        profiles = [make_profile(i, "aaaa bbbb") for i in range(20)]
        stats = profile_sample_stats(profiles)
        assert stats.length_cv == 0.0

    def test_skewed_lengths_high_cv(self):
        profiles = [make_profile(0, "ab")] + [
            make_profile(i, "word " * 100) for i in range(1, 4)
        ]
        assert profile_sample_stats(profiles).length_cv > 0.3

    def test_schema_diversity(self):
        fixed = [make_profile(i, "val", attr="same") for i in range(50)]
        varied = [make_profile(i, "val", attr=f"attr{i}") for i in range(50)]
        assert (
            profile_sample_stats(varied).schema_diversity
            > profile_sample_stats(fixed).schema_diversity
        )


class TestChooseStrategy:
    def test_census_looks_relational(self):
        dataset = load_dataset("census_2m", scale=0.1)
        assert choose_strategy(dataset.profiles[:200]) == "I-PBS"

    def test_dbpedia_looks_heterogeneous(self):
        dataset = load_dataset("dbpedia", scale=0.1)
        assert choose_strategy(dataset.profiles[:200]) == "I-PES"

    def test_movies_defaults_to_ipes(self):
        dataset = load_dataset("movies", scale=0.1)
        assert choose_strategy(dataset.profiles[:200]) == "I-PES"

    def test_make_chosen_strategy_types(self):
        census = load_dataset("census_2m", scale=0.1)
        dbpedia = load_dataset("dbpedia", scale=0.1)
        assert isinstance(make_chosen_strategy(census.profiles[:200]), IPBS)
        assert isinstance(make_chosen_strategy(dbpedia.profiles[:200]), IPES)


class TestFactoryIntegration:
    def test_i_auto(self):
        from tests.conftest import build_system

        census = load_dataset("census_2m", scale=0.1)
        system = build_system("I-AUTO", census)
        assert system.name == "I-AUTO[I-PBS]"
        dbpedia = load_dataset("dbpedia", scale=0.1)
        system = build_system("I-AUTO", dbpedia)
        assert system.name == "I-AUTO[I-PES]"
