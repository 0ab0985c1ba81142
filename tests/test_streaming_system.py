"""Tests for the ERSystem contract and pipeline cost/stat containers."""

from __future__ import annotations

import pytest

from repro.core.increments import Increment
from repro.streaming.system import ERSystem, PipelineCosts, PipelineStats


class TestPipelineCosts:
    def test_defaults_are_positive(self):
        costs = PipelineCosts()
        for field_name in (
            "per_profile",
            "per_token",
            "per_weight",
            "per_enqueue",
            "per_edge_enumeration",
            "per_block_open",
            "per_round",
        ):
            assert getattr(costs, field_name) > 0

    def test_frozen(self):
        with pytest.raises(AttributeError):
            PipelineCosts().per_profile = 1.0


class TestPipelineStats:
    def test_remaining_budget_defaults_none(self):
        stats = PipelineStats(now=0.0, input_rate=None, mean_match_cost=1e-4, backlog=0)
        assert stats.remaining_budget is None


class TestERSystemDefaults:
    def test_base_hooks(self):
        system = ERSystem()
        assert system.ready_for_ingest()
        stats = PipelineStats(now=0.0, input_rate=None, mean_match_cost=1e-4, backlog=0)
        assert system.on_idle(stats) is None
        assert system.describe() == {"name": "er-system"}

    def test_abstract_methods_raise(self):
        system = ERSystem()
        with pytest.raises(NotImplementedError):
            system.ingest(Increment(0, ()))
        with pytest.raises(NotImplementedError):
            system.has_work()
        with pytest.raises(NotImplementedError):
            system.emit(
                PipelineStats(now=0.0, input_rate=None, mean_match_cost=1e-4, backlog=0)
            )
