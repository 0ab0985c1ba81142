"""Tests for the LS-PSN / GS-PSN progressive baselines (extensions)."""

from __future__ import annotations

import pytest

from repro.core.increments import Increment
from repro.progressive.psn import GSPSNSystem, LSPSNSystem
from repro.streaming.system import PipelineStats

from tests.conftest import make_profile


def _stats() -> PipelineStats:
    return PipelineStats(now=0.0, input_rate=None, mean_match_cost=1e-4, backlog=0)


def _drain(system, max_rounds=300):
    pairs = []
    empty_streak = 0
    for _ in range(max_rounds):
        result = system.emit(_stats())
        pairs.extend(result.batch)
        if result.batch:
            empty_streak = 0
            continue
        empty_streak += 1
        if empty_streak >= 2:
            break
    return pairs


PROFILES = (
    make_profile(0, "aardvark"),
    make_profile(1, "aardvark"),
    make_profile(2, "zebra"),
    make_profile(3, "zebra"),
    make_profile(4, "aardvark zebra"),
)


class TestLSPSN:
    def test_window_one_pairs_first(self):
        system = LSPSNSystem()
        system.ingest(Increment(0, PROFILES))
        system.emit(_stats())  # init
        pairs = _drain(system)
        # adjacent-in-array pairs (token neighbors) come before distant ones
        assert (0, 1) in pairs[:4]
        assert (2, 3) in pairs[:6]

    def test_no_duplicate_pairs(self):
        system = LSPSNSystem()
        system.ingest(Increment(0, PROFILES))
        system.emit(_stats())
        pairs = _drain(system)
        assert len(pairs) == len(set(pairs))

    def test_window_cap(self):
        tight = LSPSNSystem(max_window=1)
        tight.ingest(Increment(0, PROFILES))
        tight.emit(_stats())
        wide = LSPSNSystem(max_window=10)
        wide.ingest(Increment(0, PROFILES))
        wide.emit(_stats())
        assert len(_drain(tight)) <= len(_drain(wide))

    def test_validation(self):
        with pytest.raises(ValueError):
            LSPSNSystem(max_window=0)

    def test_clean_clean_filter(self):
        system = LSPSNSystem(clean_clean=True)
        profiles = (
            make_profile(0, "tok", source=0),
            make_profile(1, "tok", source=0),
            make_profile(2, "tok", source=1),
        )
        system.ingest(Increment(0, profiles))
        system.emit(_stats())
        assert set(_drain(system)) <= {(0, 2), (1, 2)}


class TestGSPSN:
    def test_frequent_coocurrence_first(self):
        system = GSPSNSystem(max_window=4)
        system.ingest(Increment(0, PROFILES))
        system.emit(_stats())
        pairs = _drain(system)
        assert pairs  # emits something
        # profile 4 co-occurs in both token neighborhoods → its pairs and the
        # same-token pairs carry the highest frequencies
        assert set(pairs[:3]) & {(0, 1), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)}

    def test_init_heavier_than_lspsn(self):
        profiles = tuple(make_profile(i, f"shared tok{i % 4}") for i in range(40))
        ls, gs = LSPSNSystem(), GSPSNSystem()
        ls.ingest(Increment(0, profiles))
        gs.ingest(Increment(0, profiles))
        assert gs.emit(_stats()).cost > ls.emit(_stats()).cost

    def test_validation(self):
        with pytest.raises(ValueError):
            GSPSNSystem(max_window=0)

    def test_runs_via_factory(self, toy_dirty_dataset):
        from tests.conftest import build_system

        for name in ("LS-PSN", "GS-PSN"):
            system = build_system(name, toy_dirty_dataset)
            assert system.name == name
