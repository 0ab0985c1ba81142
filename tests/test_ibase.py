"""Tests for the I-BASE incremental baseline."""

from __future__ import annotations

from repro.core.increments import Increment
from repro.incremental.ibase import IBaseSystem
from repro.streaming.system import PipelineStats

from tests.conftest import make_profile


def _stats() -> PipelineStats:
    return PipelineStats(now=0.0, input_rate=None, mean_match_cost=1e-4, backlog=0)


class TestIBase:
    def test_ingest_generates_fifo_work(self):
        system = IBaseSystem()
        system.ingest(Increment(0, (make_profile(0, "a1 b1"), make_profile(1, "a1 b1"))))
        assert system.backlog > 0
        result = system.emit(_stats())
        assert (0, 1) in result.batch

    def test_emit_chunked(self):
        system = IBaseSystem(chunk_size=2)
        profiles = tuple(make_profile(pid, "shared") for pid in range(6))
        system.ingest(Increment(0, profiles))
        result = system.emit(_stats())
        assert len(result.batch) == 2

    def test_no_duplicate_work(self):
        system = IBaseSystem()
        system.ingest(Increment(0, (make_profile(0, "a1 b1"), make_profile(1, "a1 b1"))))
        seen = set()
        while system.backlog:
            for pair in system.emit(_stats()).batch:
                assert pair not in seen
                seen.add(pair)

    def test_backpressure(self):
        system = IBaseSystem(high_watermark=3)
        profiles = tuple(make_profile(pid, "shared") for pid in range(8))
        system.ingest(Increment(0, profiles))
        assert system.backlog >= 3
        assert not system.ready_for_ingest()
        while system.backlog >= 3:
            system.emit(_stats())
        assert system.ready_for_ingest()

    def test_no_idle_work(self):
        """I-BASE does nothing while waiting — no globality."""
        system = IBaseSystem()
        system.ingest(Increment(0, (make_profile(0, "a1 b1"), make_profile(1, "a1 b1"))))
        while system.backlog:
            system.emit(_stats())
        assert system.on_idle(_stats()) is None

    def test_not_adaptive(self):
        """Work per increment is independent of rates (fixed chunk size)."""
        system = IBaseSystem(chunk_size=4)
        profiles = tuple(make_profile(pid, "shared") for pid in range(8))
        system.ingest(Increment(0, profiles))
        fast = system.emit(
            PipelineStats(now=0.0, input_rate=1000.0, mean_match_cost=1.0, backlog=0)
        )
        slow = system.emit(
            PipelineStats(now=0.0, input_rate=0.001, mean_match_cost=1e-9, backlog=0)
        )
        assert len(fast.batch) == len(slow.batch) == 4

    def test_clean_clean_cross_source_only(self):
        system = IBaseSystem(clean_clean=True)
        profiles = (
            make_profile(0, "tok", source=0),
            make_profile(1, "tok", source=0),
            make_profile(2, "tok", source=1),
        )
        system.ingest(Increment(0, profiles))
        pairs = []
        while system.backlog:
            pairs.extend(system.emit(_stats()).batch)
        assert set(pairs) <= {(0, 2), (1, 2)}

    def test_profile_lookup(self):
        system = IBaseSystem()
        profile = make_profile(5, "x1")
        system.ingest(Increment(0, (profile,)))
        assert system.profiles[5] is profile

    def test_describe(self):
        system = IBaseSystem()
        assert system.describe()["name"] == "I-BASE"
