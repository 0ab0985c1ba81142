"""The batched idle fill against the per-block fill it replaced.

``IncrPrioritization.on_empty_increment`` offers every block it drains in
one call and counts its ``strategy.*`` metrics once per fill; while the
pending pairs fit in the index's ``room()`` it reads the index size as
held + pending, and past that it offers and reads ``len()`` back.
``tests/reference/per_block_fill.py`` is the fill as it was: one offer and
one round of counts per block, weights from key-set intersections.  Per
fill the two must return the same cost (float ``==``), and leave the same
size, drain order, counters and refill cursor and heap; whole runs must
emit the same ``(pid, pid)`` sequence.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.increments import Increment, make_stream_plan, split_into_increments
from repro.datasets.registry import load_dataset
from repro.pier.base import PierSystem
from repro.pier.ipcs import IPCS
from repro.pier.ipes import IPES
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine

from tests.conftest import build_matcher, make_profile
from tests.reference.per_block_fill import PerBlockIPCS, PerBlockIPES

VOCABULARY = ("ash", "birch", "cedar", "dogwood", "elm", "fir")

#: Strategy under test and its per-block twin, each with an index of
#: ``capacity`` (I-PES: its overflow ``PQ``).
STRATEGIES = {
    "I-PCS": (
        lambda capacity: IPCS(beta=0.01, capacity=capacity),
        lambda capacity: PerBlockIPCS(beta=0.01, capacity=capacity),
    ),
    "I-PES": (
        lambda capacity: IPES(beta=0.01, overflow_capacity=capacity),
        lambda capacity: PerBlockIPES(beta=0.01, overflow_capacity=capacity),
    ),
}

_profile = st.tuples(
    st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=4, unique=True),
    st.integers(0, 1),
)
#: One step: profiles arrive (offered as an increment, or only indexed, so
#: that their blocks wait for a fill), a fill runs with a drawn ``target``
#: and ``until``, and a round of ``count`` runs.
_step = st.tuples(
    st.lists(_profile, max_size=5),
    st.booleans(),
    st.integers(1, 40),
    st.one_of(st.none(), st.floats(0.0, 3e-4)),
    st.integers(0, 8),
)


def _state(system: PierSystem) -> tuple:
    """Size, drain order (on a copy), ``strategy.*`` counters and the
    refill's cursor and heap."""
    strategy = copy.deepcopy(system.strategy)
    drained = strategy.dequeue_batch(10**9, set(system.store.executed))
    counters = {
        name: value
        for name, value in system.metrics.snapshot()["counters"].items()
        if name.startswith("strategy.")
    }
    return len(system.strategy), drained, counters, system.strategy.refill.snapshot_state()


@pytest.mark.parametrize("clean_clean", [True, False], ids=["clean-clean", "dirty"])
@pytest.mark.parametrize("name", sorted(STRATEGIES))
@given(
    steps=st.lists(_step, min_size=1, max_size=8),
    capacity=st.sampled_from([None, 1, 2, 5]),
)
@settings(max_examples=120, deadline=None)
def test_fill_equals_per_block_fill(name, clean_clean, steps, capacity):
    make_strategy, make_oracle = STRATEGIES[name]
    system = PierSystem(make_strategy(capacity), clean_clean=clean_clean, max_block_size=8)
    oracle = PierSystem(make_oracle(capacity), clean_clean=clean_clean, max_block_size=8)
    next_pid = 0
    for index, (arrivals, offered, target, until, count) in enumerate(steps):
        profiles = []
        for tokens, source in arrivals:
            profiles.append(make_profile(next_pid, " ".join(tokens), source=source))
            next_pid += 1
        increment = Increment(index, tuple(profiles))
        for each in (system, oracle):
            if offered:
                each.ingest(increment)
            else:
                each._index(increment)  # blocks only: they wait for a fill
        cost = system.strategy.on_empty_increment(system, target, until)
        assert cost == oracle.strategy.on_empty_increment(oracle, target, until)
        assert _state(system) == _state(oracle)
        got = system.strategy.dequeue_batch(count, system.store.executed)
        assert got == oracle.strategy.dequeue_batch(count, oracle.store.executed)


#: (dataset, scale, Clean-Clean?): census_2m is the ``blocks_js`` dataset
#: (Dirty ER), dblp_acm the ``stream_js`` one, at the ledger's tiny scale.
DATASETS = {
    "clean-clean": ("dblp_acm", 0.1, True),
    "dirty": ("census_2m", 0.1, False),
}
ENGINES = {"serial": StreamingEngine, "pipelined": PipelinedStreamingEngine}
SYSTEMS = {"I-PCS": (IPCS, PerBlockIPCS), "I-PES": (IPES, PerBlockIPES)}


def _run(strategy, dataset, plan, clean_clean, engine):
    """Run to exhaustion; the pairs the strategy handed out, in order."""
    emitted: list[tuple[int, int]] = []
    dequeue_batch = strategy.dequeue_batch

    def recording(count, executed):
        batch, stale = dequeue_batch(count, executed)
        emitted.extend(batch)
        return batch, stale

    strategy.dequeue_batch = recording
    pier = PierSystem(strategy, clean_clean=clean_clean)
    result = ENGINES[engine](build_matcher("JS"), budget=1e9).run(
        pier, plan, dataset.ground_truth
    )
    assert result.work_exhausted
    return emitted, result


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("kind", sorted(DATASETS))
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_slow_stream_emits_the_per_block_sequence(name, kind, engine, seed):
    """The ``stream_js`` shape (rate 1, JS) leaves idle time for fills of
    many blocks: the same pairs in the same order, the same counters."""
    dataset_name, scale, clean_clean = DATASETS[kind]
    dataset = load_dataset(dataset_name, scale, seed)
    plan = make_stream_plan(split_into_increments(dataset, 50, seed=seed), rate=1.0)
    make_strategy, make_oracle = SYSTEMS[name]
    emitted, result = _run(make_strategy(), dataset, plan, clean_clean, engine)
    expected, oracle = _run(make_oracle(), dataset, plan, clean_clean, engine)
    assert repr(emitted).encode() == repr(expected).encode()
    assert len(emitted) == result.comparisons_executed > 100
    assert result.duplicates == oracle.duplicates
    counters = result.details["metrics"]["counters"]
    oracle_counters = oracle.details["metrics"]["counters"]
    assert {key: value for key, value in counters.items() if key.startswith("strategy.")} == {
        key: value for key, value in oracle_counters.items() if key.startswith("strategy.")
    }
    assert counters["strategy.refill_batches"] > counters["engine.idle_rounds"]
