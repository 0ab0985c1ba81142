"""One emission round in one call, against one ``dequeue`` per comparison.

``PierSystem.emit`` takes a round through ``strategy.dequeue_batch``.  For
I-PCS, I-PBS and I-PES that call must hand out the same comparisons in the
same order, step over the same stale ones and leave the same index behind
as the loop it replaced (``tests/reference/emit_loop.py``): through
arrivals, idle refills, rounds of every size, pairs executed behind the
index's back, and indexes small enough to evict.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.increments import Increment
from repro.pier.base import PierSystem
from repro.pier.ipbs import IPBS
from repro.pier.ipcs import IPCS
from repro.pier.ipes import IPES
from repro.streaming.system import PipelineStats

from tests.conftest import make_profile
from tests.reference.emit_loop import ipbs_dequeue, ipcs_dequeue, ipes_dequeue, per_pair_round

VOCABULARY = ("ash", "birch", "cedar", "dogwood", "elm")
STATS = PipelineStats(now=0.0, input_rate=None, mean_match_cost=1e-4, backlog=0)

#: Strategy with an index of ``capacity`` (I-PES: its overflow ``PQ``; I-PBS's
#: runs have no bound), and the per-comparison ``dequeue`` it had.
STRATEGIES = {
    "I-PCS": (lambda capacity: IPCS(beta=0.01, capacity=capacity), ipcs_dequeue),
    "I-PBS": (lambda capacity: IPBS(), ipbs_dequeue),
    "I-PES": (lambda capacity: IPES(beta=0.01, overflow_capacity=capacity), ipes_dequeue),
}

_profile = st.tuples(
    st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=3, unique=True),
    st.integers(0, 1),
)
#: One step: an increment arrives (maybe empty), some queued pairs are
#: executed behind the index's back (every ``stale``-th of the ones due
#: next, 0: none), a round of ``count`` runs, and the stream maybe idles.
_step = st.tuples(
    st.lists(_profile, max_size=4),
    st.integers(0, 3),
    st.integers(0, 12),
    st.booleans(),
)


def _state(system: PierSystem, dequeue) -> tuple:
    """What the strategy reads like: sizes, gauges, what it would hand out
    next (on a copy), and I-PBS's ``queued`` set."""
    strategy = copy.deepcopy(system.strategy)
    upcoming = []
    while (pair := dequeue(strategy)) is not None:
        upcoming.append(pair)
    return (
        len(system.strategy),
        system.strategy.gauges(),
        upcoming,
        getattr(system.strategy, "queued", None),
    )


@pytest.mark.parametrize("clean_clean", [True, False], ids=["clean-clean", "dirty"])
@pytest.mark.parametrize("name", sorted(STRATEGIES))
@given(
    steps=st.lists(_step, min_size=1, max_size=10),
    capacity=st.sampled_from([1, 3, 1000]),
)
@settings(max_examples=60, deadline=None)
def test_round_equals_per_pair_loop(name, clean_clean, steps, capacity):
    make_strategy, dequeue = STRATEGIES[name]
    system = PierSystem(make_strategy(capacity), clean_clean=clean_clean, max_block_size=6)
    twin = PierSystem(make_strategy(capacity), clean_clean=clean_clean, max_block_size=6)
    next_pid = 0
    for index, (arrivals, stale_every, count, idle) in enumerate(steps):
        profiles = []
        for tokens, source in arrivals:
            profiles.append(make_profile(next_pid, " ".join(tokens), source=source))
            next_pid += 1
        increment = Increment(index, tuple(profiles))
        assert system.ingest(increment) == twin.ingest(increment)
        if stale_every:
            due = _state(system, dequeue)[2]
            for executed in (system.store.executed, twin.store.executed):
                executed.update(due[::stale_every])
        got = system.strategy.dequeue_batch(count, system.store.executed)
        expected = per_pair_round(
            lambda: dequeue(twin.strategy), count, twin.store.executed
        )
        assert got == expected
        assert system.store.executed == twin.store.executed
        assert _state(system, dequeue) == _state(twin, dequeue)
        if idle:
            assert system.on_idle(STATS) == twin.on_idle(STATS)
    assert system.metrics.snapshot()["counters"] == twin.metrics.snapshot()["counters"]


def test_ipes_round_falls_back_to_overflow():
    """A round larger than the entity structures goes on into ``PQ`` and
    steps over a stale pair there too."""
    strategy, twin = IPES(), IPES()
    # The last two improve neither endpoint's best and sit below the average.
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3)]
    weights = [3.0, 3.0, 3.0, 3.0, 1.0, 0.5]
    for each in (strategy, twin):
        routes = each.offer(pairs, weights)
        assert (routes["inserted_entity"], routes["inserted_overflow"]) == (4, 2)
    overflow = copy.deepcopy(strategy.overflow)
    overflowed = [overflow.dequeue() for _ in range(len(overflow))]
    executed, twin_executed = {overflowed[0]}, {overflowed[0]}
    got = strategy.dequeue_batch(len(pairs), executed)
    assert got == per_pair_round(lambda: ipes_dequeue(twin), len(pairs), twin_executed)
    assert got[1] == [overflowed[0]]
    assert len(got[0]) == len(pairs) - 1 and len(strategy) == 0
    assert executed == twin_executed
