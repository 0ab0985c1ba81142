"""The refill's delta drain against the full-rescan oracle.

``GetComparisons`` enumerates only the pairs of a grown block that involve a
member past its cursor.  These tests hold it to the enumeration it replaced
(``tests/reference/full_rescan_refill.py``): same blocks in the same order,
same comparisons, weights and op counts — and no pair enumerated twice.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.blocks import BlockCollection
from repro.blocking.substrate import BLOCKING_SUBSTRATES, BlockingConfig, make_collection
from repro.core.increments import make_stream_plan, split_into_increments
from repro.matching.matcher import JaccardMatcher
from repro.metablocking.weights import make_scheme
from repro.pier.base import GetComparisons, PierSystem
from repro.pier.ipcs import IPCS
from repro.pier.ipes import IPES
from repro.streaming.engine import StreamingEngine

from tests.conftest import make_profile
from tests.reference.full_rescan_refill import FullRescanRefill

VOCABULARY = ("ash", "birch", "cedar", "dogwood")

_profile = st.tuples(
    st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=2, unique=True),
    st.integers(0, 1),
)
#: One round: arrivals, then that many drains, then every ``step``-th pending
#: pair is executed, then (maybe) the refill goes through a checkpoint.
_round = st.tuples(
    st.lists(_profile, min_size=1, max_size=3),
    st.integers(0, 4),
    st.integers(1, 3),
    st.booleans(),
)


@pytest.mark.parametrize("clean_clean", [True, False], ids=["clean-clean", "dirty"])
@pytest.mark.parametrize("substrate", BLOCKING_SUBSTRATES)
@given(
    rounds=st.lists(_round, min_size=1, max_size=12),
    scheme_name=st.sampled_from(["cbs", "js", "arcs"]),
)
@settings(max_examples=60, deadline=None)
def test_delta_drain_matches_full_rescan(substrate, clean_clean, rounds, scheme_name):
    """Interleaved arrivals, drains, executions, purges and checkpoints.

    A block purges once it outgrows ``max_block_size=5``.  Pairs left
    unexecuted after they were offered are the one place the two differ:
    the rescan offers them again when their block grows, the delta drain
    does not (``offered`` takes them out of the oracle's answer).
    """
    collection = make_collection(
        BlockingConfig(substrate=substrate, lsh_bands=4, lsh_rows=1, lsh_seed=3),
        clean_clean=clean_clean,
        max_block_size=5,
    )
    scheme = make_scheme(scheme_name)
    refill = GetComparisons(scheme)
    oracle = FullRescanRefill(scheme)
    executed: set[tuple[int, int]] = set()
    pending: list[tuple[int, int]] = []
    offered: dict[str, set[tuple[int, int]]] = {}
    was_executed = lambda left, right: (left, right) in executed
    pid = 0
    for arrivals, drains, step, checkpoint in rounds:
        for tokens, source in arrivals:
            collection.add_profile(make_profile(pid, " ".join(tokens), source=source))
            pid += 1
        for _ in range(drains):
            expected = oracle.next_batch(collection, was_executed)
            result = refill.next_batch(collection, was_executed)
            if expected is None:
                assert result is None
                break
            seen = offered.setdefault(oracle.last_key, set())
            fresh = [weighted for weighted in expected[0] if weighted.pair not in seen]
            assert result == (fresh, len(fresh))
            assert refill.last_scanned >= len(fresh)
            seen.update(weighted.pair for weighted in fresh)
            pending.extend(weighted.pair for weighted in fresh)
        executed.update(pending[::step])
        del pending[::step]
        if checkpoint:
            state = copy.deepcopy(refill.snapshot_state())
            refill = GetComparisons(scheme)
            refill.restore_state(state)
    assert refill.is_exhausted(collection) == (
        oracle.next_batch(collection, was_executed) is None
    )


def test_purged_block_leaves_the_checkpoint():
    """A drained block that is purged later must not ride along forever."""
    collection = BlockCollection(max_block_size=2)
    collection.add_profile(make_profile(0, "doomed kept"))
    collection.add_profile(make_profile(1, "doomed kept"))
    refill = GetComparisons()
    nothing_executed = lambda left, right: False
    while refill.next_batch(collection, nothing_executed) is not None:
        pass
    assert set(refill.snapshot_state()["cursor"]) == {"doomed", "kept"}
    collection.add_profile(make_profile(2, "doomed"))  # third member: purged
    assert "doomed" not in collection
    assert refill.next_batch(collection, nothing_executed) is None
    assert set(refill.snapshot_state()["cursor"]) == {"kept"}


@pytest.mark.parametrize("strategy_cls", [IPCS, IPES])
def test_no_block_pair_is_enumerated_twice(strategy_cls, small_dblp_acm):
    """On a slow stream idle refills revisit blocks while they still grow;
    at exhaustion the pairs scanned stay within the pairs the blocks hold."""
    system = PierSystem(strategy_cls(), clean_clean=True, max_block_size=None)
    plan = make_stream_plan(split_into_increments(small_dblp_acm, 40, seed=1), rate=2.0)
    engine = StreamingEngine(JaccardMatcher(0.4), budget=1e9)
    result = engine.run(system, plan, small_dblp_acm.ground_truth)
    assert result.work_exhausted
    counters = result.details["metrics"]["counters"]
    # Blocks were revisited (else the bound below would hold trivially) ...
    drainable = sum(1 for block in system.collection if len(block) >= 2)
    assert counters["strategy.refill_batches"] > drainable
    # ... and every revisit paid for its new members only.
    assert 0 < counters["strategy.refill_pairs_scanned"] <= system.collection.total_comparisons()
