"""Unit tests for the shared :class:`ComparisonStore`.

The store is the executed set of every ER system; these tests pin down
its rules (a pair is claimed once, what a snapshot round-trip restores,
what it does with a snapshot written when it still carried I-PBS's Bloom
filter, counted emissions or held a quarantine).
"""

from __future__ import annotations

import copy

from repro.execution.store import ComparisonStore


def test_mark_executed_claims_exactly_once():
    store = ComparisonStore()
    assert store.mark_executed((1, 2)) is True
    assert store.mark_executed((1, 2)) is False
    assert store.was_executed(1, 2)
    # was_executed canonicalizes argument order.
    assert store.was_executed(2, 1)
    assert not store.was_executed(1, 3)


def test_snapshot_round_trip():
    store = ComparisonStore()
    store.mark_executed((1, 2))
    store.mark_executed((3, 4))
    state = copy.deepcopy(store.snapshot_state())

    store.mark_executed((7, 8))

    store.restore_state(state)
    assert store.executed == {(1, 2), (3, 4)}


def test_snapshot_is_isolated_from_later_mutation():
    store = ComparisonStore()
    store.mark_executed((1, 2))
    state = store.snapshot_state()
    store.mark_executed((3, 4))
    assert state["executed"] == {(1, 2)}


def test_restore_without_bloom_state():
    """Snapshots carry no filter, no emission counts and no quarantine any
    more; one written when they did (stray ``"bloom"``, ``"emitted"``,
    ``"stale_dequeues"`` and ``"quarantined"`` entries, whatever they hold)
    restores all the same."""
    store = ComparisonStore()
    store.mark_executed((1, 2))
    state = store.snapshot_state()
    assert set(state) == {"executed"}
    for snapshot in (
        state,
        {**state, "bloom": None},
        {**state, "bloom": {"slices": []}},
        {**state, "emitted": 8, "stale_dequeues": 2},
        {**state, "quarantined": {(5, 6)}},
    ):
        target = ComparisonStore()
        target.restore_state(snapshot)
        assert target.executed == {(1, 2)}
        assert target.snapshot_state() == state
