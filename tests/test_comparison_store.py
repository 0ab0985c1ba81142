"""Unit tests for the shared :class:`ComparisonStore`.

The store centralizes executed-set, quarantine and emission accounting for
every ER system; these tests pin down its lifecycle rules (what survives
``begin_run``, what a snapshot round-trip restores, what it does with a
snapshot written when it still carried I-PBS's Bloom filter).
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


def test_emission_accounting_accumulates():
    store = ComparisonStore()
    store.record_emission(5)
    store.record_emission(3, stale=2)
    assert store.emitted == 8
    assert store.stale_dequeues == 2


def test_begin_run_clears_only_quarantine():
    store = ComparisonStore()
    store.mark_executed((1, 2))
    store.record_emission(1)
    store.quarantine((3, 4))
    store.begin_run()
    # Quarantine is per-run state...
    assert store.quarantined == set()
    # ...but the executed set and accounting share the system's lifetime.
    assert store.was_executed(1, 2)
    assert store.emitted == 1


def test_snapshot_round_trip():
    store = ComparisonStore()
    store.mark_executed((1, 2))
    store.mark_executed((3, 4))
    store.quarantine((5, 6))
    store.record_emission(2, stale=1)
    state = copy.deepcopy(store.snapshot_state())

    store.mark_executed((7, 8))
    store.quarantine((9, 10))
    store.record_emission(4)

    store.restore_state(state)
    assert store.executed == {(1, 2), (3, 4)}
    assert store.quarantined == {(5, 6)}
    assert store.emitted == 2
    assert store.stale_dequeues == 1


def test_snapshot_is_isolated_from_later_mutation():
    store = ComparisonStore()
    store.mark_executed((1, 2))
    state = store.snapshot_state()
    store.mark_executed((3, 4))
    assert state["executed"] == {(1, 2)}


def test_restore_without_bloom_state():
    """Snapshots carry no filter any more; one written when they did (a
    stray ``"bloom"`` entry, whatever it holds) restores all the same."""
    store = ComparisonStore()
    store.mark_executed((1, 2))
    state = store.snapshot_state()
    assert "bloom" not in state
    for snapshot in (state, {**state, "bloom": None}, {**state, "bloom": {"slices": []}}):
        target = ComparisonStore()
        target.restore_state(snapshot)
        assert target.executed == {(1, 2)}
        assert target.snapshot_state() == state
