"""Tests for the bounded max-priority queue, incl. hypothesis model checks."""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.priority.bounded_pq import BoundedPriorityQueue

from tests.reference.emit_loop import per_pair_round
from tests.reference.ipes_bounded_queues import top_key


def _drain(queue) -> list:
    """Every item in pop order, emptying the queue."""
    return [queue.dequeue() for _ in range(len(queue))]


def _dequeue_with_key(queue) -> tuple:
    """The top item and its key: ``top_key`` names what ``dequeue`` pops."""
    key = top_key(queue)
    return queue.dequeue(), key


class TestBasics:
    def test_dequeue_order_descending(self):
        queue = BoundedPriorityQueue()
        for item, key in [("a", 1.0), ("b", 3.0), ("c", 2.0)]:
            queue.enqueue(item, key)
        assert _drain(queue) == ["b", "c", "a"]

    def test_fifo_on_ties(self):
        queue = BoundedPriorityQueue()
        queue.enqueue("first", 1.0)
        queue.enqueue("second", 1.0)
        assert queue.dequeue() == "first"
        assert queue.dequeue() == "second"

    def test_len_and_bool(self):
        queue = BoundedPriorityQueue()
        assert not queue
        queue.enqueue("x", 1.0)
        assert queue
        assert len(queue) == 1

    def test_dequeue_empty_raises(self):
        with pytest.raises(IndexError):
            BoundedPriorityQueue().dequeue()

    def test_peek(self):
        queue = BoundedPriorityQueue()
        queue.enqueue("a", 1.0)
        queue.enqueue("b", 2.0)
        assert top_key(queue) == 2.0
        assert len(queue) == 2  # reading the top does not remove it
        assert queue.dequeue() == "b"
        assert top_key(queue) == 1.0

    def test_peek_empty_raises(self):
        with pytest.raises(IndexError):
            top_key(BoundedPriorityQueue())

    def test_peek_key_names_the_next_dequeue(self):
        queue = BoundedPriorityQueue()
        queue.enqueue("a", 4.2)
        assert _dequeue_with_key(queue) == ("a", 4.2)

    def test_clear(self):
        queue = BoundedPriorityQueue()
        queue.enqueue("a", 1.0)
        queue.clear()
        assert len(queue) == 0


class TestBounding:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BoundedPriorityQueue(capacity=0)

    def test_eviction_of_minimum(self):
        queue = BoundedPriorityQueue(capacity=2)
        assert queue.enqueue("low", 1.0)
        assert queue.enqueue("high", 3.0)
        assert queue.enqueue("mid", 2.0)  # evicts "low"
        assert len(queue) == 2
        assert sorted(_drain(queue)) == ["high", "mid"]

    def test_rejection_of_underweight(self):
        queue = BoundedPriorityQueue(capacity=2)
        queue.enqueue("a", 2.0)
        queue.enqueue("b", 3.0)
        assert not queue.enqueue("c", 1.0)
        assert len(queue) == 2
        assert _drain(queue) == ["b", "a"]

    def test_equal_key_rejected_when_full(self):
        queue = BoundedPriorityQueue(capacity=1)
        queue.enqueue("a", 1.0)
        assert not queue.enqueue("b", 1.0)

    def test_dequeued_entry_is_not_evicted_again(self):
        """An entry that left through the top is dead to the min view too."""
        queue = BoundedPriorityQueue(capacity=2)
        queue.enqueue("a", 1.0)
        queue.enqueue("b", 1.0)
        assert not queue.enqueue("c", 1.0)  # full: the min view exists from here
        assert queue.dequeue() == "a"
        assert queue.enqueue("d", 2.0)
        assert queue.enqueue("e", 2.0)  # evicts "b"
        assert not queue.enqueue("f", 2.0)  # "a" is gone: the minimum is 2.0
        assert len(queue) == 2
        assert _drain(queue) == ["d", "e"]

    def test_evicted_entry_is_not_dequeued(self):
        """... and one that left through the bottom is dead to the top."""
        queue = BoundedPriorityQueue(capacity=2)
        queue.enqueue("low", 1.0)
        queue.enqueue("mid", 2.0)
        assert queue.enqueue("high", 3.0)  # evicts "low"
        assert queue.dequeue() == "high"
        assert queue.dequeue() == "mid"
        assert not queue
        with pytest.raises(IndexError):
            top_key(queue)

    def test_size_never_exceeds_capacity(self):
        queue = BoundedPriorityQueue(capacity=3)
        for i in range(100):
            queue.enqueue(i, float(i % 17))
            assert len(queue) <= 3


class TestHypothesisModel:
    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), max_size=80))
    @settings(max_examples=80)
    def test_unbounded_matches_sorted_reference(self, keys):
        queue = BoundedPriorityQueue()
        for index, key in enumerate(keys):
            queue.enqueue(index, key)
        drained_keys = []
        while queue:
            _, key = _dequeue_with_key(queue)
            drained_keys.append(key)
        assert drained_keys == sorted(keys, reverse=True)

    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=60),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=80)
    def test_bounded_keeps_heaviest(self, keys, capacity):
        """After all insertions, the queue holds a maximal multiset of keys."""
        queue = BoundedPriorityQueue(capacity=capacity)
        for index, key in enumerate(keys):
            queue.enqueue(index, key)
        kept = sorted((_dequeue_with_key(queue)[1] for _ in range(len(queue))), reverse=True)
        expected = sorted(keys, reverse=True)[: len(kept)]
        assert kept == expected
        assert len(kept) <= capacity

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 20)), max_size=80))
    @settings(max_examples=60)
    def test_interleaved_ops_vs_model(self, operations):
        """Interleaved enqueue/dequeue agrees with a sorted-list model."""
        queue = BoundedPriorityQueue()
        model: list[int] = []
        counter = 0
        for is_dequeue, key in operations:
            if is_dequeue and model:
                expected = max(model)
                model.remove(expected)
                _, got = _dequeue_with_key(queue)
                assert got == expected
            else:
                queue.enqueue(counter, key)
                model.append(key)
                counter += 1
        assert len(queue) == len(model)


#: Few distinct values, so ties (FIFO out, newest evicted first) are common.
_float_keys = st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0])
_enqueue = st.tuples(st.just("enqueue"), st.integers(0, 2))  # index into the key pool
_steps = st.one_of(
    _enqueue,
    _enqueue,
    _enqueue,  # three times as likely as a dequeue, so queues fill up
    st.tuples(st.just("dequeue"), st.booleans()),  # ... with its key?
    st.tuples(st.just("deepcopy"), st.just(None)),
)


def _rank(entry):
    """Model order: by key, the older of two equal keys ranking higher."""
    key, seq, _item = entry
    return (key, -seq)


class TestSortedListModel:
    """Every observable of the queue against a list kept sorted by hand.

    The model holds ``(key, seq, item)`` triples; the top is the maximum of
    :func:`_rank` and the eviction victim its minimum.  A capacity below the
    stream length makes the queue build its min view mid-stream, after
    entries were already dequeued, and evictions leave tombstones in the max
    heap for ``dequeue`` (and the test-side ``top_key``) to step over.  An
    eviction shows in the contents and ``len()``, a refusal in the return
    value of ``enqueue``.
    """

    @given(
        st.lists(_float_keys, min_size=3, max_size=3),
        st.one_of(st.none(), st.integers(1, 4)),
        st.lists(_steps, max_size=80),
    )
    @settings(max_examples=300, deadline=None)
    def test_queue_matches_model(self, key_pool, capacity, steps):
        queue = BoundedPriorityQueue(capacity)
        model: list[tuple] = []
        for seq, (step, argument) in enumerate(steps):
            if step == "enqueue":
                key = key_pool[argument]
                accepted = True
                if capacity is not None and len(model) >= capacity:
                    victim = min(model, key=_rank)
                    if key > victim[0]:
                        model.remove(victim)
                    else:
                        accepted = False
                assert queue.enqueue(f"item{seq}", key) is accepted
                if accepted:
                    model.append((key, seq, f"item{seq}"))
            elif step == "deepcopy":
                queue = copy.deepcopy(queue)
            elif model:
                top = max(model, key=_rank)
                model.remove(top)
                if argument:
                    assert _dequeue_with_key(queue) == (top[2], top[0])
                else:
                    assert queue.dequeue() == top[2]
            else:
                with pytest.raises(IndexError):
                    queue.dequeue()
            assert len(queue) == len(model) and bool(queue) == bool(model)
            if model:
                top = max(model, key=_rank)
                assert top_key(queue) == top[0]
        assert _drain(queue) == [
            entry[2] for entry in sorted(model, key=_rank, reverse=True)
        ]


#: Item ids repeat, so a popped item may have been claimed already (stale).
_items = st.integers(0, 5)
_batch_steps = st.one_of(
    st.tuples(st.just("enqueue"), st.tuples(_items, st.integers(0, 2))),
    st.tuples(st.just("enqueue_batch"), st.lists(st.tuples(_items, st.integers(0, 2)), max_size=7)),
    st.tuples(st.just("enqueue_batch"), st.lists(st.tuples(_items, st.integers(0, 2)), max_size=7)),
    st.tuples(st.just("dequeue"), st.none()),
    st.tuples(st.just("pop_batch"), st.integers(0, 9)),
    st.tuples(st.just("pop_batch"), st.integers(0, 9)),
    st.tuples(st.just("deepcopy"), st.none()),
)


def _live_entries(queue) -> tuple[int, int | None]:
    """Entries of the max heap and of the min view that are not dead."""
    dead = queue._dead or set()
    in_max = sum(1 for entry in queue._heap if entry[1] not in dead)
    if queue._min_heap is None:
        return in_max, None
    return in_max, sum(1 for _, negated_seq in queue._min_heap if -negated_seq not in dead)


class TestBatchOperations:
    """``enqueue_batch`` / ``pop_batch`` against a twin fed one item at a time.

    Few distinct keys make ties the rule; capacities of one to eight make
    the batches evict, be refused, and leave dead entries behind for
    ``pop_batch`` to step over, and a copy mid-sequence must carry it all.
    """

    @given(
        st.lists(_float_keys, min_size=3, max_size=3),
        st.sampled_from([None, 1, 3, 8]),
        st.lists(_batch_steps, max_size=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_batches_match_per_item_calls(self, key_pool, capacity, steps):
        queue, twin = BoundedPriorityQueue(capacity), BoundedPriorityQueue(capacity)
        executed: set[int] = set()
        twin_executed: set[int] = set()
        for step, argument in steps:
            if step == "enqueue":
                item, key = argument[0], key_pool[argument[1]]
                assert queue.enqueue(item, key) == twin.enqueue(item, key)
            elif step == "enqueue_batch":
                items = [item for item, _ in argument]
                keys = [key_pool[index] for _, index in argument]
                queue.enqueue_batch(items, keys)
                for item, key in zip(items, keys):
                    twin.enqueue(item, key)
            elif step == "dequeue":
                if twin:
                    assert _dequeue_with_key(queue) == _dequeue_with_key(twin)
                else:
                    with pytest.raises(IndexError):
                        queue.dequeue()
            elif step == "pop_batch":
                assert queue.pop_batch(argument, executed) == per_pair_round(
                    lambda: twin.dequeue() if twin else None, argument, twin_executed
                )
                assert executed == twin_executed
            else:
                queue = copy.deepcopy(queue)
            assert len(queue) == len(twin)
            assert queue._seq == twin._seq  # a checkpoint carries the counter
            live_in_max, live_in_min = _live_entries(queue)
            assert live_in_max == len(queue) and live_in_min in (None, len(queue))
            if twin:
                assert top_key(queue) == top_key(twin)
        assert [_dequeue_with_key(queue) for _ in range(len(queue))] == [
            _dequeue_with_key(twin) for _ in range(len(twin))
        ]
