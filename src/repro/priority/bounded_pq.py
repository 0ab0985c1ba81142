"""Bounded max-priority queue with lazy deletion.

The global comparison index ``CmpIndex`` of the PIER framework is "a bounded
priority queue returning as first element the comparison with highest
weight".  This implementation supports:

* ``enqueue(item, key)`` — insert with a numeric priority key (the
  comparison weight for I-PCS and I-PES's overflow queue);
* ``dequeue()`` — remove and return the highest-priority item, FIFO among
  equal keys;
* bounded capacity — when full, a new item only enters by evicting the
  current *minimum* (the newest among equal keys), and only if it outranks
  that minimum;
* ``enqueue_batch(items, keys)`` / ``pop_batch(count, executed)`` — the
  same as ``enqueue`` per pair in order / ``count`` successive ``dequeue``
  calls, moved in bulk where nothing can be evicted: a batch offered to an
  empty queue is loaded by one sort (a sorted list is a valid heap), and a
  round that takes every entry drains by one sort.

Layout: one max-heap of plain ``(negated key, seq, key, item)`` tuples, so
``heapq`` orders entries with C-level tuple comparison (``seq`` is unique,
the comparison never reaches ``key`` or ``item``).  Eviction needs the
minimum, which only a *bounded* queue that has filled up ever asks for: the
first time that happens a min view of ``(key, -seq)`` pairs is built from
the live entries and kept in step from then on.  Unbounded queues never pay
for it.  Once both heaps exist, an entry removed through one of them is
still physically in the other; its ``seq`` waits in ``_dead`` until it
surfaces there and is skipped, which keeps all operations ``O(log n)``
amortized.  The batch operations keep this layout and give the pop order,
``seq`` numbers, evictions and refusals of the per-item calls; only the
order of entries inside the heap list may differ, which no pop can see.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf
from typing import Any, Generic, Sequence, TypeVar

__all__ = ["BoundedPriorityQueue"]

T = TypeVar("T")


class BoundedPriorityQueue(Generic[T]):
    """Max-priority queue with optional capacity bound.

    Parameters
    ----------
    capacity:
        Maximum number of live items; ``None`` means unbounded.
    """

    # No per-instance ``__dict__``: strategies may hold many queues.
    __slots__ = ("capacity", "_heap", "_min_heap", "_dead", "_size", "_seq")

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None)")
        self.capacity = capacity
        self._heap: list[tuple[Any, int, Any, T]] = []
        # Both None until a bounded queue first fills up (see _live_min).
        self._min_heap: list[tuple[Any, int]] | None = None
        self._dead: set[int] | None = None
        self._size = 0
        self._seq = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def room(self) -> float:
        """How many more items fit before an enqueue can evict or refuse."""
        return inf if self.capacity is None else self.capacity - self._size

    def enqueue(self, item: T, key: Any) -> bool:
        """Insert ``item`` with priority ``key``.

        Returns ``True`` if the item entered the queue.  When the queue is
        full, the item is rejected (``False``) unless it outranks the current
        minimum, which is then evicted.
        """
        if self.capacity is not None and self._size >= self.capacity:
            min_key, negated_seq = self._live_min()
            if not key > min_key:
                return False
            heappop(self._min_heap)
            self._dead.add(-negated_seq)
            self._size -= 1
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (-key, seq, key, item))
        if self._min_heap is not None:
            heappush(self._min_heap, (key, -seq))
        self._size += 1
        return True

    def enqueue_batch(self, items: Sequence[T], keys: Sequence[Any]) -> None:
        """:meth:`enqueue` each ``items[i]`` with ``keys[i]``, in order.

        While nothing can be evicted (no min view yet, and the batch fits
        under the capacity) the entries are built in one pass, with
        consecutive ``seq`` numbers.  An empty queue takes them by one sort,
        a non-empty one by a push each.  Every other batch goes through
        :meth:`enqueue`, the one place that evicts and refuses.
        """
        count = len(items)
        if not count:
            return
        capacity = self.capacity
        if self._min_heap is not None or (
            capacity is not None and self._size + count > capacity
        ):
            enqueue = self.enqueue
            for item, key in zip(items, keys):
                enqueue(item, key)
            return
        negated = [-key for key in keys]
        seq = self._seq
        self._seq = seq + count
        self._size += count
        entries = zip(negated, range(seq, seq + count), keys, items)
        heap = self._heap
        if heap:
            for entry in entries:
                heappush(heap, entry)
        else:
            # ``seq`` is unique: the sort never compares ``key`` or ``item``.
            heap.extend(entries)
            heap.sort()

    def pop_batch(self, count: int, executed: set[T]) -> tuple[list[T], list[T]]:
        """Up to ``count`` items not in ``executed``, claimed into it.

        Equals :meth:`dequeue` until ``count`` fresh items were taken or
        the queue is empty: an item already in ``executed`` is dequeued
        (stale) and does not count.  Returns the fresh items and the stale
        ones, each in pop order.  A round that takes every entry of a queue
        without dead entries sorts the heap once (linear on a heap that was
        bulk-loaded and left alone) instead of popping entry by entry.
        """
        batch: list[T] = []
        stale: list[T] = []
        heap = self._heap
        dead = self._dead
        if not dead and count >= self._size:
            heap.sort()
            for entry in heap:
                item = entry[3]
                if item in executed:
                    stale.append(item)
                else:
                    executed.add(item)
                    batch.append(item)
            heap.clear()
            if self._min_heap is not None:
                self._min_heap.clear()  # every entry in it has left
            self._size = 0
            return batch, stale
        size = self._size
        while size and len(batch) < count:
            entry = heappop(heap)
            if dead is not None:
                seq = entry[1]
                if seq in dead:  # evicted: already gone from the count
                    dead.remove(seq)
                    continue
                dead.add(seq)  # still in the min view
            size -= 1
            item = entry[3]
            if item in executed:
                stale.append(item)
            else:
                executed.add(item)
                batch.append(item)
        self._size = size
        return batch, stale

    def dequeue(self) -> T:
        """Remove and return the highest-priority item."""
        if self._dead is None and self._heap:
            # No min view yet, so no dead entries: the top is live.
            self._size -= 1
            return heappop(self._heap)[3]
        entry = self._live_top()
        heappop(self._heap)
        self._dead.add(entry[1])  # still in the min view
        self._size -= 1
        return entry[3]

    def clear(self) -> None:
        self._heap.clear()
        self._min_heap = None
        self._dead = None
        self._size = 0

    # ------------------------------------------------------------------
    def _live_top(self) -> tuple[Any, int, Any, T]:
        """Top live entry of the max heap (evicted entries discarded en route)."""
        heap = self._heap
        dead = self._dead
        if dead:
            while heap and heap[0][1] in dead:
                dead.remove(heappop(heap)[1])
        if not heap:
            raise IndexError("empty BoundedPriorityQueue")
        return heap[0]

    def _live_min(self) -> tuple[Any, int]:
        """Minimum live ``(key, -seq)`` of a full queue: the eviction victim.

        On equal keys the *newest* item is the victim, so older equally
        weighted comparisons are not starved.
        """
        heap = self._min_heap
        if heap is None:
            # Nothing has been evicted yet, so every heap entry is live.
            heap = self._min_heap = [(key, -seq) for _, seq, key, _ in self._heap]
            heapify(heap)
            self._dead = set()
        dead = self._dead
        if dead:
            while -heap[0][1] in dead:
                dead.remove(-heappop(heap)[1])
        return heap[0]

    def __repr__(self) -> str:
        bound = self.capacity if self.capacity is not None else "∞"
        return f"BoundedPriorityQueue(size={self._size}, capacity={bound})"
