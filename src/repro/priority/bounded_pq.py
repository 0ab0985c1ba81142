"""Bounded max-priority queue with lazy deletion.

The global comparison index ``CmpIndex`` of the PIER framework is "a bounded
priority queue returning as first element the comparison with highest
weight".  This implementation supports:

* ``enqueue(item, key)`` — insert with a numeric priority key (floats for
  I-PCS/I-PES) or an equal-length tuple of numbers (``(-block_size, cbs)``
  for I-PBS);
* ``dequeue()`` — remove and return the highest-priority item, FIFO among
  equal keys;
* bounded capacity — when full, a new item only enters by evicting the
  current *minimum* (the newest among equal keys), and only if it outranks
  that minimum;
* ``peek_key()`` — the key of the current top, without removing it.

Layout: one max-heap of plain ``(negated key, seq, key, item)`` tuples, so
``heapq`` orders entries with C-level tuple comparison (``seq`` is unique,
the comparison never reaches ``key`` or ``item``).  Eviction needs the
minimum, which only a *bounded* queue that has filled up ever asks for: the
first time that happens a min view of ``(key, -seq)`` pairs is built from
the live entries and kept in step from then on.  Unbounded queues never pay
for it.  Once both heaps exist, an entry removed through one of them is
still physically in the other; its ``seq`` waits in ``_dead`` until it
surfaces there and is skipped, which keeps all operations ``O(log n)``
amortized.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import neg
from typing import Any, Generic, Iterator, TypeVar

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
    __slots__ = (
        "capacity", "_heap", "_min_heap", "_dead", "_size", "_seq",
        "evictions", "rejections",
    )

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
        self.evictions = 0
        self.rejections = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def enqueue(self, item: T, key: Any) -> bool:
        """Insert ``item`` with priority ``key``.

        Returns ``True`` if the item entered the queue.  When the queue is
        full, the item is rejected (``False``) unless it outranks the current
        minimum, which is then evicted.
        """
        if self.capacity is not None and self._size >= self.capacity:
            min_key, negated_seq = self._live_min()
            if not key > min_key:
                self.rejections += 1
                return False
            heappop(self._min_heap)
            self._dead.add(-negated_seq)
            self._size -= 1
            self.evictions += 1
        seq = self._seq
        self._seq = seq + 1
        # The key with its order reversed: ``-key``, component-wise for tuples.
        negated = tuple(map(neg, key)) if type(key) is tuple else -key
        heappush(self._heap, (negated, seq, key, item))
        if self._min_heap is not None:
            heappush(self._min_heap, (key, -seq))
        self._size += 1
        return True

    def dequeue(self) -> T:
        """Remove and return the highest-priority item."""
        if self._dead is None and self._heap:
            # No min view yet, so no dead entries: the top is live.
            self._size -= 1
            return heappop(self._heap)[3]
        return self._pop_live_top()[3]

    def dequeue_with_key(self) -> tuple[T, Any]:
        """Like :meth:`dequeue` but also return the item's priority key."""
        entry = self._pop_live_top()
        return entry[3], entry[2]

    def peek(self) -> T:
        """Return (without removing) the highest-priority item."""
        return self._live_top()[3]

    def peek_key(self) -> Any:
        """Priority key of the current top item."""
        return self._live_top()[2]

    def drain(self) -> Iterator[T]:
        """Yield all items in priority order, emptying the queue."""
        while self._size:
            yield self.dequeue()

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

    def _pop_live_top(self) -> tuple[Any, int, Any, T]:
        entry = self._live_top()
        heappop(self._heap)
        if self._dead is not None:
            self._dead.add(entry[1])  # still in the min view
        self._size -= 1
        return entry

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
