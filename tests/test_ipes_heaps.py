"""I-PES on plain heaps against the one-queue-object-per-entity oracle.

``IPES`` keeps ``E_PQ`` and ``EntityQueue`` as ``heapq`` lists ordered by one
strategy-wide ``seq``; ``tests/reference/ipes_bounded_queues.py`` is the
strategy as it was, one ``BoundedPriorityQueue`` per entity with a ``seq`` of
its own, inserting one comparison at a time where ``IPES`` runs one loop
over a batch.  The same script of inserts, dequeues, ingests, refills and
checkpoints must read the same on both after every step — and must *not* on
the two variants of the heap layout that are easiest to get wrong.
"""

from __future__ import annotations

import copy
from heapq import heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.comparison import canonical_pair
from repro.core.increments import Increment
from repro.pier.base import PierSystem
from repro.pier.ipes import IPES

from tests.conftest import dequeue_one, make_profile
from tests.reference.ipes_bounded_queues import BoundedQueuesIPES

VOCABULARY = ("ash", "birch", "cedar", "dogwood")
#: Few distinct weights, so equal weights — where only ``seq`` decides — are
#: the rule.  CBS weights of ingested profiles fall in the same range.
WEIGHTS = (1.0, 2.0, 3.0)

_pid = st.integers(0, 4)
_insert = st.tuples(st.just("insert"), _pid, _pid, st.sampled_from(WEIGHTS)).filter(
    lambda op: op[1] != op[2]
)
#: Several comparisons in one ``offer`` call (the oracle: one by one).
_insert_batch = st.tuples(
    st.just("insert_batch"),
    st.lists(
        st.tuples(_pid, _pid, st.sampled_from(WEIGHTS)).filter(lambda item: item[0] != item[1]),
        min_size=2,
        max_size=6,
    ),
)
_dequeue = st.tuples(st.just("dequeue"), st.booleans())
_ingest = st.tuples(
    st.just("ingest"),
    st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=3, unique=True),
)
#: What the interleaving is made of: single steps, a burst of arrivals, and
#: the engine's idle pattern — the index runs dry, then the refill fires.
_steps = st.one_of(
    st.lists(_insert, min_size=1, max_size=4),
    st.lists(_insert_batch, min_size=1, max_size=2),
    st.lists(_dequeue, min_size=1, max_size=4),
    st.lists(_ingest, min_size=1, max_size=5),
    st.integers(1, 3).map(lambda step: [("drain", step), ("refill",)]),
    st.just([("refill",)]),
    st.just([("checkpoint",)]),
)
#: A run of inserts first — it takes a few on the same entities before one
#: improves neither endpoint's best and Algorithm 4's pruning decides — then
#: everything interleaved.
_script = st.builds(
    lambda inserts, steps: inserts + [op for group in steps for op in group],
    st.lists(st.one_of(_insert, _insert_batch), min_size=20, max_size=30),
    st.lists(_steps, min_size=4, max_size=20),
)


def insert(strategy, items) -> dict[str, int]:
    """Offer ``(pid_x, pid_y, weight)`` items; how many took each route.

    ``IPES`` inserts them in one loop, the oracle one ``_insert_weighted``
    call each.
    """
    pairs = [canonical_pair(pid_x, pid_y) for pid_x, pid_y, _ in items]
    weights = [weight for *_, weight in items]
    routes = strategy.offer(pairs, weights)
    return {route: amount for route, amount in routes.items() if amount}


def run_script(make_strategy, script) -> list:
    """What ``script`` reads like on one strategy, step by step.

    ``insert`` and ``insert_batch`` feed the insert path directly (any two
    pids, whether or not they were ingested); ``dequeue``/``drain`` may mark
    what they pop as executed, so later ingests of those pids hit the
    executed set; ``ingest`` adds the next profile through the system
    (blocking, generation, I-WNP); ``refill`` is the empty-increment trigger;
    ``checkpoint`` moves the strategy's state into a fresh instance.  Blocks
    purge past five members.
    """
    system = PierSystem(make_strategy(), max_block_size=5)
    executed = system.store.executed
    next_pid = 0
    trace = []
    for op in script:
        strategy = system.strategy
        kind = op[0]
        if kind == "insert":
            seen = insert(strategy, [op[1:]])
        elif kind == "insert_batch":
            seen = insert(strategy, op[1])
        elif kind == "dequeue":
            seen = dequeue_one(strategy)
            if seen is not None and op[1]:
                executed.add(seen)
        elif kind == "drain":
            seen = []
            while (pair := dequeue_one(strategy)) is not None:
                seen.append(pair)
            executed.update(seen[:: op[1]])
        elif kind == "ingest":
            profile = make_profile(next_pid, " ".join(op[1]))
            seen = system.ingest(Increment(next_pid, (profile,)))
            next_pid += 1
        elif kind == "refill":
            seen = strategy.on_empty_increment(system)
        else:
            state = copy.deepcopy(strategy.snapshot_state())
            system.strategy = make_strategy()
            system.strategy.restore_state(state)
            seen = None
        strategy = system.strategy
        trace.append(
            (
                op,
                seen,
                len(strategy),
                strategy.gauges(),
                strategy.total_weight,
                strategy.count,
                dict(strategy._entity_totals),
            )
        )
    trace.append(system.metrics.snapshot(include_wall=False)["counters"])
    return trace


@given(script=_script)
@settings(max_examples=300, deadline=None)
def test_heaps_read_like_one_queue_object_per_entity(script):
    assert run_script(IPES, script) == run_script(BoundedQueuesIPES, script)


# ----------------------------------------------------------------------
# Mutation check: the oracle sees the two easy ways to get the layout wrong
# ----------------------------------------------------------------------
class _SeqRestartsAtZero(IPES):
    """``seq`` left out of the checkpoint, as if every queue carried its own:
    after a restore it restarts at 0, and a new entry jumps the queue of
    older entries of equal weight."""

    def restore_state(self, state):
        super().restore_state(state)
        self._seq = 0


class _ReseedByPlainWeight(IPES):
    """``EntityQueue`` reseeded with the weight itself, not its negation:
    the min-heap then serves the *weakest* entity first."""

    def _refill_entity_queue(self):
        for entity, queue in self.entity_pq.items():
            heappush(self.entity_queue, (-queue[0][0], self._seq, entity))
            self._seq += 1


#: Three entities tie at weight 2, the third arriving after a checkpoint:
#: first-in-first-out among them needs the ``seq`` the checkpoint carried.
_TIES_ACROSS_A_CHECKPOINT = (
    ("insert", 5, 6, 2.0),
    ("insert", 3, 4, 2.0),
    ("checkpoint",),
    ("insert", 1, 2, 2.0),
    ("drain", 1),
)
#: (0, 7) and (0, 4) improve neither endpoint's best and enter entities 0 and
#: 4 on the "balanced" route, without an EntityQueue entry — so EntityQueue
#: runs dry while entity 0 still holds a weight-1 and entity 4 a weight-2
#: comparison, and the reseed has to rank 4 first.
_RESEED = (
    ("insert", 0, 1, 1.0),
    ("insert", 0, 2, 3.0),
    ("insert", 7, 8, 1.0),
    ("insert", 7, 9, 3.0),
    ("insert", 0, 7, 3.0),
    ("insert", 4, 5, 2.0),
    ("insert", 4, 6, 3.0),
    ("insert", 0, 4, 3.0),
    ("drain", 1),
)


def test_oracle_catches_a_seq_that_restarts():
    expected = run_script(BoundedQueuesIPES, _TIES_ACROSS_A_CHECKPOINT)
    assert expected[-2][1] == [(5, 6), (3, 4), (1, 2)]
    assert run_script(IPES, _TIES_ACROSS_A_CHECKPOINT) == expected
    assert run_script(_SeqRestartsAtZero, _TIES_ACROSS_A_CHECKPOINT) != expected


def test_oracle_catches_a_reseed_by_plain_weight():
    expected = run_script(BoundedQueuesIPES, _RESEED)
    assert sum(step[1].get("inserted_balanced", 0) for step in expected[:8]) == 2
    assert expected[-2][1][-2:] == [(4, 5), (0, 1)]
    assert run_script(IPES, _RESEED) == expected
    assert run_script(_ReseedByPlainWeight, _RESEED) != expected
