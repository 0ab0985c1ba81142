"""The PIER framework: Algorithm 1 plus shared strategy scaffolding.

:class:`PierSystem` implements Algorithm 1 of the paper once; the three
prioritization strategies (I-PCS, I-PBS, I-PES) plug in through the
:class:`IncrPrioritization` interface, exactly mirroring the paper's
``Strategy: IncrPrioritization`` parameter.  The interface also carries
Algorithm 2's candidate side, which I-PCS and I-PES share.

This module also hosts the two generation utilities shared across
strategies and the incremental baseline:

* :class:`ComparisonGenerator` — Algorithm 2 lines 1-9: for each new
  profile, gather candidates from its (block-ghosted) blocks and clean them
  with I-WNP, producing a weighted comparison list.
* :class:`GetComparisons` — the fallback of Algorithm 2 lines 10-11: when
  the increment is empty, pull comparisons from the block collection,
  smallest block first, so useful work continues while waiting for the
  next increment — in idle time until the index holds a round of ``K``.
"""

from __future__ import annotations

import copy
import heapq
from typing import Container, Iterable, Iterator, Mapping, Sequence

from repro.blocking.blocks import Block, BlockCollection
from repro.core.comparison import WeightedComparison
from repro.core.increments import Increment
from repro.core.profile import EntityProfile
from repro.metablocking.sweep import pair_weights
from repro.metablocking.weights import CommonBlocksScheme, WeightingScheme
from repro.metablocking.wnp import sweep_wnp
from repro.priority.rates import AdaptiveK
from repro.streaming.system import EmitResult, ERSystem, PipelineStats

__all__ = ["ComparisonGenerator", "GetComparisons", "IncrPrioritization", "PierSystem"]


class ComparisonGenerator:
    """Candidate generation for one newly arrived profile (Alg. 2, l. 1-9).

    Applies block ghosting with parameter β to the profile's block list,
    collects its co-block partners, and cleans the candidate list with
    I-WNP.  Returns the surviving weighted comparisons together with the
    number of weighting operations performed (for cost accounting).
    Candidates and weights come from the single-sweep kernel
    (:func:`~repro.metablocking.wnp.sweep_wnp`).

    Every co-block partner is a valid one: on Dirty ER any two profiles may
    match, and on Clean-Clean ER the sweep reads only the other source's
    member lists (the ``source`` hint), so it never meets a same-source
    partner to filter out.
    """

    __slots__ = ("beta", "scheme")

    def __init__(self, beta: float = 0.2, scheme: WeightingScheme | None = None) -> None:
        self.beta = beta
        self.scheme = scheme or CommonBlocksScheme()

    def generate(
        self, collection: BlockCollection, profile: EntityProfile
    ) -> tuple[tuple[WeightedComparison, ...], int]:
        result = sweep_wnp(
            collection,
            profile.pid,
            self.scheme,
            beta=self.beta,
            source=profile.source if collection.clean_clean else None,
        )
        return result.kept, result.weighting_cost_units


def _new_pairs(
    block: Block, seen: tuple[int, ...], clean_clean: bool
) -> Iterator[tuple[int, int]]:
    """The pairs of ``block`` with at least one member past the cursor.

    ``seen`` counts the members already enumerated per source, aligned with
    the order of ``block.members_by_source`` (sources it does not reach are
    all new).  Pairs come in the relative order of :meth:`Block.pairs`.
    """
    members = block.members_by_source
    old_of = dict(zip(members, seen))
    if clean_clean:
        left, right = members.get(0, ()), members.get(1, ())
        old_left = old_of.get(0, 0)
        new_right = right[old_of.get(1, 0) :]
        for pid_x in left[:old_left]:
            for pid_y in new_right:
                yield (pid_x, pid_y)
        for pid_x in left[old_left:]:
            for pid_y in right:
                yield (pid_x, pid_y)
        return
    # Dirty ER pairs positions i < j of the per-source lists laid back to
    # back: a new member with everything after it, an old member with the
    # new members after it.
    flat: list[int] = []
    fresh: list[int] = []  # ascending positions in ``flat`` of the new members
    for source, source_members in members.items():
        first_new = len(flat) + old_of.get(source, 0)
        flat.extend(source_members)
        fresh.extend(range(first_new, len(flat)))
    passed = 0  # new members at or before the current position
    for position, pid_x in enumerate(flat):
        if passed < len(fresh) and fresh[passed] == position:
            passed += 1
            partners = flat[position + 1 :]
        else:
            partners = [flat[later] for later in fresh[passed:]]
        for pid_y in partners:
            yield (pid_x, pid_y)


def _member_counts(block: Block) -> tuple[int, ...]:
    """The member cursor of ``block`` once all its members are seen."""
    return tuple(map(len, block.members_by_source.values()))


class GetComparisons:
    """Smallest-block-first comparison refill (Alg. 2, l. 10-11).

    Each :meth:`next_batch` call drains one eligible block (smallest first,
    by current size) and returns its valid, weighted comparisons.  A block
    is eligible if it has never been drained or has *grown* since its last
    drain — refills may fire in idle gaps mid-stream, so blocks that gain
    members afterwards must be revisited once the stream goes quiet.

    A revisit costs what is new.  Per drained block the refill keeps a
    *member cursor* — how many members of each source it has seen — and
    enumerates only pairs with at least one member past it, in the order a
    scan of the whole block would meet them.  This leans on the substrate's
    add-only contract: a block's per-source member lists only ever append,
    and a purge removes the whole block for good.  Pairs between two old
    members were all enumerated by an earlier drain and are not offered
    again (a fill starts on an empty index, so every pair an earlier fill
    offered has been executed — or was evicted from a bounded index, which
    is a loss the bound accepts; a pair two blocks of one fill share is
    filtered from the second).

    Finding the block to revisit costs what grew.  Eligible blocks wait in
    a min-heap of ``(size, key)``; when it runs dry it is refilled from the
    substrate's growth feed (:meth:`BlockCollection.drain_grown`), never
    from a scan of the collection.  Nothing is missed: the heap only runs
    dry after every block that was eligible at the last refill has been
    drained to its then-current size, so a block that is eligible now has
    gained a member since — and the feed names it.  Nor can the order move:
    ``(size, key)`` is a total order, so the pop sequence does not depend on
    how the heap was filled.  The feed has one consumer per collection: a
    second refill on a collection whose feed was already drained does not
    see the blocks the first one was told about.

    A drain hands back two parallel lists, the pairs not executed yet and
    their weights from :func:`~repro.metablocking.sweep.pair_weights` (one
    ``AND`` + popcount of the two profiles' block masks per pair).  It is
    the one per-block step of a fill:
    :meth:`IncrPrioritization.on_empty_increment` concatenates the lists of
    the blocks it drains and offers them in one call.
    """

    __slots__ = ("scheme", "last_scanned", "last_examined", "_cursor", "_heap")

    def __init__(self, scheme: WeightingScheme | None = None) -> None:
        self.scheme = scheme or CommonBlocksScheme()
        #: Pairs the latest :meth:`next_batch` enumerated, before any filter.
        self.last_scanned = 0
        #: Grown keys the latest :meth:`next_batch` took from the feed.
        self.last_examined = 0
        # Block key -> members seen per source, aligned with the order of
        # the block's ``members_by_source`` (sources only ever append too).
        self._cursor: dict[str, tuple[int, ...]] = {}
        # Min-heap of (size, key) over eligible blocks, revalidated lazily
        # on pop and refilled from the growth feed when it runs dry.
        self._heap: list[tuple[int, str]] = []

    def _eligible(self, block) -> bool:
        size = len(block)
        if size < 2:
            return False
        return size > sum(self._cursor.get(block.key, ()))

    def _pop_smallest(self, collection: BlockCollection):
        """Smallest eligible block, or ``None``."""
        while True:
            heap = self._heap
            while heap:
                size, key = heapq.heappop(heap)
                block = collection.get(key)
                if block is None or not self._eligible(block):
                    continue
                if len(block) != size:
                    heapq.heappush(heap, (len(block), key))
                    continue
                return block
            grown = collection.drain_grown()
            if not grown:
                return None
            self.last_examined += len(grown)
            eligible = []
            for key in grown:
                block = collection.get(key)
                if block is None:
                    # Purged blocks never come back: forget their cursors,
                    # or they ride along in every checkpoint of the run.
                    self._cursor.pop(key, None)
                elif self._eligible(block):
                    eligible.append((len(block), key))
            # Sorted is a valid heap, and one whose layout (it is part of
            # every checkpoint) does not depend on the set's hash order.
            eligible.sort()
            self._heap = eligible

    def next_batch(
        self, collection: BlockCollection, executed: Container[tuple[int, int]], offered: set
    ) -> tuple[list[tuple[int, int]], list[float]] | None:
        """Drain the next eligible block.

        Its new pairs come in canonical order, filtered by ``executed`` (the
        store's executed set) and by ``offered``, the pairs earlier blocks
        of the same fill offered, which the offered ones join.  Returns
        ``None`` when no eligible block remains (exhausted), or the offered
        pairs and their weights as parallel lists otherwise — both empty
        when every new pair of the block was filtered; one weighting
        operation per pair.  :attr:`last_scanned` then holds how many pairs
        were enumerated to find them, :attr:`last_examined` how many grown
        keys were looked at to find the block.
        """
        self.last_examined = 0
        block = self._pop_smallest(collection)
        if block is None:
            self.last_scanned = 0
            return None
        seen = self._cursor.get(block.key, ())
        self._cursor[block.key] = _member_counts(block)
        # Two members of one block are two profiles: no self-pair here.
        new = [
            (pid_x, pid_y) if pid_x < pid_y else (pid_y, pid_x)
            for pid_x, pid_y in _new_pairs(block, seen, collection.clean_clean)
        ]
        self.last_scanned = len(new)
        pairs = [pair for pair in new if pair not in executed and pair not in offered]
        offered.update(pairs)
        return pairs, pair_weights(collection, pairs, self.scheme)

    # -- checkpoint support ---------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        return {"cursor": dict(self._cursor), "heap": list(self._heap)}

    def restore_state(self, state: dict[str, object]) -> None:
        self._cursor = dict(state["cursor"])
        self._heap = list(state["heap"])


class IncrPrioritization:
    """Strategy interface of Algorithm 1 (``IncrPrioritization``).

    Algorithm 2's candidate side lives here once, shared by I-PCS and I-PES:
    :meth:`ingest_profiles` generates each new profile's comparisons
    (block ghosting and I-WNP through :attr:`generator`), and
    :meth:`on_empty_increment` fills the index smallest block first
    (:attr:`refill`).  Both drop pairs already executed, charge the shared
    :class:`PipelineCosts`, count ``strategy.*`` metrics and hand what is
    left to :meth:`offer`.  A strategy built on them supplies only its
    ``CmpIndex`` — :meth:`offer`, :meth:`room`, :meth:`dequeue_batch`,
    ``__len__``, :meth:`gauges`, and ``snapshot_state``/``restore_state``
    for checkpoints.  I-PBS draws its candidates from Algorithm 3's cardinality
    index instead and overrides both hooks.  Methods that do work return
    their virtual cost.
    """

    name = "incr-prioritization"

    def __init__(self, beta: float = 0.2, scheme: WeightingScheme | None = None) -> None:
        self.generator = ComparisonGenerator(beta=beta, scheme=scheme)
        self.refill = GetComparisons(scheme=self.generator.scheme)

    def ingest_profiles(
        self,
        system: "PierSystem",
        profiles: Iterable[EntityProfile],
    ) -> float:
        """``updateCmpIndex`` for a non-empty increment (Alg. 2, l. 1-9)."""
        costs = system.costs
        per_enqueue = costs.per_enqueue
        metrics = system.metrics
        executed = system.store.executed
        cost = 0.0
        skipped = 0
        pairs: list[tuple[int, int]] = []
        weights: list[float] = []
        for profile in profiles:
            kept, operations = self.generator.generate(system.collection, profile)
            cost += operations * costs.per_weight
            metrics.count("strategy.weighting_ops", operations)
            for left, right, weight in kept:
                pair = (left, right)  # canonical already
                if pair in executed:
                    skipped += 1
                    continue
                pairs.append(pair)
                weights.append(weight)
                cost += per_enqueue
        if skipped:
            metrics.count("strategy.skipped_already_executed", skipped)
        # Generation reads the collection, never the index: offering the
        # increment's comparisons after the last profile is offering them
        # after each.
        self._count_offered(metrics, self.offer(pairs, weights))
        return cost

    def on_empty_increment(
        self, system: "PierSystem", target: int = 1, until: float | None = None
    ) -> float:
        """``updateCmpIndex`` with an empty increment (Alg. 2, l. 10-11).

        Drains blocks while the index holds under ``target`` pairs (1 for an
        empty increment, ``K`` in idle time) and, once it holds work, until
        the charged cost reaches ``until``; each pair is offered once.  The
        drained blocks go to :meth:`offer` in one call (offering blocks one
        after another is offering their concatenation), and the refill's
        ``strategy.*`` metrics are counted once per fill.  While the pending
        pairs fit in :meth:`room` nothing is evicted, so the index would
        hold ``len(self)`` plus them; once they do not, the fill offers them
        and reads ``len(self)`` back.
        """
        metrics = system.metrics
        costs = system.costs
        per_enqueue = costs.per_enqueue
        refill = self.refill
        cost = costs.per_round
        offered: set[tuple[int, int]] = set()
        pairs: list[tuple[int, int]] = []
        weights: list[float] = []
        held, room = len(self), self.room()
        batches = scanned = weighted = 0
        while (size := held + len(pairs)) < target and (
            until is None or cost < until or not size
        ):
            result = refill.next_batch(system.collection, system.store.executed, offered)
            if result is None:
                break
            block_pairs, block_weights = result
            batches += 1
            scanned += refill.last_scanned
            weighted += len(block_pairs)
            cost += len(block_pairs) * costs.per_weight
            for _ in block_pairs:  # one float addition per enqueue, as charged per pair
                cost += per_enqueue
            pairs += block_pairs
            weights += block_weights
            if len(pairs) > room:
                self._count_offered(metrics, self.offer(pairs, weights))
                pairs, weights = [], []
                held, room = len(self), self.room()
        if batches:
            metrics.count("strategy.refill_batches", batches)
            metrics.count("strategy.refill_pairs_scanned", scanned)
            metrics.count("strategy.weighting_ops", weighted)
        if pairs:
            self._count_offered(metrics, self.offer(pairs, weights))
        return cost

    @staticmethod
    def _count_offered(metrics, counts: Mapping[str, int]) -> None:
        """One ``strategy.<name>`` count per non-zero entry of an offer."""
        for name, amount in counts.items():
            if amount:
                metrics.count(f"strategy.{name}", amount)

    def offer(
        self, pairs: Sequence[tuple[int, int]], weights: Sequence[float]
    ) -> Mapping[str, int]:
        """Add canonical, not yet executed pairs with their weights, in order.

        Returns the index's own counts (``strategy.`` is prefixed when they
        are recorded).
        """
        raise NotImplementedError

    def room(self) -> float:
        """How many more pairs :meth:`offer` takes before it can evict
        (``inf`` for an unbounded index)."""
        raise NotImplementedError

    def dequeue_batch(
        self, count: int, executed: set[tuple[int, int]]
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """One emission round's comparisons (Alg. 1, l. 5-8).

        Removes the best comparisons in order until ``count`` of them are
        not in ``executed`` or the index is empty, and claims those into
        ``executed``.  Returns them and the ones that were executed already
        (stale), each in dequeue order.
        """
        raise NotImplementedError

    def gauges(self) -> dict[str, float]:
        """Strategy-specific gauge readings for the per-round metrics log."""
        return {}

    def __len__(self) -> int:
        raise NotImplementedError


class PierSystem(ERSystem):
    """Algorithm 1: the progressive incremental ER framework.

    Wires the shared front-end (incremental blocking, see
    :class:`~repro.streaming.system.ERSystem`), a prioritization strategy,
    and the adaptive ``findK`` controller into one :class:`ERSystem`.

    Parameters
    ----------
    strategy:
        One of the I-PCS / I-PBS / I-PES strategies.
    clean_clean:
        ER task kind (drives candidate generation inside blocks).
    max_block_size:
        Incremental block-purging threshold.
    adaptive_k:
        The ``findK`` controller; a fresh default one if omitted.
    """

    def __init__(
        self,
        strategy: IncrPrioritization,
        clean_clean: bool = False,
        max_block_size: int | None = 200,
        adaptive_k: AdaptiveK | None = None,
    ) -> None:
        super().__init__(clean_clean, max_block_size)
        self.strategy = strategy
        self.adaptive_k = adaptive_k or AdaptiveK()
        self.name = f"PIER[{strategy.name}]"

    # ------------------------------------------------------------------
    # ERSystem interface
    # ------------------------------------------------------------------
    def ingest(self, increment: Increment) -> float:
        cost = self._index(increment)
        if increment.is_empty:
            cost += self.strategy.on_empty_increment(self)
        else:
            cost += self.strategy.ingest_profiles(self, increment.profiles)
        return cost

    def has_work(self) -> bool:
        return len(self.strategy) > 0

    def emit(self, stats: PipelineStats) -> EmitResult:
        budget = self._find_k(stats)
        # Strategies queue canonical pairs: the queued tuples are claimed
        # into the executed set as they are, one probe each.
        batch, stale = self.strategy.dequeue_batch(budget, self.store.executed)
        if batch:
            self.metrics.count("pier.comparisons_emitted", len(batch))
        if stale:
            self.metrics.count("pier.dequeued_already_executed", len(stale))
        cost = self.costs.per_round + self.costs.per_enqueue * len(batch)
        return EmitResult(batch=tuple(batch), cost=cost)

    def on_idle(self, stats: PipelineStats) -> float | None:
        # A round of the current K (findK updates it when it is emitted), or of
        # what the matcher runs by the next ingest start or budget end if less.
        target, until = self.adaptive_k.value, stats.remaining_budget
        if stats.next_ingest is not None:
            gap = stats.next_ingest - stats.now
            until = gap if until is None else min(until, gap)
        if until is not None:
            target = min(target, max(1, int(until / max(stats.mean_match_cost, 1e-9))))
        cost = self.strategy.on_empty_increment(self, target, until)
        # An index still empty after the fill: all work is exhausted.
        return cost if len(self.strategy) else None

    def gauges(self) -> dict[str, float]:
        return {
            "k": self.adaptive_k.value,
            "queue_depth": len(self.strategy),
            **self.strategy.gauges(),
        }

    # -- checkpoint support ---------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """Blocking state, the profile store, findK state, the shared
        comparison store, and the strategy's ``CmpIndex`` — everything
        Algorithm 1 mutates during a run.  Profiles alias rather than copy
        (``EntityProfile.__deepcopy__``), so a dict copy is a snapshot."""
        return {
            "collection": copy.deepcopy(self.collection),
            "profiles": dict(self._profiles),
            "adaptive_k": copy.deepcopy(self.adaptive_k),
            "store": self.store.snapshot_state(),
            "strategy": self.strategy.snapshot_state(),
        }

    def restore(self, state: dict[str, object]) -> None:
        self.collection = copy.deepcopy(state["collection"])
        self._profiles = dict(state["profiles"])
        self.adaptive_k = copy.deepcopy(state["adaptive_k"])
        # In-place restore keeps the store's identity: the engine's run
        # state holds a reference to it.
        self.store.restore_state(state["store"])
        self.strategy.restore_state(state["strategy"])

    def _find_k(self, stats: PipelineStats) -> int:
        """The ``findK()`` of Algorithm 1.

        The service rate is the rate at which full emission rounds complete:
        one round costs ``K`` matcher evaluations plus fixed overhead.
        """
        mean_cost = max(stats.mean_match_cost, 1e-9)
        round_cost = self.adaptive_k.value * mean_cost + self.costs.per_round
        service_rate = 1.0 / round_cost
        return self.adaptive_k.update(stats.input_rate, service_rate)

    def describe(self) -> dict[str, object]:
        return {
            "name": self.name,
            "strategy": self.strategy.name,
            "k": self.adaptive_k.value,
            "blocks": len(self.collection),
            "executed": len(self.store.executed),
        }
