"""The execution core: the virtual-clock loop shared by both engines.

Both engines simulate Algorithm 1 of the paper against a
:class:`~repro.core.increments.StreamPlan` on deterministic virtual clocks,
through one loop, :meth:`ExecutionCore._drive`.  They differ *only* in
when an ingest can start and which clock it charges (the serial engine
charges every stage to one clock, the pipelined engine overlaps ingestion
with matching on a second clock).  Everything else — the loop, arrival
ingestion and exactly-once redelivery dedup, budget clamping, load
shedding, checkpoint cadence, metrics preseeding and finalization — lives
here, in :class:`ExecutionCore`.  Engine subclasses implement three small
clock hooks (:meth:`_ingest_start`, :meth:`_advance_ingest`,
:meth:`_ingest_clock_end`) and inherit the rest.

Budget semantics: the budget is the run's one deadline on the virtual
clock.  A comparison whose (deterministic) cost would push the clock past
the budget is *not* executed and *not* credited to the progress curve — the
engine charges the remaining time as cut-off work and stops, so no point of
the reported curve ever lies beyond the budget.  A drain's horizon is not a
deadline but a pause: :meth:`ExecutionCore._drive` returns at the first
loop top whose clock has reached it, and the next drain resumes there.

Comparison execution has one path, the **batched kernel**.  A matcher is
pure — scoring never fails and a pair costs exactly its estimate — so each
emission round is handled in one pass over its ``(pid, pid)`` tuples, which
the matcher reads through the system's read-only ``profiles`` mapping: their
costs are computed once (``matcher.estimate_cost_batch``), the deadline cut
is planned over the round's costs in C, and the surviving prefix is scored
and accounted by a single ``matcher.evaluate_batch(pairs, profiles, costs)``
call, which returns match flags — the acceleration lever of SPER-style
batched similarity evaluation.  Its oracle, a pair-at-a-time loop, lives in
``tests/reference/scalar_execution.py`` (``tests/test_engine_parity.py``
runs every strategy through both).  With a worker pool — supplied by its
owner, :class:`~repro.api.ERSession` or the service; the core never starts
one — the kernel charges the round when it runs and scores it off the
round (see :meth:`ExecutionCore._execute_batch_kernel`).

Resilience semantics (see :mod:`repro.resilience`): increments are delivered
exactly once (redeliveries deduplicated by id), backlog beyond a watermark
is shed, and the core can checkpoint at a configurable cadence and resume
from an :class:`~repro.resilience.checkpoint.EngineCheckpoint` with
bit-identical virtual results.  All of this is off by default
(:data:`~repro.resilience.config.DEFAULT_RESILIENCE` changes nothing about
a run).

Every run is instrumented through a fresh
:class:`~repro.observability.metrics.MetricsRegistry` (bound to the system
and the matcher): named counters, per-phase virtual/wall timers and a
bounded per-round gauge log, exported as ``details["metrics"]`` on the
:class:`RunResult`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, compress, islice
from operator import add
from typing import Iterable

from repro.core.dataset import GroundTruth
from repro.core.increments import StreamPlan
from repro.evaluation.recorder import ProgressCurve, ProgressRecorder
from repro.matching.matcher import KERNEL_COUNTERS, Matcher
from repro.observability.metrics import MetricsRegistry, PhaseTimer
from repro.parallel.pool import WorkerPoolError
from repro.priority.rates import RateEstimator
from repro.resilience.checkpoint import EngineCheckpoint, plan_token
from repro.resilience.config import DEFAULT_RESILIENCE, ResilienceConfig
from repro.streaming.system import ERSystem, PipelineStats

__all__ = ["PRESEEDED_COUNTERS", "PRESEEDED_PHASES", "RunResult", "RunState", "ExecutionCore"]

#: Counters every run exports even when they stay zero, preseeded
#: identically by the shared core, so exported schemas match across engines
#: and runs (e.g. ``engine.fast_forwards`` stays 0 on a static plan, on
#: either engine, yet appears in every export).  ``engine.checkpoints_taken``
#: is deliberately absent: its presence signals that checkpointing was
#: enabled.
PRESEEDED_COUNTERS = (
    "engine.comparisons_cut_by_deadline",
    "engine.comparisons_executed",
    "engine.duplicate_increments_dropped",
    "engine.emission_rounds",
    "engine.fast_forwards",
    "engine.forced_ingests",
    "engine.idle_rounds",
    "engine.increments_ingested",
    "engine.matches_recorded",
    # Always 0 (no pair is ever quarantined); kept for its only reader,
    # benchmarks/ledger/ (workloads.py and layers.py).
    "engine.quarantined_pairs",
    "engine.shed_increments",
    "parallel.fallbacks",
    "parallel.pairs_sharded",
    "parallel.rounds_sharded",
    # Always 0 (profiles travel inside the hand-offs); kept for its only
    # reader, benchmarks/ledger/layers.py.
    "parallel.shm_bytes",
    "parallel.supervision.evictions",
) + tuple(f"matcher.kernel.{name}" for name in sorted(KERNEL_COUNTERS))

#: Pairs per hand-off to the worker fleet.  Sized by measurement, not an
#: option.  ``fleet_ed``'s run (I-PES/ED on dblp_acm x0.6, 55,927 pairs, two
#: workers, 2-core build host, medians of 11 interleaved runs, of 5 at the
#: two ends; the same run on ``workers=1`` takes 0.881 s):
#:
#:   pairs per hand-off    512   1024   2048   4096   8192  16384
#:   hand-offs              78     45     25     13      7      4
#:   wall s              0.784  0.727  0.703  0.701  0.693  0.660
#:
#: Flat from 2048 up (runs of one size spread by ~0.1 s): a hand-off costs
#: the master a few ms of pickling and pipe traffic whatever its size, so it
#: only has to be large against that.  2048 is the low end of the plateau —
#: the smaller the hand-off, the sooner a drain has something for the fleet
#: to overlap with and the less a join has to wait for.
HAND_OFF_PAIRS = 2048

#: Phase timers every run exports even when they never fire, for the same
#: reason: ``sleep`` only accumulates when either engine fast-forwards, and
#: ``scatter`` only with a worker pool, yet every run exports the full phase
#: surface.
PRESEEDED_PHASES = ("emit", "idle", "ingest", "match", "scatter", "sleep")


@dataclass(frozen=True, slots=True)
class RunResult:
    """Outcome of one simulated run."""

    system_name: str
    matcher_name: str
    curve: ProgressCurve
    duplicates: frozenset[tuple[int, int]]
    comparisons_executed: int
    clock_end: float
    budget: float
    stream_consumed_at: float | None     # when the last increment was ingested
    work_exhausted: bool                 # system + stream fully drained
    increments_ingested: int
    match_events: tuple[tuple[float, tuple[int, int]], ...] = ()
    details: dict[str, object] = field(default_factory=dict)

    @property
    def final_pc(self) -> float:
        return self.curve.final_pc


class RunState:
    """All mutable state of one run, owned by the core, mutated by policies.

    ``clock`` is the (match) clock both engines report; ``ingest_clock`` is
    ``None`` on single-clock engines and the concurrent ingest stage's clock
    on the pipelined engine.
    """

    __slots__ = (
        "system", "matcher", "metrics", "recorder", "estimator", "store",
        "plan", "arrival_times", "increments", "n_arrivals",
        "next_arrival", "clock", "ingest_clock",
        "consumed_at", "work_exhausted", "rounds", "ingested", "shed",
        "duplicates_dropped", "duplicates", "seen_increments",
        "last_checkpoint_clock",
        # Tier A's result-side backlog (see ``_execute_batch_kernel``):
        # pid pairs charged but not yet sent anywhere, and the one hand-off
        # the fleet is scoring, as ``(ticket, pairs)``.  Both are empty at
        # every join point.
        "unscored", "in_flight",
        # Tier A telemetry, kept OUT of the metrics registry until finalize
        # so mid-run checkpoints (and their fingerprints) stay bit-identical
        # across worker counts.
        "parallel_rounds", "parallel_pairs", "parallel_fallbacks",
        "scatter_wall_start", "evictions_start",
    )


class ExecutionCore:
    """Virtual-clock run loop; engines subclass it as clock policies.

    Parameters
    ----------
    matcher / budget / match_cost_prior / sample_every:
        The match function, the virtual-time budget, the prior mean
        comparison cost, and the progress-curve sampling stride.
    resilience:
        Fault-tolerance knobs (shedding, checkpointing); the default
        changes nothing about a run.
    workers:
        The fleet width the caller asked for.  A run that asked for more
        than one worker but has no ``pool`` scores in-process and counts
        one ``parallel.fallbacks``.
    pool:
        The :class:`~repro.parallel.pool.WorkerPool` (Tier A of
        :mod:`repro.parallel`) that scores the batched kernel's rounds, in
        hand-offs of :data:`HAND_OFF_PAIRS` pairs that overlap with the
        master's own work.  Owned by the caller (:class:`repro.api.ERSession`
        or the service): the engine starts a cache epoch on it at the start
        of every run and never closes it.  A hand-off the pool cannot take
        — it is broken or closed — is scored in-process and counted in
        ``parallel.fallbacks``.  Results are bit-identical either way.
    """

    _KIND = "abstract"
    #: Whether this policy runs ingestion on its own concurrent clock.
    _TRACKS_INGEST_CLOCK = False

    def __init__(
        self,
        matcher: Matcher,
        budget: float,
        match_cost_prior: float = 1e-4,
        sample_every: int = 64,
        resilience: ResilienceConfig | None = None,
        workers: int = 1,
        pool: "object | None" = None,
    ) -> None:
        if not budget > 0:
            raise ValueError("budget must be positive")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.matcher = matcher
        self.budget = budget
        self.match_cost_prior = match_cost_prior
        self.sample_every = sample_every
        self.resilience = resilience or DEFAULT_RESILIENCE
        self.workers = workers
        self._pool = pool
        #: Latest checkpoint of the most recent run (``None`` before any).
        self.last_checkpoint: EngineCheckpoint | None = None

    # ------------------------------------------------------------------
    # The run template
    # ------------------------------------------------------------------
    def run(
        self,
        system: ERSystem,
        plan: StreamPlan,
        ground_truth: GroundTruth,
        resume_from: EngineCheckpoint | None = None,
    ) -> RunResult:
        """Simulate ``system`` over ``plan`` and return its progress curve.

        With ``resume_from``, the core restores every component from the
        checkpoint and continues the run from its consistent cut; the
        completed run is then bit-identical (curve, duplicates, counters)
        to one that was never interrupted.

        Implemented as the degenerate push-mode schedule (feed the whole
        plan, drain once to the budget) over :class:`PushRun` — push mode
        is therefore semantics-neutral by construction: every classic run
        exercises it.
        """
        push = self.open_push(system, ground_truth, resume_from=resume_from)
        push.feed_plan(plan)
        push.drain(self.budget)
        return push.results()

    def open_push(
        self,
        system: ERSystem,
        ground_truth: GroundTruth,
        resume_from: EngineCheckpoint | None = None,
    ) -> "PushRun":
        """Open a push-mode run: feed increments, drain to horizons.

        See :class:`repro.execution.push.PushRun`.  The engine must not be
        used for another run until the push run is finalized.
        """
        from repro.execution.push import PushRun

        return PushRun(self, system, ground_truth, resume_from=resume_from)

    def _drive(self, state: RunState, until: float) -> None:
        """Algorithm 1's loop, for both engines: run until the budget
        expires or ``state.work_exhausted`` is set, pausing at the first
        loop top whose clock has reached ``until``.  The pause cuts nothing:
        the round in flight has finished, so the clock may stand past
        ``until``, and the next call resumes the same sequence of rounds.
        One iteration is:

        1. ingest every increment whose ingest can start by ``clock``
           (subject to the system's back-pressure hook), charging ingestion
           costs through :meth:`_advance_ingest`;
        2. if the system has work (``system.has_work()``), run one emission
           round and execute its batch through the matcher, recording each
           executed comparison against the ground truth;
        3. otherwise: force one back-pressured increment through, or let the
           system manufacture idle work (the paper's "empty increment"
           trigger), or fast-forward to the next ingest start, or stop when
           both the stream and the system are exhausted.

        The engines differ only in when an ingest can start
        (:meth:`_ingest_start`) and which clock it charges
        (:meth:`_advance_ingest`).
        """
        if state.work_exhausted:
            return  # nothing was fed since the stream and the system ran dry
        system = state.system
        metrics = state.metrics
        budget = self.budget

        while state.clock < budget:
            if state.clock >= until:
                return  # a pause at the loop-top cut, not a deadline
            # -- 0. resilience bookkeeping at the loop-top cut ----------
            self._loop_top(state)

            # -- 1. ingest all due increments ---------------------------
            with metrics.time_phase("ingest") as ingest_timer:
                while (
                    state.next_arrival < state.n_arrivals
                    and self._ingest_start(state) <= state.clock
                    and system.ready_for_ingest()
                ):
                    if state.increments[state.next_arrival].index in state.seen_increments:
                        self._drop_redelivered(state)
                        continue
                    self._ingest_one(state, ingest_timer)
                    if state.clock >= budget:
                        break
            if state.clock >= budget:
                break

            # -- 2. one emission round, if the system has work ----------
            if system.has_work():
                self._emission_round(state)
                continue

            # -- 3. no work: idle handling ------------------------------
            if state.next_arrival < state.n_arrivals and self._ingest_start(state) <= state.clock:
                # Back-pressure refused ingestion but there is no work
                # either: force-feed one increment to avoid a livelock.
                if state.increments[state.next_arrival].index in state.seen_increments:
                    self._drop_redelivered(state)
                    continue
                with metrics.time_phase("ingest") as ingest_timer:
                    self._ingest_one(state, ingest_timer, forced=True)
                continue
            with metrics.time_phase("idle") as idle_timer:
                idle_cost = system.on_idle(self._pipeline_stats(state))
                if idle_cost is not None:
                    state.clock += idle_cost
                    idle_timer.virtual += idle_cost
            if idle_cost is not None:
                metrics.count("engine.idle_rounds")
                continue
            if state.next_arrival < state.n_arrivals:
                start = self._ingest_start(state)
                gap = start - state.clock
                state.clock = start  # sleep until the next ingest can start
                metrics.count("engine.fast_forwards")
                metrics.phase("sleep").add(gap)
                continue
            state.work_exhausted = True
            break

    # ------------------------------------------------------------------
    # Setup / resume
    # ------------------------------------------------------------------
    def _setup(
        self,
        system: ERSystem,
        plan: StreamPlan,
        ground_truth: GroundTruth,
        resume_from: EngineCheckpoint | None,
    ) -> RunState:
        matcher = self.matcher
        matcher.reset_stats()
        metrics = MetricsRegistry()
        system.bind_metrics(metrics)
        matcher.bind_metrics(metrics)
        pool = self._pool
        if pool is not None:
            # Profile ids are only unique within a dataset: worker caches
            # must never survive into a new run.  Claiming the pool also
            # lets interleaved runs (multi-tenant push sessions sharing one
            # fleet) detect each other and start a new epoch on every
            # owner switch.
            pool.begin_run(owner=self)

        state = RunState()
        state.system = system
        state.matcher = matcher
        state.metrics = metrics
        state.recorder = ProgressRecorder(ground_truth, sample_every=self.sample_every)
        state.estimator = RateEstimator()
        state.store = system.store
        state.duplicates = set()
        state.seen_increments = set()
        state.plan = plan
        state.arrival_times = plan.arrival_times
        state.increments = plan.increments
        state.n_arrivals = len(plan)
        state.next_arrival = 0
        state.clock = state.arrival_times[0] if state.n_arrivals else 0.0
        state.ingest_clock = state.clock if self._TRACKS_INGEST_CLOCK else None
        state.consumed_at = None if state.n_arrivals else 0.0
        state.work_exhausted = False
        state.rounds = 0
        state.ingested = 0
        state.shed = 0
        state.duplicates_dropped = 0
        state.unscored = []
        state.in_flight = None
        state.parallel_rounds = 0
        state.parallel_pairs = 0
        # A fleet was asked for and none was supplied (it could not start).
        state.parallel_fallbacks = int(pool is None and self.workers > 1)
        state.scatter_wall_start = pool.scatter_wall_s if pool is not None else 0.0
        state.evictions_start = pool.evictions if pool is not None else 0

        if resume_from is not None:
            self._check_resumable(resume_from, plan_token(plan))
            metrics.load_state(resume_from.metrics_state)
            system.restore(resume_from.system_state)
            matcher.restore_state(resume_from.matcher_state)
            state.recorder.restore_state(resume_from.recorder_state)
            state.estimator.restore_state(resume_from.estimator_state)
            # The system restore may have replaced its store wholesale
            # (default ``__dict__`` walk): rebind it.
            state.store = system.store
            state.duplicates = set(resume_from.duplicates)
            state.seen_increments = set(resume_from.seen_increments)
            state.next_arrival = resume_from.next_arrival
            state.clock = resume_from.clock
            if self._TRACKS_INGEST_CLOCK:
                state.ingest_clock = resume_from.ingest_clock
            state.consumed_at = resume_from.consumed_at
            state.work_exhausted = resume_from.work_exhausted
            state.rounds = resume_from.rounds
            state.ingested = resume_from.ingested
            state.shed = resume_from.shed
            state.duplicates_dropped = resume_from.duplicates_dropped
            self.last_checkpoint = resume_from
        for name in PRESEEDED_COUNTERS:
            metrics.count(name, 0)
        for name in PRESEEDED_PHASES:
            metrics.phase(name)
        state.last_checkpoint_clock = state.clock
        return state

    def _check_resumable(self, checkpoint: EngineCheckpoint, plan_fingerprint: int) -> None:
        """Refuse resumes that would silently corrupt the run."""
        if checkpoint.engine != self._KIND:
            raise ValueError(
                f"checkpoint was taken by a {checkpoint.engine!r} engine, "
                f"cannot resume on {self._KIND!r}"
            )
        if checkpoint.budget != self.budget:
            raise ValueError(
                f"checkpoint budget {checkpoint.budget} does not match "
                f"engine budget {self.budget}"
            )
        if checkpoint.plan_fingerprint != plan_fingerprint:
            raise ValueError("checkpoint was taken against a different stream plan")

    # ------------------------------------------------------------------
    # Phase 0: resilience bookkeeping at the loop-top cut
    # ------------------------------------------------------------------
    def _loop_top(self, state: RunState) -> None:
        """Checkpoint cadence, load shedding."""
        resilience = self.resilience
        if (
            resilience.checkpoint_every is not None
            and state.clock - state.last_checkpoint_clock >= resilience.checkpoint_every
        ):
            state.metrics.count("engine.checkpoints_taken")
            self.last_checkpoint = self._take_checkpoint(state)
            state.last_checkpoint_clock = state.clock
        if resilience.shed_watermark is not None:
            due = bisect.bisect_right(state.arrival_times, state.clock, state.next_arrival)
            excess = (due - state.next_arrival) - resilience.shed_watermark
            while excess > 0:
                # Overload: drop the oldest due increments outright.  A
                # later redelivery of the same id may still be ingested.
                state.metrics.count("engine.shed_increments")
                state.shed += 1
                state.next_arrival += 1
                excess -= 1
                if state.next_arrival == state.n_arrivals:
                    state.consumed_at = state.clock

    def _take_checkpoint(self, state: RunState) -> EngineCheckpoint:
        self._join(state)
        return EngineCheckpoint(
            engine=self._KIND,
            budget=self.budget,
            plan_fingerprint=plan_token(state.plan),
            clock=state.clock,
            ingest_clock=state.ingest_clock,
            next_arrival=state.next_arrival,
            consumed_at=state.consumed_at,
            work_exhausted=state.work_exhausted,
            rounds=state.rounds,
            ingested=state.ingested,
            shed=state.shed,
            duplicates_dropped=state.duplicates_dropped,
            seen_increments=frozenset(state.seen_increments),
            duplicates=frozenset(state.duplicates),
            system_state=state.system.snapshot(),
            matcher_state=state.matcher.snapshot_state(),
            recorder_state=state.recorder.snapshot_state(),
            estimator_state=state.estimator.snapshot_state(),
            metrics_state=state.metrics.dump_state(),
        )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _drop_redelivered(self, state: RunState) -> None:
        """Exactly-once delivery: skip a redelivered increment."""
        state.metrics.count("engine.duplicate_increments_dropped")
        state.duplicates_dropped += 1
        state.next_arrival += 1
        if state.next_arrival == state.n_arrivals:
            state.consumed_at = state.clock

    def _ingest_one(self, state: RunState, timer: PhaseTimer, forced: bool = False) -> None:
        """Consume the next arrival (callers handle redelivery dedup)."""
        arrival = state.arrival_times[state.next_arrival]
        increment = state.increments[state.next_arrival]
        state.seen_increments.add(increment.index)
        state.estimator.record(arrival)
        cost = state.system.ingest(increment)
        now = self._advance_ingest(state, arrival, cost)
        timer.virtual += cost
        state.metrics.count("engine.increments_ingested")
        if forced:
            state.metrics.count("engine.forced_ingests")
        state.ingested += 1
        state.next_arrival += 1
        if state.next_arrival == state.n_arrivals:
            state.consumed_at = now

    def _ingest_start(self, state: RunState) -> float:
        """When the next arrival's ingest can start on the policy's clock."""
        raise NotImplementedError

    def _advance_ingest(self, state: RunState, arrival: float, cost: float) -> float:
        """Charge one ingestion to the policy's clock; return its finish time."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # The emission round: one findK/emit step, its batch executed
    # ------------------------------------------------------------------
    def _emission_round(self, state: RunState) -> None:
        """Ask the system for its next batch and execute it.

        Both engines run a round only while ``system.has_work()`` holds.
        The batch executes through the batched kernel under the deadline
        rule; the match clock never exceeds the budget on return.
        """
        metrics = state.metrics
        stats = self._pipeline_stats(state)
        with metrics.time_phase("emit") as emit_timer:
            emit = state.system.emit(stats)
            state.clock += emit.cost
            emit_timer.virtual += emit.cost
        state.rounds += 1
        metrics.count("engine.emission_rounds")
        executed_before = state.recorder.comparisons_executed
        if emit.batch:
            with metrics.time_phase("match") as match_timer:
                state.clock = self._execute_batch_kernel(state, emit.batch, match_timer)
        self._record_round(
            state, stats,
            emitted=len(emit.batch),
            executed=state.recorder.comparisons_executed - executed_before,
        )

    # ------------------------------------------------------------------
    # Comparison execution: the batched kernel
    # ------------------------------------------------------------------
    def _execute_batch_kernel(
        self,
        state: RunState,
        batch: tuple[tuple[int, int], ...],
        match_timer: PhaseTimer,
    ) -> float:
        """Batched execution: plan the deadline cut from estimates, charge
        the surviving prefix, score it in one batch.

        The batch stays the emitted ``(pid, pid)`` tuples up to the recorded
        duplicates: the matcher reads them through the system's ``profiles``
        lookup, each pid's profile once per run, and the fleet gets them too.

        Bit-identical to the pair-at-a-time oracle in
        ``tests/reference/scalar_execution.py``: a pair costs exactly its
        estimate and scoring never fails, so the clock accumulates the same
        floats in the same order and the cut position is decidable up
        front.

        The plan is one pass in C: ``accumulate`` folds the round's costs
        onto the clock left to right, exactly as the oracle adds them, so
        its running sums *are* the oracle's clocks, and ``bisect``
        finds the first pair that finishes at or past the deadline (costs
        are non-negative, so the sums never decrease).  That pair is cut if
        it would overshoot; one finishing exactly at the deadline still
        runs and ends the round.  A round that loses nothing passes its
        batch and costs on as they are.

        The accounting of a round has two sides.  The **cost side** needs
        only the estimates and everything later in the run depends on it
        (the clock, ``mean_cost`` and with it the next ``K``, the progress
        curve, which is read off the ground truth): it happens here, in
        the round.  The **result side** — which pairs scored as matches —
        is read by nothing inside a run, so with a worker fleet the scores
        may arrive later: the round's pairs join ``state.unscored`` and are
        settled at the next join point, read through the same ``profiles``
        lookup (no system drops a profile from its store).  Without
        a fleet both sides run back to back, in one ``evaluate_batch`` call.
        """
        matcher = state.matcher
        metrics = state.metrics
        budget = self.budget
        clock = state.clock
        emitted = len(batch)
        profiles = state.system.profiles
        costs = matcher.estimate_cost_batch(batch, profiles)
        # clocks[i + 1] is the clock after the i-th pair.
        clocks = list(accumulate(costs, initial=clock))
        executed = emitted
        cut = False
        stop = bisect.bisect_left(clocks, budget, 1)
        if stop < len(clocks):
            cut = clocks[stop] > budget
            executed = stop - 1 if cut else stop
            if cut:
                metrics.count("engine.comparisons_cut_by_deadline", emitted - executed)
        if executed < emitted:
            batch = batch[:executed]
            costs = costs[:executed]
        match_timer.virtual = reduce(add, costs, match_timer.virtual)
        clock = clocks[executed]
        if cut:
            # The next comparison cannot finish by the deadline: charge the
            # cut-off time, credit nothing.
            match_timer.virtual += budget - clock
            clock = budget
        if executed:
            metrics.count("engine.comparisons_executed", executed)
            # The recorder gets the emitted tuples themselves: its executed
            # set then shares them with the system's store.
            matches = state.recorder.record_batch(batch, islice(clocks, 1, None))
            if matches:
                metrics.count("engine.matches_recorded", matches)
            if self._pool is None:
                self._record_matches(state, batch, matcher.evaluate_batch(batch, profiles, costs))
            else:
                matcher.account_costs(costs)
                state.unscored.extend(batch)
                if len(state.unscored) >= HAND_OFF_PAIRS:
                    self._hand_off(state)
        return clock

    @staticmethod
    def _record_matches(state: RunState, pairs: Iterable, flags: Iterable[bool]) -> None:
        """Result side of the engine's accounting: the run's duplicates."""
        duplicates = state.duplicates
        for pid_x, pid_y in compress(pairs, flags):
            duplicates.add((min(pid_x, pid_y), max(pid_x, pid_y)))

    # ------------------------------------------------------------------
    # Tier A (see repro.parallel): workers score hand-offs, master accounts
    # ------------------------------------------------------------------
    def _hand_off(self, state: RunState) -> None:
        """Send the buffered pairs to the fleet and return to the round.

        At most one hand-off is outstanding: the previous one is gathered
        first.  A buffer below the pool's ``min_shard`` is scored here,
        in-process, bit-identically; so is one the pool cannot take — it
        is broken or closed, or its workers never answered the handshake
        the first scatter reads — which also counts a ``parallel.fallbacks``.

        Telemetry accumulates on ``state`` and only reaches the metrics
        registry in :meth:`_finalize`: mid-run checkpoints must capture a
        ``metrics_state`` that is bit-identical across worker counts.
        """
        self._gather(state)
        pool = self._pool
        pairs, state.unscored = state.unscored, []
        if len(pairs) >= pool.min_shard:
            if pool.healthy:
                if pool.owner is not self:
                    # Another engine scored through this pool since our last
                    # hand-off (interleaved tenants sharing one fleet): start
                    # a new cache epoch before scoring.  Every drain ends
                    # joined, so the other engine has nothing in the pipes.
                    pool.begin_run(owner=self)
                try:
                    state.in_flight = (pool.scatter(pairs, state.system.profiles), pairs)
                    return
                except WorkerPoolError:
                    pass  # the fleet never answered its handshake: broken now
            state.parallel_fallbacks += 1
        self._score_in_process(state, pairs)

    def _score_in_process(self, state: RunState, pairs: list[tuple[int, int]]) -> None:
        """Result side of pairs the fleet does not score: same kernel, same
        outcome counts, straight into the master matcher."""
        similarities = state.matcher._batch_scores(pairs, state.system.profiles)
        self._record_matches(state, pairs, state.matcher.account_scores(similarities))

    def _gather(self, state: RunState) -> None:
        """Collect the outstanding hand-off, if any, and settle its pairs."""
        if state.in_flight is None:
            return
        ticket, pairs = state.in_flight
        pool = self._pool
        try:
            similarities = pool.gather(ticket)
        except BaseException:
            # An interrupt in a poll, a pool closed under the run: the pool
            # has given the hand-off up (and cleared its pipes).  Its pairs
            # and the buffered ones are already charged, so they are
            # settled here before the exception goes on — whatever reads
            # the run next (``matches``, a checkpoint, ``results``) must
            # not come up short.
            state.in_flight = None
            pairs, state.unscored = pairs + state.unscored, []
            self._score_in_process(state, pairs)
            raise
        state.in_flight = None
        state.parallel_rounds += 1
        state.parallel_pairs += len(pairs)
        # Fold the workers' staged-kernel outcome counts into the master
        # matcher: ``matcher.kernel.*`` telemetry (and checkpointed matcher
        # state) stays bit-identical to a serial run.
        kernel_counts = state.matcher.kernel_counts
        for name, value in pool.last_kernel_counts.items():
            kernel_counts[name] = kernel_counts.get(name, 0) + value
        self._record_matches(state, pairs, state.matcher.account_scores(similarities))

    def _join(self, state: RunState) -> None:
        """Settle every pair charged so far: nothing buffered, nothing in
        flight afterwards — also when it raises (see :meth:`_gather`).

        Called wherever the result side becomes observable or the pool may
        change hands — the end of every drain (however it ends) and before
        every checkpoint — so no checkpoint, ``matches`` reply or
        :class:`RunResult` can see a half-settled run, and a hand-off never
        outlives the drain that made it.
        """
        if state.unscored:
            self._hand_off(state)
        self._gather(state)

    # ------------------------------------------------------------------
    # Shared probes and reporting
    # ------------------------------------------------------------------
    def _backlog(self, state: RunState) -> int:
        """Increments arrived by the (match) clock but not yet ingested."""
        due = bisect.bisect_right(state.arrival_times, state.clock, state.next_arrival)
        return due - state.next_arrival

    def _pipeline_stats(self, state: RunState) -> PipelineStats:
        mean_cost = self.matcher.mean_cost or self.match_cost_prior
        return PipelineStats(
            now=state.clock,
            input_rate=state.estimator.rate_at(state.clock),
            mean_match_cost=mean_cost,
            backlog=self._backlog(state),
            remaining_budget=self.budget - state.clock,
            next_ingest=(
                self._ingest_start(state) if state.next_arrival < state.n_arrivals else None
            ),
        )

    def _record_round(
        self, state: RunState, stats: PipelineStats, emitted: int, executed: int
    ) -> None:
        log = state.metrics.rounds
        if not log.keeps_next():
            # Most rounds of a long run: no gauges read, no sample built.
            log.skip()
            return
        state.metrics.record_round(
            round=state.rounds,
            clock=state.clock,
            backlog=stats.backlog,
            input_rate=stats.input_rate,
            emitted=emitted,
            executed=executed,
            **state.system.gauges(),
        )

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def _ingest_clock_end(self, state: RunState, final_clock: float) -> float:
        """The reported end of the ingest stage.  Single-clock policies share
        one clock across stages, so it coincides with ``final_clock``."""
        return final_clock

    def _finalize(self, state: RunState) -> RunResult:
        final_clock = min(state.clock, self.budget) if not state.work_exhausted else state.clock
        state.recorder.mark(final_clock)
        metrics = state.metrics
        metrics.gauge("engine.clock_end", final_clock)
        metrics.gauge("engine.budget", self.budget)
        metrics.gauge("engine.ingest_clock_end", self._ingest_clock_end(state, final_clock))
        # Tier A telemetry lands here, after the last possible checkpoint,
        # so checkpointed metrics_state never varies with worker count.
        metrics.count("parallel.rounds_sharded", state.parallel_rounds)
        metrics.count("parallel.pairs_sharded", state.parallel_pairs)
        metrics.count("parallel.fallbacks", state.parallel_fallbacks)
        # Staged-kernel outcome counts accumulate as plain ints on the
        # matcher (worker-side counts are merged back per hand-off), so this
        # flush is also bit-identical across worker counts.
        for name, value in state.matcher.kernel_counts.items():
            metrics.count(f"matcher.kernel.{name}", value)
        pool = self._pool
        if pool is not None:
            scatter_wall = pool.scatter_wall_s - state.scatter_wall_start
            if scatter_wall > 0.0:
                metrics.phase("scatter").add(0.0, scatter_wall)
            metrics.count(
                "parallel.supervision.evictions", pool.evictions - state.evictions_start
            )
        # Effective fleet size, not the requested one: a failed pool reports 1.
        metrics.gauge(
            "parallel.workers", float(pool.size) if pool is not None and pool.healthy else 1.0
        )
        details = dict(state.system.describe())
        details["resilience"] = {
            "shed_increments": state.shed,
            "duplicate_increments_dropped": state.duplicates_dropped,
            "checkpoints_taken": metrics.counter("engine.checkpoints_taken"),
        }
        details["metrics"] = metrics.snapshot()
        return RunResult(
            system_name=state.system.name,
            matcher_name=state.matcher.name,
            curve=state.recorder.curve(),
            duplicates=frozenset(state.duplicates),
            comparisons_executed=state.recorder.comparisons_executed,
            clock_end=final_clock,
            budget=self.budget,
            stream_consumed_at=state.consumed_at,
            work_exhausted=state.work_exhausted,
            increments_ingested=state.ingested,
            match_events=state.recorder.match_events(),
            details=details,
        )
