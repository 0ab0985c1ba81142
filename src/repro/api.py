"""The unified session API: one typed builder for every way to run ER.

Running a resolution means composing five surfaces — ``load_dataset`` +
``split_into_increments`` + ``make_stream_plan`` + a system and a matcher
by paper name + an engine class.  :class:`ERSession` is that composition,
written once, for every driver (``resolve_stream``, the CLI, the benchmark
drivers, the service):

    from repro.api import ERSession

    with ERSession("dblp_acm", systems=("I-PES", "I-BASE"), matcher="ED",
                   n_increments=50, rate=5.0, budget=60.0, workers=4) as session:
        results = session.compare()

Engine behavior knobs travel in one :class:`EngineOptions` value; ``workers``
switches on the process-parallel layer (:mod:`repro.parallel`): Tier A
shards matcher scoring inside each run, Tier B fans independent
``compare`` cells across processes.  Either way results are bit-identical
to ``workers=1`` — parallelism here is an executor choice, never a
semantics choice.

Semantics note: batch baselines (PPS/PBS/BATCH/…-PSN) in the static
setting (``rate=None``) always receive the whole dataset as a single
increment, exactly how the paper runs them — from every entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.blocking.substrate import BlockingConfig
from repro.core.dataset import Dataset, GroundTruth
from repro.core.increments import StreamPlan, make_stream_plan, split_into_increments
from repro.datasets.registry import load_dataset
from repro.evaluation.experiments import (
    BATCH_SYSTEMS,
    ExperimentConfig,
    _build_matcher,
    _build_system,
)
from repro.execution.push import PushRun
from repro.matching.matcher import Matcher
from repro.resilience.checkpoint import EngineCheckpoint
from repro.resilience.config import ResilienceConfig
from repro.streaming.engine import RunResult, StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine

__all__ = ["EngineOptions", "ERSession", "run_cell"]


@dataclass(frozen=True, slots=True)
class EngineOptions:
    """How the engine executes — and, for one knob group, what it computes.

    The execution fields (``--pipelined``, ``--workers``) travel as one
    first-class, picklable value that :class:`ExperimentConfig` can carry;
    ``workers`` never changes results.

    The **blocking substrate** group (``blocking`` / ``lsh_bands`` /
    ``lsh_rows`` / ``lsh_seed``; the CLI's ``--blocking`` / ``--lsh-*``) is
    the deliberate exception: choosing ``lsh`` changes which candidate
    comparisons are generated — it trades recall for candidate volume,
    which is the point.  The default ``token`` substrate is bit-identical
    to every run that predates the knob.
    """

    pipelined: bool = False
    workers: int = 1
    #: Blocking substrate: ``"token"`` (the paper's configuration, default)
    #: or ``"lsh"`` (MinHash-LSH buckets as blocks).  See
    #: :mod:`repro.blocking.substrate`.
    blocking: str = "token"
    #: MinHash-LSH shape: ``lsh_bands`` × ``lsh_rows`` permutations; the
    #: candidate threshold is ≈ ``(1/bands) ** (1/rows)``.  Ignored on the
    #: token substrate.
    lsh_bands: int = 16
    lsh_rows: int = 2
    #: Seed of the MinHash permutation family (deterministic across hosts
    #: and hash seeds for any fixed value).
    lsh_seed: int = 0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        # Delegates substrate/band/row validation (raises on bad values).
        self.blocking_config()

    def blocking_config(self) -> BlockingConfig:
        """These options as a blocking-substrate configuration."""
        return BlockingConfig(
            substrate=self.blocking,
            lsh_bands=self.lsh_bands,
            lsh_rows=self.lsh_rows,
            lsh_seed=self.lsh_seed,
        )


class ERSession:
    """One resolution session: dataset × stream shape × systems × engine.

    The constructor only records configuration; datasets load and pools
    spawn lazily on first use.  A session owns at most one Tier A
    :class:`~repro.parallel.pool.WorkerPool`, shared across every run it
    executes — use the session as a context manager (or call
    :meth:`close`) to shut the fleet down deterministically.  A pool that
    breaks stays broken: the session's later runs score in-process,
    bit-identically.

    Parameters
    ----------
    dataset:
        A registry name (loaded at ``scale``) or an in-memory
        :class:`~repro.core.dataset.Dataset`.
    systems:
        System name(s) by paper name; a single string is accepted.
    matcher:
        ``"JS"`` or ``"ED"``.
    engine:
        An :class:`EngineOptions`; ``None`` means all defaults.
    workers:
        Shorthand overriding ``engine.workers``.
    resilience:
        The full resilience knob set (quarantine, shedding, checkpoint
        cadence), passed through to the engine.
    pool:
        An externally owned :class:`~repro.parallel.pool.WorkerPool` to
        score through instead of spawning a session-private fleet.  The
        session *borrows* the pool — :meth:`close` never shuts it down —
        which is how the service multiplexes many tenant sessions onto one
        fleet.  The pool's matcher template must match this session's
        matcher configuration; every run starts its own cache epoch on the
        fleet (see ``WorkerPool.begin_run``).
    """

    def __init__(
        self,
        dataset: str | Dataset,
        *,
        systems: str | Sequence[str] = ("I-PES",),
        matcher: str = "JS",
        engine: EngineOptions | None = None,
        scale: float = 1.0,
        n_increments: int = 100,
        rate: float | None = None,
        budget: float = 300.0,
        seed: int = 0,
        workers: int | None = None,
        resilience: ResilienceConfig | None = None,
        pool: "object | None" = None,
    ) -> None:
        self._dataset_arg = dataset
        self.systems: tuple[str, ...] = (
            (systems,) if isinstance(systems, str) else tuple(systems)
        )
        if not self.systems:
            raise ValueError("systems must name at least one system")
        self.matcher_name = matcher
        engine = engine or EngineOptions()
        if workers is not None:
            engine = replace(engine, workers=workers)
        self.engine_options = engine
        self.scale = scale
        self.n_increments = n_increments
        self.rate = rate
        self.budget = budget
        self.seed = seed
        self.resilience = resilience
        #: The engine's latest checkpoint after each :meth:`run`.
        self.last_checkpoint: EngineCheckpoint | None = None
        self._dataset: Dataset | None = dataset if isinstance(dataset, Dataset) else None
        self._plans: dict[bool, StreamPlan] = {}
        self._pool = None
        self._pool_attempted = False
        self._external_pool = pool
        self._closed = False

    # ------------------------------------------------------------------
    # Lazy building blocks
    # ------------------------------------------------------------------
    @property
    def dataset(self) -> Dataset:
        if self._dataset is None:
            self._dataset = load_dataset(self._dataset_arg, scale=self.scale)
        return self._dataset

    @property
    def ground_truth(self) -> GroundTruth:
        return self.dataset.ground_truth

    def plan_for(self, system_name: str) -> StreamPlan:
        """The (cached) stream plan this system runs against.

        Batch baselines in the static setting get the whole dataset as one
        increment; everything else gets the ``n_increments`` split.  Plans
        are built once per session — shared, not re-split, across systems.
        """
        single = system_name.upper() in BATCH_SYSTEMS and self.rate is None
        plan = self._plans.get(single)
        if plan is None:
            increments = split_into_increments(
                self.dataset, 1 if single else self.n_increments, seed=self.seed
            )
            plan = make_stream_plan(increments, rate=self.rate)
            self._plans[single] = plan
        return plan

    def build_matcher(self) -> Matcher:
        """A fresh matcher for one run."""
        return _build_matcher(self.matcher_name)

    def build_system(self, system_name: str):
        return _build_system(
            system_name, self.dataset, blocking=self.engine_options.blocking_config()
        )

    def build_engine(self, matcher: Matcher) -> StreamingEngine:
        options = self.engine_options
        engine_cls = PipelinedStreamingEngine if options.pipelined else StreamingEngine
        return engine_cls(
            matcher,
            budget=self.budget,
            resilience=self.resilience,
            workers=options.workers,
            pool=self._shared_pool(matcher),
        )

    def _shared_pool(self, matcher: Matcher):
        """The Tier A pool runs score through: the borrowed one, else the
        session's own (spawned once, reused per run, ``None`` if it could
        not start).  A broken pool is still handed out — the engine then
        scores in-process and counts ``parallel.fallbacks``."""
        if self.engine_options.workers <= 1:
            return None
        if self._external_pool is not None:
            return self._external_pool
        if self._pool is None and not self._pool_attempted:
            self._pool_attempted = True
            from repro.parallel.pool import WorkerPool

            self._pool = WorkerPool.create(self.engine_options.workers, matcher)
        return self._pool

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        system: str | None = None,
        *,
        resume_from: EngineCheckpoint | None = None,
    ) -> RunResult:
        """Run one system (the first configured one by default).

        A thin wrapper over the push-mode surface: the session's whole
        stream plan is fed up front and drained once to the budget, which
        is bit-identical to the historical single-shot semantics (the
        engine-parity suite pins this down).
        """
        self._require_open("run")
        name = system if system is not None else self.systems[0]
        push = self.push(name, resume_from=resume_from)
        push.feed_plan(self.plan_for(name))
        push.drain(self.budget)
        result = push.results()
        self.last_checkpoint = push.last_checkpoint
        return result

    # ------------------------------------------------------------------
    # Push mode
    # ------------------------------------------------------------------
    def push(
        self,
        system: str | None = None,
        *,
        resume_from: EngineCheckpoint | None = None,
        adopt_checkpoint_budget: bool = False,
    ) -> PushRun:
        """Open a push-mode run: feed increments as they arrive.

        Returns the engine's :class:`~repro.execution.push.PushRun`, built
        on this session's matcher, engine, shared pool and system; its
        ``ingest``/``drain``/``results`` drive one run incrementally (see
        :mod:`repro.execution.push` for the exact semantics).  Each call
        opens an independent run.
        """
        self._require_open("push")
        name = system if system is not None else self.systems[0]
        engine = self.build_engine(self.build_matcher())
        return engine.open_push(
            self.build_system(name),
            self.ground_truth,
            resume_from=resume_from,
            adopt_checkpoint_budget=adopt_checkpoint_budget,
        )

    def compare(self) -> dict[str, RunResult]:
        """Run every configured system; results keyed in configuration order.

        With ``workers > 1`` the independent cells fan out across processes
        (Tier B) when nothing forces them in-process: checkpoint capture
        needs the session's own state, so a session with a resilience
        configuration compares serially (each run still sharding through
        Tier A).
        """
        self._require_open("compare")
        workers = self.engine_options.workers
        fan_out = workers > 1 and len(self.systems) > 1 and self.resilience is None
        if fan_out:
            from repro.parallel.cells import run_cells

            results = run_cells(self.to_config(), self.systems, workers=workers)
            return dict(zip(self.systems, results))
        return {name: self.run(name) for name in self.systems}

    # ------------------------------------------------------------------
    # Interop with the ExperimentConfig surface
    # ------------------------------------------------------------------
    def to_config(self) -> ExperimentConfig:
        """This session as a picklable :class:`ExperimentConfig` cell spec."""
        if isinstance(self._dataset_arg, str):
            dataset_name, dataset = self._dataset_arg, None
        else:
            dataset_name, dataset = self._dataset_arg.name, self._dataset_arg
        return ExperimentConfig(
            dataset_name=dataset_name,
            systems=self.systems,
            matcher=self.matcher_name,
            scale=self.scale,
            n_increments=self.n_increments,
            rate=self.rate,
            budget=self.budget,
            seed=self.seed,
            dataset=dataset,
            engine=self.engine_options,
        )

    @classmethod
    def from_config(
        cls, config: ExperimentConfig, systems: Sequence[str] | None = None
    ) -> "ERSession":
        return cls(
            config.dataset if config.dataset is not None else config.dataset_name,
            systems=tuple(systems) if systems is not None else config.systems,
            matcher=config.matcher,
            engine=config.engine,
            scale=config.scale,
            n_increments=config.n_increments,
            rate=config.rate,
            budget=config.budget,
            seed=config.seed,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has shut this session down."""
        return self._closed

    def _require_open(self, action: str) -> None:
        if self._closed:
            raise RuntimeError(
                f"cannot {action}: this ERSession is closed (close() was "
                "called); build a new session to run again"
            )

    def close(self) -> None:
        """Shut down the session's worker pool, if one was ever started.

        Idempotent: closing twice is a no-op.  Any other call on a closed
        session raises :class:`RuntimeError` at the facade — previously a
        use-after-close failed obscurely deep inside the pool.  A borrowed
        external pool (the ``pool=`` constructor argument) is *not* closed;
        its owner decides its lifetime.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._pool_attempted = False
        self._closed = True

    def __enter__(self) -> "ERSession":
        self._require_open("enter")
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def run_cell(config: ExperimentConfig, system_name: str) -> RunResult:
    """Execute one comparison cell — the unit Tier B fans out.

    Both the serial comparison loop and the process-pool children resolve a
    cell through this one function, which is what makes parallel collation
    result-identical to serial execution by construction.
    """
    with ERSession.from_config(config, systems=(system_name,)) as session:
        return session.run(system_name)
