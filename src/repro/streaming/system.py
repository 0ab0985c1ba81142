"""The contract between ER systems and the streaming engine.

Every algorithm in this library — batch progressive baselines (PPS, PBS),
the incremental baseline (I-BASE), the PIER algorithms (I-PCS, I-PBS,
I-PES) and the naive GLOBAL/LOCAL adaptations — is packaged as an
:class:`ERSystem`.  The engine feeds it increments, asks it for comparison
batches, and charges all virtual costs the system reports, so that the
paper's throughput phenomena (initialization stalls, back-pressure,
adaptive budgets) emerge from one shared simulation loop.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from repro.blocking.blocks import BlockCollection
from repro.core.increments import Increment
from repro.core.profile import EntityProfile
from repro.execution.store import ComparisonStore
from repro.observability.metrics import MetricsRegistry

__all__ = ["PipelineCosts", "PipelineStats", "EmitResult", "ERSystem"]


@dataclass(frozen=True, slots=True)
class PipelineCosts:
    """Virtual cost parameters of the non-matching pipeline stages.

    All values are virtual seconds per unit of work.  They are deliberately
    orders of magnitude below typical match costs (the matcher is the usual
    ER bottleneck), but initialization-heavy algorithms multiply them by
    very large unit counts.
    """

    per_profile: float = 5e-5       # data reading / scrubbing / tokenizing
    per_token: float = 2e-6         # one inverted-index update
    per_weight: float = 5e-6        # one weighting-scheme evaluation
    per_enqueue: float = 1e-6       # one priority-queue operation
    per_edge_enumeration: float = 1e-6   # one block-graph edge visit (PPS init)
    per_block_open: float = 5e-6    # opening/sorting one block (PBS/I-PBS)
    per_round: float = 1e-5         # fixed overhead of one emission round


@dataclass(frozen=True, slots=True)
class PipelineStats:
    """Runtime estimates the engine shares with adaptive systems (findK)."""

    now: float
    input_rate: float | None        # increments per virtual second (EMA)
    mean_match_cost: float          # virtual seconds per executed comparison
    backlog: int                    # increments arrived but not yet ingested
    remaining_budget: float | None = None  # virtual seconds left before the budget
    next_ingest: float | None = None  # when the next ingest can start; None once consumed


@dataclass(frozen=True, slots=True)
class EmitResult:
    """One emission round: the comparisons to execute next and their
    prioritization cost (matching costs are charged separately)."""

    batch: tuple[tuple[int, int], ...]
    cost: float


class ERSystem:
    """Base class for all ER systems driven by the streaming engine.

    The base class is the shared front-end, the paper's *Incremental
    Blocking* component: it owns the blocking substrate
    (:attr:`collection`), the pid → profile store behind :attr:`profiles`,
    the comparison store the engines bind to (:attr:`store`) and the cost
    table (:attr:`costs`, one shared class-level constant), and
    :meth:`_index` indexes an increment into them.  Subclasses
    implement :meth:`ingest`, :meth:`has_work` and :meth:`emit`; the
    remaining hooks have sensible defaults.
    """

    name: str = "er-system"
    costs = PipelineCosts()
    _metrics: MetricsRegistry | None = None

    def __init__(self, clean_clean: bool = False, max_block_size: int | None = 200) -> None:
        self.collection = BlockCollection(clean_clean, max_block_size)
        self._profiles: dict[int, EntityProfile] = {}
        #: The system's comparison registry (its executed set).  It
        #: shares the system's lifetime, and ``snapshot``/``restore`` carry
        #: it with the rest of the mutable state.
        self.store = ComparisonStore()

    def _index(self, increment: Increment) -> float:
        """Index and store every profile of ``increment``; return the cost.

        One profile costs ``per_profile + per_token·|tokens|``, summed in
        profile order.
        """
        collection = self.collection
        costs = self.costs
        cost = 0.0
        for profile in increment:
            collection.add_profile(profile)
            self._profiles[profile.pid] = profile
            cost += costs.per_profile + costs.per_token * len(profile.tokens())
        return cost

    @property
    def profiles(self) -> Mapping[int, EntityProfile]:
        """Read-only pid → profile mapping for the classification step.

        The engines hand it to the matcher with each round's pid pairs, so
        it is a live view of the store, not a copy.
        """
        return MappingProxyType(self._profiles)

    @property
    def metrics(self) -> MetricsRegistry:
        """The run's metrics registry (a private one until an engine binds its own)."""
        if self._metrics is None:
            self._metrics = MetricsRegistry()
        return self._metrics

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Attach the engine's per-run registry; called at the start of a run."""
        self._metrics = registry

    def gauges(self) -> dict[str, float]:
        """Current gauge readings sampled into the per-round log.

        Subclasses report whatever describes their internal pressure — the
        adaptive ``K``, queue depths, blocks with pending pairs.  Keys should
        be flat dotted names; values must be plain numbers.
        """
        return {}

    def ingest(self, increment: Increment) -> float:
        """Consume a data increment; return the virtual cost of doing so."""
        raise NotImplementedError

    def has_work(self) -> bool:
        """Would :meth:`emit` make progress right now?

        Both engines ask before every emission round and call :meth:`emit`
        only on ``True``; on ``False`` they go straight to idle handling
        (a forced ingest, :meth:`on_idle`, a fast-forward, or exhaustion).
        Systems answer from their own queue or cursor, and a ``True`` must
        be backed by state the next :meth:`emit` consumes, or the engines
        spin on it.
        """
        raise NotImplementedError

    def emit(self, stats: PipelineStats) -> EmitResult:
        """Produce the next batch of comparisons to execute."""
        raise NotImplementedError

    def ready_for_ingest(self) -> bool:
        """Back-pressure hook: may the engine hand over the next increment?

        Non-adaptive systems with bounded internal queues (I-BASE) return
        ``False`` while their backlog is above the high watermark, which
        delays stream consumption exactly as the paper describes.
        """
        return True

    def on_idle(self, stats: PipelineStats) -> float | None:
        """Called when no increment is due and :meth:`has_work` is ``False``.

        Systems that can manufacture more work (the paper's "empty
        increment" trigger, e.g. ``GetComparisons`` refills) do so and
        return the virtual cost.  Returning ``None`` signals exhaustion.
        """
        return None

    def snapshot(self) -> dict[str, object]:
        """A deep snapshot of all mutable system state.

        The default walks ``__dict__`` (excluding the metrics binding),
        which covers any system built from plain containers; systems with
        structure-sharing internals override this for tighter control.
        Profiles alias rather than copy (``EntityProfile.__deepcopy__``),
        so snapshots cost memory proportional to the *index* state only.
        """
        return {
            key: copy.deepcopy(value)
            for key, value in self.__dict__.items()
            if key != "_metrics"
        }

    def restore(self, state: dict[str, object]) -> None:
        """Rewind to a snapshot, keeping the current metrics binding.

        The state is deep-copied on the way in, so one checkpoint can seed
        any number of restores.
        """
        metrics = self._metrics
        self.__dict__.update(copy.deepcopy(state))
        self._metrics = metrics

    def describe(self) -> dict[str, object]:
        """Reporting metadata."""
        return {"name": self.name}
