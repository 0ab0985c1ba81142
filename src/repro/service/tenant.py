"""Tenant sessions: one push-mode resolution stream per tenant.

A tenant is one independent incremental ER workload multiplexed onto the
service: its own :class:`~repro.api.ERSession` (over an initially *empty*
dataset — profiles only ever arrive through :meth:`TenantSession.ingest`),
its own virtual clock, its own comparison budget, its own resilience knobs.
Tenants share nothing but the server's event-loop thread, which runs their
ops one at a time, and (optionally) the Tier A
:class:`~repro.parallel.pool.WorkerPool` the server injects; the pool's
per-run cache epochs keep interleaved tenants from ever observing each
other's profiles.  A tenant keeps the pool it was opened with: if that
pool breaks, the tenant scores in-process from then on, bit-identically,
and tenants opened later get the server's replacement pool.

Budget model: ``TenantConfig.budget`` is the tenant's total virtual-time
allowance, exactly the classic engine budget, and the run's only deadline.
Every ingest auto-drains the engine to the increment's arrival time (capped
at the budget), so matches surface progressively; an explicit
:meth:`TenantSession.drain` moves the horizon further.  A horizon is a
pause, never a cut (see :mod:`repro.execution.push`).  Arrivals beyond the
budget are refused at admission — the virtual stream is over.

:class:`TenantSnapshot` is checkpoint/restore (PR 2) lifted to the tenant:
the engine checkpoint plus the fed arrival log and the tenant's
configuration, picklable as one object.  Restoring on any server (or the
same one after a restart) resumes the stream bit-identically — the
migration path behind zero-downtime restarts.  A snapshot travels in a
versioned envelope and decodes through an allow-list: restoring a blob
from a client can build the classes a snapshot holds and nothing else.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass, replace
from typing import Sequence

from repro.api import ERSession, EngineOptions
from repro.core.dataset import Dataset, ERKind, GroundTruth
from repro.core.increments import Increment
from repro.core.profile import EntityProfile
from repro.execution.push import PushRun
from repro.resilience.checkpoint import EngineCheckpoint
from repro.resilience.config import ResilienceConfig

__all__ = [
    "SNAPSHOT_CLASSES", "SNAPSHOT_VERSION", "TenantConfig", "TenantSession", "TenantSnapshot",
]

#: A snapshot blob is this magic, :data:`SNAPSHOT_VERSION` as two bytes,
#: then the pickled :class:`TenantSnapshot`.
SNAPSHOT_MAGIC = b"repro-tenant-snapshot\n"
#: Bumped whenever a checkpoint layout changes (2: the progress recorder
#: keeps no executed set of its own; 3: incremental systems checkpoint their
#: ``collection`` and ``profiles`` instead of a blocker object; 4: the
#: collection interns no block ids and systems pickle no cost table; 5: a
#: checkpoint's ``budget`` is the tenant's budget, not the last drain
#: horizon, it records whether the run ran dry, and no checkpoint or
#: comparison store carries a quarantine; 6: PPS-LOCAL checkpoints no blocking
#: configuration and keeps every profile in its store; 7: I-PBS block runs;
#: 8: the block collection's per-profile bit masks instead of key sets).
SNAPSHOT_VERSION = 8

#: Every class a tenant snapshot holds, of every system
#: (``tests/test_service.py`` fails when a snapshot meets a class
#: outside this set, or no longer meets one in it).  Decoding a blob can
#: build these and nothing else: no other global is importable from it.
SNAPSHOT_CLASSES = frozenset({
    ("repro.blocking.blocks", "Block"),
    ("repro.blocking.blocks", "BlockCollection"),
    ("repro.core.increments", "Increment"),
    ("repro.core.profile", "Attribute"),
    ("repro.core.profile", "EntityProfile"),
    ("repro.evaluation.recorder", "ProgressPoint"),
    ("repro.execution.store", "ComparisonStore"),
    ("repro.matching.matcher", "CostModel"),
    ("repro.metablocking.weights", "CommonBlocksScheme"),
    ("repro.priority.bounded_pq", "BoundedPriorityQueue"),
    ("repro.priority.rates", "AdaptiveK"),
    ("repro.resilience.checkpoint", "EngineCheckpoint"),
    ("repro.service.tenant", "TenantConfig"),
    ("repro.service.tenant", "TenantSnapshot"),
})


@dataclass(frozen=True, slots=True)
class TenantConfig:
    """Everything that defines one tenant's resolution workload.

    ``budget`` is the tenant's total virtual-time allowance (the classic
    engine budget).  ``shed_watermark`` is the *engine-level* shed knob
    (oldest due increments dropped beyond the backlog watermark) — distinct
    from the server's queue-level shedding, which drops ingest *requests*
    before they reach the engine.  ``kind`` selects Dirty vs Clean-Clean
    candidate generation for the arriving profiles.
    """

    tenant_id: str
    system: str = "I-PES"
    matcher: str = "JS"
    budget: float = 300.0
    kind: str = "dirty"
    pipelined: bool = False
    shed_watermark: int | None = None
    checkpoint_every: float | None = None

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ValueError("tenant_id must be non-empty")
        if not self.budget > 0:
            raise ValueError(f"budget must be positive, got {self.budget}")
        if self.kind not in ("dirty", "clean-clean"):
            raise ValueError(f"kind must be 'dirty' or 'clean-clean', got {self.kind!r}")
        if not isinstance(self.pipelined, bool):
            raise ValueError(f"pipelined must be a bool, got {self.pipelined!r}")


@dataclass(frozen=True, slots=True)
class TenantSnapshot:
    """A migratable cut of one tenant: config + arrivals + engine checkpoint.

    ``arrivals`` is the full fed log (arrival time, increment) up to the
    cut — re-fed on restore so the checkpoint's plan fingerprint matches —
    and ``horizon`` the last drain horizon, re-applied after restore so the
    resumed run continues from the same virtual position.
    """

    config: TenantConfig
    checkpoint: EngineCheckpoint | None
    arrivals: tuple[tuple[float, Increment], ...]
    horizon: float | None
    next_index: int

    def to_bytes(self) -> bytes:
        """The snapshot in its envelope: magic, version, pickled payload."""
        # Pickled straight behind the header: no second copy of the payload.
        stream = io.BytesIO()
        stream.write(SNAPSHOT_MAGIC + SNAPSHOT_VERSION.to_bytes(2, "big"))
        pickle.dump(self, stream, protocol=pickle.HIGHEST_PROTOCOL)
        return stream.getvalue()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "TenantSnapshot":
        """Decode :meth:`to_bytes` output; any other bytes raise ``ValueError``."""
        header = len(SNAPSHOT_MAGIC) + 2
        if blob[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC or len(blob) < header:
            raise ValueError(
                f"not a tenant snapshot envelope (expected version {SNAPSHOT_VERSION})"
            )
        version = int.from_bytes(blob[len(SNAPSHOT_MAGIC) : header], "big")
        if version != SNAPSHOT_VERSION:
            raise ValueError(
                f"snapshot version {version} cannot be restored "
                f"(expected version {SNAPSHOT_VERSION})"
            )
        stream = io.BytesIO(blob)  # shares the blob's buffer: no copy
        stream.seek(header)
        try:
            snapshot = _SnapshotUnpickler(stream).load()
        except Exception as exc:
            # Foreign bytes fail in many ways (UnpicklingError, EOFError,
            # AttributeError, IndexError, ...); the server answers
            # ValueError with one ``bad-request`` reply.
            raise ValueError(f"undecodable snapshot: {exc!r}") from exc
        if not isinstance(snapshot, cls):
            raise ValueError(f"not a TenantSnapshot: {type(snapshot).__name__}")
        if not isinstance(snapshot.config, TenantConfig) or not isinstance(
            snapshot.checkpoint, (EngineCheckpoint, type(None))
        ):
            raise ValueError("malformed TenantSnapshot")
        try:
            # Unpickling a frozen dataclass skips ``__post_init__``:
            # rebuilding a config runs its validation.
            replace(snapshot.config)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"invalid snapshot config: {exc}") from exc
        checkpoint, budget = snapshot.checkpoint, snapshot.config.budget
        if checkpoint is not None and checkpoint.budget != budget:
            # A checkpoint records the engine's budget, which a tenant
            # builds from its config: a mismatch was written by hand.
            raise ValueError(
                f"checkpoint budget {checkpoint.budget} does not match the tenant budget {budget}"
            )
        return snapshot


class _SnapshotUnpickler(pickle.Unpickler):
    """Unpickles a snapshot payload; refuses every global outside
    :data:`SNAPSHOT_CLASSES`."""

    def find_class(self, module: str, name: str) -> type:
        if (module, name) not in SNAPSHOT_CLASSES:
            raise pickle.UnpicklingError(f"{module}.{name} is not a snapshot class")
        return super().find_class(module, name)


def _empty_dataset(config: TenantConfig) -> Dataset:
    """The tenant's seed dataset: no profiles, empty ground truth.

    The service never knows ground truth — `pair_completeness` over an
    empty truth set is defined as 1.0, and result quality is evaluated by
    the *caller* against whatever truth they hold (as the benchmark does).
    """
    kind = ERKind.DIRTY if config.kind == "dirty" else ERKind.CLEAN_CLEAN
    return Dataset(f"tenant:{config.tenant_id}", (), GroundTruth(), kind)


class TenantSession:
    """One tenant's live push-mode run inside the service.

    Not thread-safe by itself: the server runs every engine-touching call
    on its event-loop thread, one op at a time, which is also what
    serializes shared-pool access across tenants.
    """

    def __init__(
        self,
        config: TenantConfig,
        *,
        workers: int = 1,
        pool: object | None = None,
        snapshot: TenantSnapshot | None = None,
    ) -> None:
        self.config = config
        resilience = ResilienceConfig(
            shed_watermark=config.shed_watermark, checkpoint_every=config.checkpoint_every
        )
        self._session = ERSession(
            _empty_dataset(config),
            systems=(config.system,),
            matcher=config.matcher,
            engine=EngineOptions(pipelined=config.pipelined, workers=workers),
            budget=config.budget,
            resilience=resilience,
            pool=pool,
        )
        #: Ops accepted by admission, in order — replaying this log through
        #: a fresh TenantSession reproduces the run bit-identically.
        self.ingests_accepted = 0
        self.ingests_shed = 0
        if snapshot is None:
            self._push: PushRun = self._session.push(config.system)
        else:
            self._push = self._session.push(config.system, resume_from=snapshot.checkpoint)
            self._push.feed_plan(snapshot.arrivals)
            # Each logged arrival was one accepted ingest of the original
            # tenant; the counter carries over with the log.
            self.ingests_accepted = len(snapshot.arrivals)
            # Bind the checkpoint to exactly these arrivals before any new
            # feeds can grow the plan past its fingerprint.
            self._push.start()
            if snapshot.horizon is not None:
                self._push.drain(snapshot.horizon)

    # ------------------------------------------------------------------
    # The push surface, budget-guarded
    # ------------------------------------------------------------------
    @property
    def clock(self) -> float:
        return self._push.clock

    def ingest(self, profiles: Sequence[EntityProfile], at: float | None = None) -> float:
        """Feed one increment and auto-drain to its arrival time.

        Raises ``ValueError`` when ``at`` lies beyond the tenant budget
        (the stream's virtual window is over) or regresses — admission
        control at the tenant boundary, before any engine work.
        Returns the recorded arrival time.
        """
        budget = self.config.budget
        if at is not None and at > budget:
            raise ValueError(
                f"arrival at t={at} is beyond the tenant budget {budget}"
            )
        recorded = self._push.ingest(profiles, at=at)
        self.ingests_accepted += 1
        # Progressive surfacing: advance the engine to the arrival so due
        # comparisons execute now, not at the next explicit drain.
        target = min(max(recorded, self._push.horizon or 0.0), budget)
        if target > 0.0 and target > (self._push.horizon or 0.0):
            self._push.drain(target)
        return recorded

    def drain(self, until: float) -> float:
        """Advance the tenant's virtual clock to ``until`` (≤ budget)."""
        if until > self.config.budget:
            raise ValueError(
                f"drain horizon {until} exceeds the tenant budget {self.config.budget}"
            )
        return self._push.drain(until)

    def matches(self) -> frozenset[tuple[int, int]]:
        return self._push.matches

    @property
    def match_count(self) -> int:
        """``len(self.matches())`` without building the set."""
        return self._push.match_count

    @property
    def comparisons_executed(self) -> int:
        return self._push.comparisons_executed

    def results(self):
        """Finalize the tenant's run (terminal)."""
        return self._push.results()

    def snapshot(self) -> TenantSnapshot:
        """A migratable cut of this tenant (taken between operations)."""
        return TenantSnapshot(
            config=self.config,
            checkpoint=self._push.checkpoint(),
            arrivals=tuple(self._push.plan),
            horizon=self._push.horizon,
            next_index=self._push.increments_fed,
        )

    def close(self) -> None:
        self._session.close()
