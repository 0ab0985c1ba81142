"""The persistent, self-healing process pool that shards batched matcher
evaluation.

Tier A of the parallel layer (see ``docs/api.md``): the master engine keeps
sole ownership of the virtual clock, the
:class:`~repro.execution.store.ComparisonStore` and the metrics registry,
and only the *similarity scoring* fans out.  The engine charges every
emission round when it runs and collects the rounds' pairs into hand-offs
of a few thousand; a hand-off is :meth:`~WorkerPool.scatter`-ed —
contiguous chunks go to the workers — and scored while the master goes on
prioritising, and :meth:`~WorkerPool.gather` merges the results back in
submission order.  Because every matcher with
:attr:`~repro.matching.matcher.Matcher.supports_batch` scores pairs
independently (the vectorized kernels are elementwise), the merged
``(similarities, costs)`` lists are bit-identical to a single in-process
``_batch_scores`` call, and all downstream accounting is unchanged.

Design points:

* **spawn-safe** — workers are started with the ``spawn`` method (the only
  method that is fork-safety-clean on every platform); the worker entry
  point lives at module level in :mod:`repro.parallel.worker`.
* **profile payloads off the hot path** — each hand-off's not-yet-shipped
  profiles are pickled *once* into a read-only
  :mod:`multiprocessing.shared_memory` segment that every worker attaches
  and reads, so a profile crosses the process boundary once per run total
  (not once per worker); scoring messages carry only segment names plus
  pid pairs.  Hosts without usable shm (probed at startup) degrade to the
  classic per-worker pickle shipping, bit-identically.
* **supervised degradation** — every worker is tracked through the slot
  state machine of :mod:`repro.parallel.supervision`.  A dead, hung
  (compute replies carry a fleet-wide wall-clock deadline, mirroring the
  handshake deadline) or garbled worker is *evicted alone*: its in-flight
  chunk is re-scored in-process and the hand-off completes bit-identically;
  the slot respawns with capped, jittered exponential backoff and
  shm-generation catch-up.  Only a fleet whose every slot has exhausted
  its respawn budget turns ``broken`` — the pool-level terminal state —
  after which callers fall back to the in-process kernel for good.
* **crash-safe shm lifecycle** — published segments carry recognizable
  ``repro_shm_<pid>_*`` names, are tracked in a module registry swept by
  an ``atexit`` hook (so a master that never reaches ``close()`` still
  unlinks them), and pool startup reaps stale segments left behind by
  dead masters (a SIGKILLed master cannot run its own sweep).
* **deterministic chaos** — :class:`~repro.resilience.faults.WorkerFaultSpec`
  injects seeded process-level faults (SIGKILL mid-request, hang past the
  reply deadline, corrupt/truncated reply) into the workers, making every
  supervision path testable with exact eviction/respawn counts.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import random
import re
import time
from typing import TYPE_CHECKING, Sequence

from repro.parallel.supervision import (
    ALIVE,
    DEAD,
    EVICTED,
    RESPAWNING,
    SUSPECT,
    DEFAULT_HANDSHAKE_TIMEOUT_S,
    DEFAULT_SUPERVISION,
    SupervisionConfig,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.profile import EntityProfile
    from repro.matching.matcher import Matcher
    from repro.resilience.faults import WorkerFaultSpec

__all__ = [
    "WorkerPool",
    "WorkerPoolError",
    "DEFAULT_MIN_SHARD",
    "HANDSHAKE_TIMEOUT_S",
    "sweep_stale_segments",
]

#: Below this many pairs a hand-off is scored in-process: the round trip
#: costs more than the work.  Only the tail a join finds in the buffer can
#: be this small (full hand-offs are ``core.HAND_OFF_PAIRS``).  Threshold
#: only — results are bit-identical either way.  Measured on the 2-core
#: build host, two workers, warm caches, windows of the pairs I-PES emits
#: on dblp_acm x0.6, in-process ms / synchronous round-trip ms (ED: medians
#: of five sweeps, JS: one):
#:
#:   pairs      32    64    128   256   512   1024   2048
#:   ED       0.40  0.64   0.73  0.83  1.03   1.10   1.27
#:   JS       0.15  0.21   0.26  0.36  0.56   0.63   0.64
#:
#: ED breaks even at 512 (the five sweeps read 0.95-1.04 there, 0.71-0.85
#: at 256; an ED pair of this mix costs ~8 µs in-process).  JS has no
#: break-even at all — its ~1 µs per pair is less than pickling the pid
#: pair — so a JS fleet can only ever pay through the overlap with the
#: master, never through this threshold: the constant is set for ED, the
#: gate does not look at the matcher, and Tier A is documented as an
#: ED-class fleet (docs/architecture.md) until a JS fleet workload is
#: measured end to end.
DEFAULT_MIN_SHARD = 512

#: Back-compat alias; the live value is resolved per pool through
#: :class:`~repro.parallel.supervision.SupervisionConfig` (environment
#: variable ``REPRO_HANDSHAKE_TIMEOUT_S``, then this default).
HANDSHAKE_TIMEOUT_S = DEFAULT_HANDSHAKE_TIMEOUT_S

#: Known bytes round-tripped through a probe segment at startup to prove
#: the workers can attach shared memory on this host.
_SHM_PROBE_PAYLOAD = b"repro-shm-probe"

#: Shared-memory segments published by this process and not yet unlinked:
#: name → SharedMemory.  The atexit sweep below is the backstop for a
#: master that exits without ever reaching ``close()``; pool startup reaps
#: what even that could not cover (a SIGKILLed master) by name pattern.
_LIVE_SEGMENTS: dict[str, object] = {}
_SEGMENT_SEQ = 0
_SEGMENT_NAME = re.compile(r"^repro_shm_(\d+)_\d+$")


def _sweep_live_segments() -> None:  # pragma: no cover - exit hook
    """atexit backstop: unlink every segment ``close()`` never released."""
    for segment in list(_LIVE_SEGMENTS.values()):
        try:
            segment.close()
            segment.unlink()
        except OSError:
            pass
    _LIVE_SEGMENTS.clear()


atexit.register(_sweep_live_segments)


def _create_segment(size: int):
    """A tracked shm segment named ``repro_shm_<pid>_<seq>``.

    The embedded pid is what makes crash debris recognizable: a segment
    whose creating process no longer exists is stale by construction and
    reaped by :func:`sweep_stale_segments` at the next pool start.
    """
    global _SEGMENT_SEQ
    from multiprocessing import shared_memory

    pid = os.getpid()
    while True:
        _SEGMENT_SEQ += 1
        name = f"repro_shm_{pid}_{_SEGMENT_SEQ}"
        try:
            segment = shared_memory.SharedMemory(name=name, create=True, size=size)
        except FileExistsError:  # pragma: no cover - pid-reuse leftover
            continue
        _LIVE_SEGMENTS[name] = segment
        return segment


def _release_segment(segment) -> None:
    """Close + unlink one tracked segment (idempotent, best-effort)."""
    _LIVE_SEGMENTS.pop(segment.name, None)
    try:
        segment.close()
        segment.unlink()
    except OSError:  # pragma: no cover - already gone
        pass


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other user's process
        return True
    except OSError:  # pragma: no cover - platform quirk
        return True
    return True


def sweep_stale_segments() -> int:
    """Unlink ``repro_shm_*`` segments whose creating process is dead.

    A hard master crash (SIGKILL, OOM kill) runs neither ``close()`` nor
    the atexit sweep, leaking its published segments.  Every pool start
    calls this reaper: any segment named by a no-longer-running pid is
    debris and is unlinked.  Returns the number of segments reaped.
    Best-effort and Linux-shaped (``/dev/shm`` listing); hosts without it
    simply sweep nothing.
    """
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return 0
    own_pid = os.getpid()
    swept = 0
    for entry in entries:
        match = _SEGMENT_NAME.match(entry)
        if match is None:
            continue
        pid = int(match.group(1))
        if pid == own_pid or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join("/dev/shm", entry))
            swept += 1
        except OSError:  # pragma: no cover - raced another sweeper
            pass
    return swept


class WorkerPoolError(RuntimeError):
    """The pool cannot take this hand-off; callers must fall back in-process."""


class _Slot:
    """One supervised worker slot (see the state machine in
    :mod:`repro.parallel.supervision`)."""

    __slots__ = (
        "index", "state", "process", "connection", "known", "generation",
        "incarnation", "respawns_used", "next_respawn_at",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.state = RESPAWNING
        self.process = None
        self.connection = None
        self.known: set[int] = set()
        self.generation = 0
        self.incarnation = 0
        self.respawns_used = 0
        self.next_respawn_at = 0.0


class _HandOff:
    """The ticket of one :meth:`WorkerPool.scatter`: which slot owes which
    chunk, which chunks already need rescue, and when the replies are due."""

    __slots__ = ("scattered", "rescued", "deadline")

    def __init__(self) -> None:
        self.scattered: list[tuple[int, _Slot, Sequence]] = []
        self.rescued: list[tuple[int, Sequence]] = []
        self.deadline: float | None = None


class WorkerPool:
    """A supervised fleet of persistent worker processes scoring matcher
    batches.

    Parameters
    ----------
    workers:
        Number of worker slots (>= 1); the configured fleet width the
        supervisor heals back to after transient faults.
    matcher:
        Template for the workers' matcher replicas.  Only its class and
        configuration travel; statistics and metrics bindings stay home.
    min_shard:
        Smallest hand-off worth sharding (exposed for the engine's gate).
    supervision:
        Deadlines, respawn budget and backoff
        (:class:`~repro.parallel.supervision.SupervisionConfig`); ``None``
        means environment-resolved defaults.
    worker_faults:
        Seeded process-level chaos injected into the workers
        (:class:`~repro.resilience.faults.WorkerFaultSpec`); ``None`` (the
        default) injects nothing.
    """

    def __init__(
        self,
        workers: int,
        matcher: "Matcher",
        *,
        min_shard: int = DEFAULT_MIN_SHARD,
        supervision: SupervisionConfig | None = None,
        worker_faults: "WorkerFaultSpec | None" = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.min_shard = min_shard
        self.supervision = supervision or DEFAULT_SUPERVISION
        self.worker_faults = worker_faults
        self.broken = False
        #: Wall seconds the master spent inside :meth:`scatter` and
        #: :meth:`gather` — sending, and blocked on replies (telemetry only).
        self.scatter_wall_s = 0.0
        self.chunks_shipped = 0
        #: Shared-memory transfer telemetry (exported as ``parallel.shm_*``).
        self.shm_segments_published = 0
        self.shm_bytes_published = 0
        #: Supervision telemetry (exported as ``parallel.supervision.*``).
        self.evictions = 0
        self.respawns = 0
        self.reassigned_chunks = 0
        self.reply_timeouts = 0
        self.stale_segments_swept = sweep_stale_segments()
        #: Kernel outcome counts of the last gathered hand-off — the
        #: engine folds these into the master matcher so sharded runs
        #: report the same ``matcher.kernel.*`` counters as serial ones.
        self.last_kernel_counts: dict[str, int] = {}
        self._context = multiprocessing.get_context("spawn")
        self._use_shm = False
        self._segments: list = []  # (generation, SharedMemory, payload size)
        self._generation = 0
        self._published: set[int] = set()
        self._template = (type(matcher), _template_state(matcher))
        self._rescue: "Matcher | None" = None
        self._respawn_rng = random.Random(self.supervision.respawn_seed)
        self._closed = False
        #: The engine currently scoring through this pool (see
        #: :meth:`begin_run`).  ``None`` until a run claims the fleet.
        self._owner: object | None = None
        #: The scattered hand-off whose replies are still in the pipes.
        self._outstanding: _HandOff | None = None
        self._slots = [_Slot(index) for index in range(workers)]
        try:
            for slot in self._slots:
                self._start_worker(slot)
            # Handshake: a spawn failure (missing interpreter state, dead
            # child) must surface here, not as a silent no-op pool that
            # reports a fleet it does not have.  One deadline covers the
            # whole fleet — the workers spawn concurrently, so their pings
            # arrive concurrently too.
            self._await_replies(
                self._slots, ("ok", "pong"), "startup ping", strict=True
            )
            for slot in self._slots:
                slot.state = ALIVE
            self._use_shm = self._probe_shm()
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Spawning and handshakes
    # ------------------------------------------------------------------
    def _start_worker(self, slot: _Slot) -> None:
        """Spawn a process into ``slot`` and queue its handshake messages.

        The caller collects the ping reply (fleet-wide at startup, per
        slot on respawn) — splitting spawn from handshake is what lets
        startup overlap all spawns under one deadline.
        """
        parent_end, child_end = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_entry, args=(child_end,), daemon=True
        )
        process.start()
        child_end.close()
        parent_end.send(("matcher",) + self._template)
        if self.worker_faults is not None and not self.worker_faults.is_noop:
            parent_end.send(
                ("faults", self.worker_faults, slot.index, slot.incarnation)
            )
        parent_end.send(("ping",))
        slot.process = process
        slot.connection = parent_end
        slot.known = set()
        slot.generation = 0

    def _await_replies(
        self, slots: list, expected: tuple, what: str, *, strict: bool = False
    ) -> bool:
        """Collect one reply per slot under a single fleet-wide deadline.

        Returns ``True`` when every slot sent ``expected``; any other
        reply returns ``False`` (the pipes stay in sync — the reply *was*
        consumed).  A slot that stays silent past the shared deadline
        raises when ``strict`` (startup: the pool refuses to exist) and
        returns ``False`` otherwise.
        """
        deadline = time.monotonic() + self.supervision.resolved_handshake_timeout()
        all_expected = True
        for slot in slots:
            remaining = deadline - time.monotonic()
            try:
                if remaining <= 0 or not slot.connection.poll(remaining):
                    raise WorkerPoolError(
                        f"worker {slot.index} did not answer {what} in time"
                    )
                if slot.connection.recv() != expected:
                    all_expected = False
            except WorkerPoolError:
                if strict:
                    raise
                return False
            except (EOFError, OSError) as error:
                if strict:
                    raise WorkerPoolError(
                        f"worker {slot.index} failed {what}: {error!r}"
                    ) from error
                return False
        return all_expected

    def _probe_shm(self) -> bool:
        """Round-trip a known payload through a shm segment on every worker.

        Any failure — the master cannot create segments, or a worker
        cannot attach them — disables the shm transfer path (the pickle
        path is used instead, bit-identically).  Only a silent worker is
        fatal, exactly as in the startup ping.
        """
        try:
            probe = _create_segment(len(_SHM_PROBE_PAYLOAD))
        except Exception:
            return False
        try:
            probe.buf[: len(_SHM_PROBE_PAYLOAD)] = _SHM_PROBE_PAYLOAD
            for slot in self._slots:
                slot.connection.send(
                    ("shm_probe", probe.name, len(_SHM_PROBE_PAYLOAD))
                )
            return self._await_replies(
                self._slots, ("ok", "shm"), "shm probe", strict=True
            )
        finally:
            _release_segment(probe)

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        workers: int,
        matcher: "Matcher",
        *,
        min_shard: int = DEFAULT_MIN_SHARD,
        supervision: SupervisionConfig | None = None,
        worker_faults: "WorkerFaultSpec | None" = None,
    ) -> "WorkerPool | None":
        """Start a pool, or return ``None`` when the host cannot run one.

        This is the graceful-degradation entry point the engines and
        :class:`~repro.api.ERSession` use: a ``None`` pool means "execute
        in-process" (bit-identical, just not parallel).
        """
        if workers <= 1:
            return None
        try:
            return cls(
                workers,
                matcher,
                min_shard=min_shard,
                supervision=supervision,
                worker_faults=worker_faults,
            )
        except Exception:
            return None

    @property
    def size(self) -> int:
        """The configured fleet width (what the supervisor heals back to)."""
        return len(self._slots)

    @property
    def alive_count(self) -> int:
        return sum(1 for slot in self._slots if slot.state == ALIVE)

    @property
    def healthy(self) -> bool:
        return bool(self._slots) and not self.broken and not self._closed

    @property
    def shm_active(self) -> bool:
        """Whether profile payloads travel via shared memory (vs pickle)."""
        return self._use_shm and self.healthy

    # ------------------------------------------------------------------
    # Supervision: eviction, respawn, healing
    # ------------------------------------------------------------------
    def _evict(self, slot: _Slot, reason: str) -> None:
        """Condemn one slot: kill its process, schedule its respawn.

        Only this worker is condemned — the hand-off it was serving completes
        through in-process rescue, and the pool only turns ``broken`` when
        every slot has exhausted its respawn budget.
        """
        slot.state = SUSPECT
        connection, process = slot.connection, slot.process
        slot.connection = None
        slot.process = None
        if connection is not None:
            try:
                connection.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if process is not None:
            try:
                process.kill()
            except (OSError, ValueError):  # pragma: no cover - already dead
                pass
            process.join(timeout=1.0)
        self.evictions += 1
        if slot.respawns_used >= self.supervision.resolved_max_respawns():
            slot.state = DEAD
        else:
            slot.state = EVICTED
            backoff = self.supervision.respawn_backoff.backoff(
                slot.respawns_used + 1, self._respawn_rng
            )
            slot.next_respawn_at = time.monotonic() + backoff
        if all(entry.state == DEAD for entry in self._slots):
            # Terminal pool-level state: the fleet is unrecoverable.
            self.broken = True

    def _maybe_respawn(self, *, force: bool = False) -> None:
        """Respawn evicted slots whose backoff deadline has elapsed.

        ``force`` ignores the deadline (used by :meth:`heal`).  A respawned
        worker handshakes like a fresh one and catches up on shared memory
        by generation: its slot rewinds to generation 0, so its next
        scoring message carries every segment published this run.
        """
        if self.broken or self._closed:
            return
        now = time.monotonic()
        for slot in self._slots:
            if slot.state != EVICTED or (not force and now < slot.next_respawn_at):
                continue
            slot.state = RESPAWNING
            slot.respawns_used += 1
            slot.incarnation += 1
            try:
                self._start_worker(slot)
                handshaken = self._await_replies(
                    [slot], ("ok", "pong"), "respawn ping"
                )
                if handshaken and self._use_shm:
                    handshaken = self._probe_shm_one(slot)
            except Exception:
                handshaken = False
            if handshaken:
                slot.state = ALIVE
                self.respawns += 1
            else:
                self._evict(slot, "respawn handshake failed")

    def _probe_shm_one(self, slot: _Slot) -> bool:
        """The startup shm probe, replayed for one respawned worker."""
        try:
            probe = _create_segment(len(_SHM_PROBE_PAYLOAD))
        except Exception:  # pragma: no cover - shm vanished mid-run
            return False
        try:
            probe.buf[: len(_SHM_PROBE_PAYLOAD)] = _SHM_PROBE_PAYLOAD
            slot.connection.send(("shm_probe", probe.name, len(_SHM_PROBE_PAYLOAD)))
            return self._await_replies([slot], ("ok", "shm"), "respawn shm probe")
        except (BrokenPipeError, OSError):
            return False
        finally:
            _release_segment(probe)

    def heal(self, timeout_s: float = 10.0) -> int:
        """Wait (bounded) for the fleet to return to full configured width.

        Respawns every evicted slot, honoring backoff order but not making
        the caller wait for deadlines beyond ``timeout_s``.  Returns the
        number of alive workers afterwards.  Useful for tests, benchmarks,
        and service callers that want the fleet whole before a burst.
        """
        deadline = time.monotonic() + timeout_s
        while self.healthy:
            if not any(slot.state == EVICTED for slot in self._slots):
                break
            self._maybe_respawn(force=time.monotonic() + 0.05 >= deadline)
            if self.alive_count == self.size or time.monotonic() >= deadline:
                break
            time.sleep(min(0.02, max(0.0, deadline - time.monotonic())))
        return self.alive_count

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------
    @property
    def owner(self) -> object | None:
        """The engine that last claimed the fleet (cache-epoch marker).

        Worker profile caches are valid for exactly one run at a time;
        interleaved runs sharing the pool (multi-tenant push sessions)
        compare this marker and call :meth:`begin_run` on every switch, so
        pid collisions across tenants can never resolve to stale profiles.
        """
        return self._owner

    def begin_run(self, owner: object | None = None) -> None:
        """Reset every replica's pid-keyed caches (start of an engine run).

        Profile ids are only unique *within* a dataset, so neither the
        workers' profile caches nor any replica's derived matcher state —
        the rescue replica's included — may survive across runs that may
        target different data.  The reset is a one-way message; the pipe's
        FIFO ordering makes an ack unnecessary.
        A slot whose pipe fails here is evicted alone (and respawned on
        schedule); the fleet is not condemned.

        ``owner`` claims the fleet for the calling engine until the next
        reset — the cross-run sharing epoch (see :attr:`owner`).  Refused
        while a hand-off is outstanding: its replies would be read as the
        next run's.
        """
        if self._outstanding is not None:
            raise RuntimeError("cannot begin a run: a hand-off has not been gathered")
        self._owner = owner
        if self._rescue is not None:
            self._rescue._init_derived_state()
        if not self.healthy:
            return
        self._maybe_respawn()
        for slot in self._slots:
            if slot.state != ALIVE:
                continue
            try:
                slot.connection.send(("reset",))
            except (BrokenPipeError, OSError):
                self._evict(slot, "reset send failed")
                continue
            slot.known.clear()
        self._release_segments()

    def _release_segments(self) -> None:
        """Unlink every published segment and rewind the shm versioning.

        Between hand-offs only (``begin_run`` refuses while one is
        outstanding, a failed publish precedes the sends), or at ``close``:
        no worker that will be heard again can be mid-attach.
        """
        for _generation, segment, _size in self._segments:
            _release_segment(segment)
        self._segments = []
        self._generation = 0
        self._published.clear()
        for slot in self._slots:
            slot.generation = 0

    def _publish_profiles(self, fresh: list) -> None:
        """Pickle ``fresh`` profiles into one new read-only shm segment.

        The segment is versioned by a monotonically increasing generation;
        each worker is told, per scoring message, about exactly the
        segments it has not consumed yet — which is also how a respawned
        worker (rewound to generation 0) catches up on the whole run.
        """
        payload = pickle.dumps(fresh, protocol=pickle.HIGHEST_PROTOCOL)
        segment = _create_segment(max(1, len(payload)))
        segment.buf[: len(payload)] = payload
        self._generation += 1
        self._segments.append((self._generation, segment, len(payload)))
        self.shm_segments_published += 1
        self.shm_bytes_published += len(payload)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def batch_scores(
        self, pairs: Sequence[tuple["EntityProfile", "EntityProfile"]]
    ) -> tuple[list[float], list[float]]:
        """Score ``pairs`` across the fleet and wait for the result:
        :meth:`scatter` and :meth:`gather` back to back."""
        return self.gather(self.scatter(pairs))

    def scatter(
        self, pairs: Sequence[tuple["EntityProfile", "EntityProfile"]]
    ) -> _HandOff:
        """Send ``pairs`` to the fleet; :meth:`gather` collects the scores.

        The hand-off is split into contiguous chunks across the *alive*
        workers (first chunks get the remainder, mirroring
        ``split_into_increments``) and each worker scores one chunk while
        the caller does something else.  At most one hand-off is
        outstanding per pool — the caller gathers the previous one before
        it scatters the next — so a pipe never carries traffic in both
        directions at once and supervision judges one reply per slot.

        A slot whose pipe fails here is evicted and its chunk is scored
        in-process at the gather.  Raises :class:`WorkerPoolError` only
        when no worker is currently alive (respawn may still heal the
        fleet for later hand-offs) or the pool is terminally broken; the
        caller falls back in-process either way.
        """
        if self._outstanding is not None:
            raise RuntimeError("the previous hand-off has not been gathered")
        if not self.healthy:
            raise WorkerPoolError("worker pool is not available")
        self._maybe_respawn()
        alive = [slot for slot in self._slots if slot.state == ALIVE]
        if not alive:
            raise WorkerPoolError("no alive workers for this hand-off")
        started = time.perf_counter()
        if self._use_shm:
            # Publish each profile once for the whole fleet: one segment
            # per hand-off holding every not-yet-shipped profile.
            published = self._published
            fresh = []
            for profile_x, profile_y in pairs:
                if profile_x.pid not in published:
                    published.add(profile_x.pid)
                    fresh.append(profile_x)
                if profile_y.pid not in published:
                    published.add(profile_y.pid)
                    fresh.append(profile_y)
            if fresh:
                try:
                    self._publish_profiles(fresh)
                except OSError:
                    # shm vanished mid-run (host pressure): degrade to the
                    # pickle transport for the rest of the pool's life.
                    # Worker caches are keyed by pid, so inline re-shipping
                    # of already-published profiles is merely redundant.
                    self._use_shm = False
                    self._release_segments()

        # One contiguous chunk per alive worker.
        hand_off = _HandOff()
        cursor = 0
        position = 0
        for slot, chunk_size in zip(alive, _split_chunks(len(pairs), len(alive))):
            if chunk_size == 0:
                continue
            chunk = pairs[cursor : cursor + chunk_size]
            cursor += chunk_size
            if self._send_chunk(slot, chunk):
                hand_off.scattered.append((position, slot, chunk))
            else:
                hand_off.rescued.append((position, chunk))
            position += 1
        # The fleet-wide reply deadline (mirroring the handshake deadline)
        # runs from the moment the workers have their chunks: a hung worker
        # is detected, not waited on, however late the caller gathers.
        reply_timeout = self.supervision.resolved_reply_timeout()
        if reply_timeout is not None:
            hand_off.deadline = time.monotonic() + reply_timeout
        self.scatter_wall_s += time.perf_counter() - started
        self._outstanding = hand_off
        return hand_off

    def gather(self, hand_off: _HandOff) -> tuple[list[float], list[float]]:
        """Collect the scores of the outstanding hand-off, merged by
        submission index: the per-chunk ``(similarities, costs)`` lists are
        concatenated in chunk order — the exact element order of a single
        in-process call.

        A worker that died, hung past the reply deadline, or replied
        garbage is evicted and its chunk re-scored in-process, so the
        merged result is bit-identical no matter which workers failed.
        """
        if hand_off is not self._outstanding:
            raise RuntimeError("not the outstanding hand-off of this pool")
        self._outstanding = None
        started = time.perf_counter()
        results: dict[int, tuple] = {}
        rescued = hand_off.rescued
        received = 0
        try:
            for position, slot, chunk in hand_off.scattered:
                payload = self._receive_chunk(slot, len(chunk), hand_off.deadline)
                received += 1
                if payload is None:
                    rescued.append((position, chunk))
                else:
                    results[position] = payload
        finally:
            # Interrupted (KeyboardInterrupt in a poll): the remaining pipes
            # still owe a reply that the next hand-off would read as its own.
            for _position, slot, _chunk in hand_off.scattered[received:]:
                self._evict(slot, "gather interrupted")

        # Rescue: a condemned worker's chunk is re-scored in-process by the
        # pool's own matcher replica — same kernel, same outcome counts,
        # bit-identical scores at the chunk's original merge position.
        for position, chunk in rescued:
            results[position] = self._score_in_process(chunk)
            self.reassigned_chunks += 1

        similarities: list[float] = []
        costs: list[float] = []
        kernel_counts: dict[str, int] = {}
        for position in sorted(results):
            chunk_similarities, chunk_costs, chunk_counts = results[position]
            similarities.extend(chunk_similarities)
            costs.extend(chunk_costs)
            for name, value in chunk_counts.items():
                kernel_counts[name] = kernel_counts.get(name, 0) + value
        self.scatter_wall_s += time.perf_counter() - started
        self.chunks_shipped += len(hand_off.scattered)
        self.last_kernel_counts = kernel_counts
        return similarities, costs

    def _send_chunk(self, slot: _Slot, chunk: Sequence) -> bool:
        """Ship one chunk to one worker; evict the slot on pipe failure."""
        pid_pairs = [
            (profile_x.pid, profile_y.pid) for profile_x, profile_y in chunk
        ]
        try:
            if self._use_shm:
                segments = [
                    (segment.name, size)
                    for generation, segment, size in self._segments
                    if generation > slot.generation
                ]
                slot.connection.send(("shm_scores", segments, pid_pairs))
                slot.generation = self._generation
            else:
                known = slot.known
                fresh = []
                for profile_x, profile_y in chunk:
                    if profile_x.pid not in known:
                        known.add(profile_x.pid)
                        fresh.append(profile_x)
                    if profile_y.pid not in known:
                        known.add(profile_y.pid)
                        fresh.append(profile_y)
                slot.connection.send(("scores", fresh, pid_pairs))
        except (BrokenPipeError, OSError):
            self._evict(slot, "scatter send failed")
            return False
        return True

    def _receive_chunk(
        self, slot: _Slot, expected_pairs: int, deadline: float | None
    ) -> tuple | None:
        """Collect one scoring reply; evict the slot on timeout/death/garble.

        Returns the validated ``(similarities, costs, kernel_counts)``
        payload, or ``None`` after evicting the slot — the caller rescues
        the chunk in-process either way.
        """
        try:
            if deadline is not None:
                # Poll even past the deadline: a reply that is already in
                # the pipe is not late, the caller was.
                remaining = deadline - time.monotonic()
                if not slot.connection.poll(max(0.0, remaining)):
                    self.reply_timeouts += 1
                    self._evict(slot, "reply deadline exceeded")
                    return None
            reply = slot.connection.recv()
        except (EOFError, OSError):
            self._evict(slot, "worker died mid-request")
            return None
        payload = _validate_reply(reply, expected_pairs)
        if payload is None:
            self._evict(slot, f"garbled reply: {reply!r:.120}")
            return None
        return payload

    def _score_in_process(self, chunk: Sequence) -> tuple:
        """Re-score a condemned worker's chunk with the pool's own replica.

        The replica is rebuilt from the same template the workers receive,
        so scores and staged-kernel outcome counts are bit-identical to
        what the lost worker would have returned.
        """
        if self._rescue is None:
            from repro.parallel.worker import rebuild_matcher

            template_cls, template_state = self._template
            self._rescue = rebuild_matcher(
                template_cls, pickle.loads(pickle.dumps(template_state))
            )
        matcher = self._rescue
        counts = matcher.kernel_counts
        for key in counts:
            counts[key] = 0
        similarities, costs = matcher._batch_scores(list(chunk))
        return similarities, costs, dict(counts)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop and join every worker (idempotent, best-effort)."""
        self._closed = True
        self._outstanding = None
        self._release_segments()
        for slot in self._slots:
            if slot.connection is None:
                continue
            try:
                slot.connection.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for slot in self._slots:
            if slot.connection is not None:
                try:
                    slot.connection.close()
                except OSError:
                    pass
                slot.connection = None
        for slot in self._slots:
            process = slot.process
            if process is None:
                continue
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=1.0)
            slot.process = None
            slot.state = DEAD

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass


def _validate_reply(reply: object, expected_pairs: int) -> tuple | None:
    """The shape a healthy scoring reply must have; ``None`` otherwise.

    A truncated or corrupt payload must never merge: chunk results are
    concatenated positionally, so a short similarity list would silently
    misalign every later pair.  Anything but exact shape is garbage.
    """
    if not (isinstance(reply, tuple) and len(reply) == 2 and reply[0] == "ok"):
        return None
    payload = reply[1]
    if not (isinstance(payload, tuple) and len(payload) == 3):
        return None
    similarities, costs, kernel_counts = payload
    if not (isinstance(similarities, list) and isinstance(costs, list)):
        return None
    if len(similarities) != expected_pairs or len(costs) != expected_pairs:
        return None
    if not isinstance(kernel_counts, dict):
        return None
    return payload


def _worker_entry(connection) -> None:  # pragma: no cover - runs in child
    """Spawn target: import inside the child keeps the parent import-light."""
    from repro.parallel.worker import worker_main

    worker_main(connection)


def _template_state(matcher: "Matcher") -> dict:
    """The matcher configuration that travels to the workers.

    Statistics travel as zeros (workers never account; kernel counts are
    zeroed per scoring request and merged back by the master), derived
    caches are rebuilt worker-side, and the metrics binding never travels
    at all.
    """
    excluded = matcher._DERIVED_STATE
    state = {
        key: value
        for key, value in matcher.__dict__.items()
        if key != "_metrics" and key not in excluded
    }
    state["comparisons_executed"] = 0
    state["matches_found"] = 0
    state["total_cost"] = 0.0
    state["kernel_counts"] = dict.fromkeys(matcher.kernel_counts, 0)
    return state


def _split_chunks(n_pairs: int, n_workers: int) -> list[int]:
    """Contiguous chunk sizes: ``n_pairs`` split across ``n_workers``,
    remainder to the first chunks (deterministic on every host)."""
    base, extra = divmod(n_pairs, n_workers)
    return [base + (1 if index < extra else 0) for index in range(n_workers)]
