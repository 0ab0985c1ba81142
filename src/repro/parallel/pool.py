"""Tier A of :mod:`repro.parallel`: worker processes that score hand-offs.

The master keeps the virtual clock and all accounting.  Each worker is
``sys.executable`` running :data:`_WORKER_BOOT` with one end of a pipe: it
takes the parent's ``sys.path``, imports this module and, through the
matcher template (its first message), the matcher's module — never the
caller's ``__main__``.  :meth:`WorkerPool.create` returns once the
processes are launched; the first :meth:`WorkerPool.scatter` reads their
ready replies, so the workers start while the master runs its first rounds.

:meth:`WorkerPool.scatter` sends one contiguous chunk of a hand-off to each
worker and returns at once;
:meth:`WorkerPool.gather` concatenates the replies in order, bit-identical
to one in-process ``_batch_scores`` call.  A worker replies with the
chunk's similarities and its kernel outcome counts, nothing else: costs
never travel, the master charged them from its own estimates when the
round ran.

A chunk is ``(epoch, profiles this worker has not received this epoch, pid
pairs)``, the hand-off's slice shipped as it is and scored against the
worker's pid → profile dict; a worker that sees a new epoch first drops
that dict and the matcher's pid-keyed derived state, so
:meth:`WorkerPool.begin_run` is an epoch bump on the master.  Any failure —
a dead pipe, a reply of the wrong shape, silence past
:data:`REPLY_TIMEOUT_S`, an interrupted gather — kills every worker and
leaves the pool ``broken`` for good: the failing hand-off is re-scored
in-process on a replica of the same template, later ones are the caller's
to score.  Nothing respawns; the service replaces a broken pool.
"""

from __future__ import annotations

import copy
import pickle
import subprocess
import sys
import time
from itertools import chain
from multiprocessing.connection import Connection, Pipe
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.matching.matcher import Matcher, PidPairs, Profiles

__all__ = ["HANDSHAKE_TIMEOUT_S", "MIN_SHARD", "REPLY_TIMEOUT_S", "WorkerPool", "WorkerPoolError"]

#: Below this many pairs a hand-off is scored in-process (only the tail a
#: join finds can be this small); read per pool as ``pool.min_shard``.  A
#: threshold only: where a synchronous round trip breaks even with scoring
#: ED in-process (measurements in docs/architecture.md).
MIN_SHARD = 512

#: Wall seconds from the launch until the whole fleet must have answered
#: the handshake — one deadline, not one per worker: the workers start
#: concurrently.  Read at the first scatter; a reply already in the pipe
#: then is on time.
HANDSHAKE_TIMEOUT_S = 30.0

#: Wall seconds from a scatter until its replies are due.  Generous — a
#: chunk scores in milliseconds — because a false alarm breaks the pool.
REPLY_TIMEOUT_S = 60.0

#: What a worker process runs: ``argv[1]`` is its end of the pipe, the rest
#: the parent's ``sys.path``.
_WORKER_BOOT = (
    "import sys; sys.path[:] = sys.argv[2:]; "
    "from repro.parallel.pool import _worker_main; _worker_main(int(sys.argv[1]))"
)


class WorkerPoolError(RuntimeError):
    """The pool cannot take this hand-off; callers must score in-process."""


class WorkerPool:
    """Worker processes scoring batches on replicas of ``matcher``."""

    def __init__(self, workers: int, matcher: "Matcher") -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.size = workers
        self.min_shard = MIN_SHARD
        self.broken = False
        self.scatter_wall_s = 0.0  # master wall time inside scatter/gather
        self.evictions = 0  # workers lost: the whole fleet, when it breaks
        #: Kernel outcome counts of the last gathered hand-off.
        self.last_kernel_counts: dict[str, int] = {}
        #: The engine whose :meth:`begin_run` started the current epoch.
        self.owner: object | None = None
        self._template = (type(matcher), _template_state(matcher))
        self._rescue: "Matcher | None" = None
        self._closed = False
        self._epoch = 0
        self._sent: list[set[int]] = [set() for _ in range(workers)]  # pids, this epoch
        self._outstanding: tuple | None = None  # (chunks, reply deadline)
        self._processes, self._connections = [], []  # one of each per worker
        #: The handshake deadline, until the first scatter has read it.
        self._ready_by: float | None = time.monotonic() + HANDSHAKE_TIMEOUT_S
        try:
            for _ in range(workers):
                process, connection = _launch()
                self._processes.append(process)
                self._connections.append(connection)
                connection.send(self._template)  # the worker's first message
        except BaseException:
            self.close()
            raise

    @classmethod
    def create(cls, workers: int, matcher: "Matcher") -> "WorkerPool | None":
        """A pool, or ``None`` ("score in-process") for ``workers <= 1`` or
        a host that cannot launch one.  Returns once the workers are
        launched: whether they answer is for the first scatter to find."""
        if workers <= 1:
            return None
        try:
            return cls(workers, matcher)
        except Exception:
            return None

    @property
    def healthy(self) -> bool:
        return not self.broken and not self._closed

    def begin_run(self, owner: object | None = None) -> None:
        """Start a new cache epoch for ``owner``'s run: no cache keyed by
        profile id survives into it.  Refused while a hand-off is
        outstanding (its replies belong to the previous run)."""
        if self._outstanding is not None:
            raise RuntimeError("cannot begin a run: a hand-off has not been gathered")
        self.owner = owner
        self._epoch += 1
        for sent in self._sent:
            sent.clear()
        if self._rescue is not None:
            self._rescue._init_derived_state()

    def batch_scores(self, pairs: "PidPairs", profiles: "Profiles") -> list[float]:
        """:meth:`scatter` and :meth:`gather` back to back."""
        return self.gather(self.scatter(pairs, profiles))

    def scatter(self, pairs: "PidPairs", profiles: "Profiles") -> tuple:
        """Send one contiguous chunk of the ``(pid, pid)`` ``pairs`` to each
        worker (the first chunks take the remainder), with only the
        ``profiles`` it lacks; return the ticket :meth:`gather` redeems.
        One hand-off is outstanding at a time, so a pipe never carries
        traffic both ways.  A failed send breaks the pool (gather then
        scores in-process); a broken or closed pool, or a first scatter
        whose fleet has not answered the handshake, raises
        :class:`WorkerPoolError`."""
        if self._outstanding is not None:
            raise RuntimeError("the previous hand-off has not been gathered")
        if not self.healthy:
            raise WorkerPoolError("worker pool is not available")
        started = time.perf_counter()
        if self._ready_by is not None:
            self._await_handshake()
        step, extra = divmod(len(pairs), self.size)
        cuts = [slot * step + min(slot, extra) for slot in range(self.size + 1)]
        chunks = [
            (slot, pairs[cuts[slot] : cuts[slot + 1]])
            for slot in range(self.size)
            if cuts[slot] < cuts[slot + 1]
        ]
        try:
            for slot, chunk in chunks:
                self._connections[slot].send(self._message(slot, chunk, profiles))
        except OSError:
            self._break()
        self._outstanding = (chunks, time.monotonic() + REPLY_TIMEOUT_S, profiles)
        self.scatter_wall_s += time.perf_counter() - started
        return self._outstanding

    def _await_handshake(self) -> None:
        """Read every worker's ``("ok", "ready")`` by the launch deadline,
        or break the pool and raise :class:`WorkerPoolError`."""
        deadline, self._ready_by = self._ready_by, None
        for connection in self._connections:
            try:
                if connection.poll(max(0.0, deadline - time.monotonic())):
                    if connection.recv() == ("ok", "ready"):
                        continue
            except (EOFError, OSError, pickle.UnpicklingError):
                pass
            self._break()
            raise WorkerPoolError("a worker did not answer the handshake in time")

    def _message(self, slot: int, chunk: "PidPairs", profiles: "Profiles") -> tuple:
        """``(epoch, profiles the worker has not received this epoch, pid
        pairs)``."""
        sent = self._sent[slot]
        fresh = set(chain.from_iterable(chunk)).difference(sent)
        sent |= fresh
        return self._epoch, [profiles[pid] for pid in fresh], chunk

    def gather(self, hand_off: tuple) -> list[float]:
        """The hand-off's similarities in chunk order; from the first
        failed chunk on, scored in-process — the same result."""
        if hand_off is not self._outstanding:
            raise RuntimeError("not the outstanding hand-off of this pool")
        self._outstanding = None
        started = time.perf_counter()
        chunks, deadline, profiles = hand_off
        similarities: list[float] = []
        kernel_counts: dict[str, int] = {}
        try:
            for slot, chunk in chunks:
                reply = None
                if not self.broken:
                    reply = self._receive(slot, len(chunk), deadline)
                if reply is None:
                    reply = self._score_in_process(chunk, profiles)
                similarities.extend(reply[0])
                for name, value in reply[1].items():
                    kernel_counts[name] = kernel_counts.get(name, 0) + value
        except BaseException:
            # Interrupted (KeyboardInterrupt in a poll): the pipes still owe
            # replies that the next hand-off would read as its own.
            self._break()
            raise
        self.scatter_wall_s += time.perf_counter() - started
        self.last_kernel_counts = kernel_counts
        return similarities

    def _receive(self, slot: int, n_pairs: int, deadline: float) -> tuple | None:
        """One reply of exactly the chunk's shape, or ``None`` (pool broken)."""
        connection = self._connections[slot]
        try:
            # Poll even past the deadline: a reply that is already in the
            # pipe is not late, the caller was.
            if connection.poll(max(0.0, deadline - time.monotonic())):
                # Exact shape only: a short list would misalign every later
                # pair of the merge.
                match connection.recv():
                    case ("ok", (list() as sims, dict() as counts)) if len(sims) == n_pairs:
                        return sims, counts
        except (EOFError, OSError, pickle.UnpicklingError):
            pass
        self._break()
        return None

    def _score_in_process(self, chunk: "PidPairs", profiles: "Profiles") -> tuple:
        """A chunk scored on a replica of the workers' own template."""
        if self._rescue is None:
            self._rescue = _replica(self._template)
        return _score(self._rescue, chunk, profiles)

    def _break(self) -> None:
        """Kill every worker; the pool stays ``broken`` for good."""
        if not self.broken:
            self.broken = True
            self.evictions += len(self._processes)
        self._stop(kill=True)

    def close(self) -> None:
        """Stop and reap every worker (idempotent); one that never answered
        the handshake is killed."""
        self._closed = True
        self._outstanding = None
        self._stop(kill=self._ready_by is not None)

    def _stop(self, *, kill: bool) -> None:
        processes, self._processes = self._processes, []
        connections, self._connections = self._connections, []
        if kill:
            for process in processes:
                process.kill()
        for connection in connections:  # a worker exits when its pipe closes
            connection.close()
        for process in processes:
            try:
                process.wait(timeout=2.0)
            except subprocess.TimeoutExpired:  # stopped or stuck: no pipe reaches it
                process.kill()
                process.wait()


def _launch() -> tuple[subprocess.Popen, Connection]:
    """One worker process and the master's end of its pipe.  The worker
    gets the parent's interpreter flags (``-O``, ``-W``, ``-X dev``,
    ``-I``/``-E``/``-s``, ...), as a ``multiprocessing`` spawn child does."""
    connection, child_end = Pipe()
    try:
        fd = child_end.fileno()
        flags = subprocess._args_from_interpreter_flags()
        process = subprocess.Popen(
            [sys.executable, *flags, "-c", _WORKER_BOOT, str(fd), *sys.path],
            stdin=subprocess.DEVNULL,
            pass_fds=(fd,),
        )
    except BaseException:
        connection.close()
        raise
    finally:
        child_end.close()
    return process, connection


def _template_state(matcher: "Matcher") -> dict:
    """The matcher configuration that travels: statistics as zeros, no
    derived caches (rebuilt worker-side), no metrics binding."""
    skip = ("_metrics", *matcher._DERIVED_STATE)
    state = {key: value for key, value in matcher.__dict__.items() if key not in skip}
    state.update(comparisons_executed=0, matches_found=0, total_cost=0.0)
    state["kernel_counts"] = dict.fromkeys(matcher.kernel_counts, 0)
    return state


def _replica(template: tuple) -> "Matcher":
    """A matcher rebuilt from a template (``__init__`` bypassed), bound to
    no metrics registry, its derived caches empty."""
    matcher_cls, state = template
    matcher = matcher_cls.__new__(matcher_cls)
    matcher.__dict__.update(copy.deepcopy(state))
    matcher._metrics = None
    matcher._init_derived_state()
    return matcher


def _score(matcher: "Matcher", pairs: "PidPairs", profiles: "Profiles") -> tuple:
    """``(similarities, kernel_counts)`` of one chunk of pid pairs."""
    counts = matcher.kernel_counts
    for key in counts:
        counts[key] = 0
    similarities = matcher._batch_scores(pairs, profiles)
    return similarities, dict(counts)


def _worker_main(fd: int) -> None:  # pragma: no cover - child
    """Take the matcher template, answer the handshake, then reply to each
    chunk with ``("ok", (similarities, kernel_counts))`` until the pipe
    closes.  Any other error ends the process, which the master sees as
    EOF."""
    connection = Connection(fd)
    profiles: dict = {}
    epoch = None
    try:
        matcher = _replica(connection.recv())
        connection.send(("ok", "ready"))
        while True:
            chunk_epoch, fresh, pid_pairs = connection.recv()
            if chunk_epoch != epoch:
                # A new run: the same pid may now name another profile.
                epoch = chunk_epoch
                profiles.clear()
                matcher._init_derived_state()
            for profile in fresh:
                profiles[profile.pid] = profile
            connection.send(("ok", _score(matcher, pid_pairs, profiles)))
    except (EOFError, OSError):
        pass  # the master closed the pipe
    connection.close()
