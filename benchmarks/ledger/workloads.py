"""The two real paths, driven end to end: ``ERSession.run()`` and the socket.

End-to-end code here touches only ``load_dataset``, ``ERSession``,
``EngineOptions(workers=...)``, ``ServiceClient`` and ``python -m
repro.service --port 0``.  The traced variants add spans from outside (see
:mod:`benchmarks.ledger.tracing`); nothing here passes the seed to the
program — it only ever sees the generated inputs.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from time import perf_counter

from repro.api import EngineOptions, ERSession
from repro.core.dataset import Dataset, ERKind
from repro.datasets.registry import load_dataset
from repro.service.client import ServiceClient

from benchmarks.ledger import spec
from benchmarks.ledger.stats import calibrate
from benchmarks.ledger.tracing import Tracer

#: Public entry points wrapped with a span in a traced run: span name and
#: the work count taken at the same boundary.
SYSTEM_SPANS = {
    "ingest": ("pier.ingest", None),
    "emit": ("pier.emit", lambda result, args: len(result.batch)),
    "on_idle": ("pier.idle", None),
}
MATCHER_SPANS = {
    "estimate_cost_batch": ("matching.estimate", None),
    "evaluate_batch": ("matching.evaluate", lambda result, args: len(result)),
    "evaluate": ("matching.evaluate", lambda result, args: 1),
}
PUSH_SPANS = {
    "feed_plan": ("execution.feed", None),
    "ingest": ("execution.feed", None),
    "drain": ("execution.drain", None),
    "results": ("execution.results", None),
    "checkpoint": ("execution.checkpoint", None),
}
POOL_SPANS = {"batch_scores": ("parallel.scatter", lambda result, args: len(args[1]))}
CLIENT_SPANS = {
    op: (f"service.{op}", None)
    for op in ("ping", "open", "ingest", "matches", "drain", "results",
               "snapshot", "restore", "close_tenant")
}


class TracedSession(ERSession):
    """An ``ERSession`` whose layers record spans into ``tracer``.

    Uses only the public builder hooks: the system, the matcher and the
    push run each get their entry points wrapped as they are built.
    """

    def __init__(self, *args, tracer: Tracer, checkpoint_after_drain: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.tracer = tracer
        self.checkpoint_after_drain = checkpoint_after_drain
        self.matchers: list = []
        self.checkpoints: list = []

    def build_system(self, system_name: str):
        system = super().build_system(system_name)
        self.tracer.instrument(system, SYSTEM_SPANS)
        return system

    def build_matcher(self):
        matcher = super().build_matcher()
        self.tracer.instrument(matcher, MATCHER_SPANS)
        self.matchers.append(matcher)
        return matcher

    def push(self, *args, **kwargs):
        push = super().push(*args, **kwargs)
        self.tracer.instrument(push, PUSH_SPANS)
        if self.checkpoint_after_drain:
            # One checkpoint at work exhaustion (the largest state), taken
            # between ``run()``'s own drain and results calls.
            traced = type(push)
            checkpoints = self.checkpoints

            def drain(push_self, until):
                clock = traced.drain(push_self, until)
                checkpoints.append(push_self.checkpoint())
                return clock

            push.__class__ = type(traced.__name__, (traced,), {"__slots__": (), "drain": drain})
        return push


# ----------------------------------------------------------------------
# Inputs and shared bookkeeping
# ----------------------------------------------------------------------
def make_dataset(workload: spec.Workload, seed: int, tiny: bool) -> Dataset:
    scale = workload.tiny_scale if tiny else workload.scale
    return load_dataset(workload.dataset, scale, seed)


def output_fingerprint(duplicates, comparisons: int) -> str:
    """Digest of what a run reported: its duplicate set and comparison count."""
    text = f"{comparisons}|{sorted(map(tuple, duplicates))}"
    return hashlib.sha256(text.encode()).hexdigest()


def foreign_pairs(duplicates, dataset: Dataset) -> int:
    """Reported duplicates that are not pairs of ingested profile ids."""
    known = {profile.pid for profile in dataset.profiles}
    return sum(1 for x, y in duplicates if x not in known or y not in known)


def session_failures(result, increments_fed: int) -> tuple[int, int]:
    """``(attempted, failed)`` operations of one ``ERSession.run()``."""
    counters = result.details["metrics"]["counters"]
    cut = counters["engine.comparisons_cut_by_deadline"]
    failed = (
        (increments_fed - result.increments_ingested)
        + counters["engine.quarantined_pairs"]
        + cut
        + counters["parallel.fallbacks"]
    )
    return increments_fed + result.comparisons_executed + cut, failed


# ----------------------------------------------------------------------
# ERSession.run()
# ----------------------------------------------------------------------
def run_session(workload: spec.Workload, dataset: Dataset, tracer: Tracer | None) -> dict:
    """One run of a session workload; ``ready_at`` marks the end of set-up."""
    options = EngineOptions(workers=workload.workers)
    common = dict(
        systems=(workload.system,),
        matcher=workload.matcher,
        engine=options,
        n_increments=spec.N_INCREMENTS,
        rate=workload.rate,
        budget=spec.BUDGET,
    )
    pool = None
    create_s = None
    if tracer is None:
        session = ERSession(dataset, **common)
        if workload.workers > 1:
            session.push()  # starts the session's fleet: set-up, not run time
    else:
        if workload.workers > 1:
            from repro.parallel.pool import WorkerPool

            template = ERSession(dataset, matcher=workload.matcher).build_matcher()
            started = perf_counter()
            pool = WorkerPool.create(workload.workers, template)
            create_s = perf_counter() - started
            if pool is not None:
                tracer.instrument(pool, POOL_SPANS)
        session = TracedSession(
            dataset, tracer=tracer, checkpoint_after_drain=True, pool=pool, **common
        )
    try:
        ready_at = time.time()
        calibrations = calibrate()
        started = perf_counter()
        if tracer is None:
            result = session.run()
        else:
            with tracer.span("run"):
                result = session.run()
        wall_s = perf_counter() - started
        calibrations += calibrate()
        plan = session.plan_for(workload.system)
    finally:
        session.close()
        if pool is not None:
            pool.close()
    attempted, failed = session_failures(result, len(plan))
    return {
        "ready_at": ready_at,
        "wall_s": wall_s,
        "calibrations": calibrations,
        "profiles": len(dataset),
        "recall_final": dataset.ground_truth.pair_completeness(result.duplicates),
        "cmp_to_pc90": result.curve.comparisons_to_pc(0.9),
        "attempted": attempted,
        "failed": failed,
        "duplicates": result.duplicates,
        "comparisons": result.comparisons_executed,
        "work_exhausted": result.work_exhausted,
        "result": result,
        "session": session,
        "arrival_order": [p for _, increment in plan for p in increment.profiles],
        "parallel_create_s": create_s,
    }


# ----------------------------------------------------------------------
# The socket path
# ----------------------------------------------------------------------
def split_ingests(dataset: Dataset, n_ingests: int, seed: int) -> list[list]:
    """The dataset in arrival order, cut into ``n_ingests`` near-equal chunks."""
    profiles = list(dataset.profiles)
    random.Random(seed).shuffle(profiles)
    n_ingests = min(n_ingests, len(profiles))
    base, extra = divmod(len(profiles), n_ingests)
    chunks, cursor = [], 0
    for index in range(n_ingests):
        size = base + (1 if index < extra else 0)
        chunks.append(profiles[cursor : cursor + size])
        cursor += size
    return chunks


def start_server() -> tuple[subprocess.Popen, int]:
    """``python -m repro.service --port 0`` as a child; returns its port."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
    )
    line = process.stdout.readline()
    try:
        return process, int(line.rsplit(":", 1)[1])
    except (IndexError, ValueError):
        process.kill()
        process.wait()
        raise RuntimeError(f"server did not announce a port: {line!r}") from None


def stop_server(process: subprocess.Popen, port: int) -> None:
    try:
        with ServiceClient("127.0.0.1", port, timeout=10.0) as client:
            client.shutdown()
        process.wait(timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        process.kill()
        process.wait()
    finally:
        process.stdout.close()


class TenantDriver:
    """One closed-loop client: a connection, a tenant, its op log and timings."""

    def __init__(self, port: int, tenant: spec.Tenant, kind: str, chunks, truth, tracer):
        self.tenant = tenant
        self.chunks = chunks
        self.truth = truth
        self.client = ServiceClient("127.0.0.1", port, timeout=170.0)
        if tracer is not None:
            tracer.instrument(self.client, CLIENT_SPANS)
        self.tracer = tracer
        self.kind = kind
        self.requests = 0
        self.refused = 0
        self.shed = 0
        self.ingest_ms: list[float] = []
        self.matches_ms: list[float] = []
        #: ``(comparisons, true matches found)`` at each ``matches`` poll.
        self.polls: list[tuple[int, int]] = []
        #: Accepted ingests as ``(at, chunk)``: the op log the replay re-runs.
        self.accepted: list[tuple[float, list]] = []
        self.first_match_ms: float | None = None
        self.timings: dict[str, float] = {}
        self.error: BaseException | None = None

    def timed(self, key: str, call, *args, **kwargs):
        started = perf_counter()
        reply = call(*args, **kwargs)
        self.timings[key] = (perf_counter() - started) * 1e3
        self.requests += 1
        return reply

    def open(self) -> None:
        self.client.open(
            self.tenant.name, system=self.tenant.system, matcher=self.tenant.matcher,
            budget=spec.BUDGET, kind=self.kind,
        )

    def stream(self, barrier: threading.Barrier) -> None:
        """Phase A: every ingest, a poll after every 10th, the final drain."""
        try:
            barrier.wait()
            with self.tracer.span("run") if self.tracer else nullcontext():
                self._stream()
        except BaseException as exc:  # re-raised by the caller after join
            self.error = exc

    def _stream(self) -> None:
        name, client = self.tenant.name, self.client
        began = perf_counter()
        for index, chunk in enumerate(self.chunks):
            at = float(index)
            started = perf_counter()
            reply = client.ingest(name, chunk, at=at, check=False)
            ended = perf_counter()
            self.requests += 1
            if reply.get("ok"):
                self.ingest_ms.append((ended - started) * 1e3)
                self.accepted.append((at, chunk))
                if self.first_match_ms is None and reply["matches"] > 0:
                    self.first_match_ms = (ended - began) * 1e3
            else:
                self.refused += 1
                self.shed += reply.get("error") == "shed"
            if index % spec.POLL_EVERY == spec.POLL_EVERY - 1:
                started = perf_counter()
                reply = client.matches(name)
                self.matches_ms.append((perf_counter() - started) * 1e3)
                self.requests += 1
                self._record_poll(reply["comparisons"], reply["matches"])
        self.timed("drain_final_ms", client.drain, name, spec.BUDGET)

    def _record_poll(self, comparisons: int, matches) -> None:
        found = sum(1 for pair in matches if tuple(pair) in self.truth)
        self.polls.append((comparisons, found))

    def finish(self) -> dict:
        """Phase B: snapshot, results, then restore and compare."""
        name, client = self.tenant.name, self.client
        with self.tracer.span("finish") if self.tracer else nullcontext():
            blob = self.timed("snapshot_ms", client.snapshot, name)
            original = self.timed("results_ms", client.results, name)["result"]
            self._record_poll(original["comparisons_executed"], original["matches"])
            client.close_tenant(name)
            # The server only restores a snapshot under the tenant id it was
            # taken with, so the original is closed first.
            self.timed("restore_ms", client.restore, name, blob)
            restored = client.results(name)["result"]
            client.close_tenant(name)
            self.requests += 3
        self.timings["snapshot_bytes"] = len(blob)
        return {"original": original, "restored": restored}


def pooled_cmp_to_pc90(drivers: list[TenantDriver], truth_size: int) -> int | None:
    """Comparisons (summed over tenants) at the first poll where the
    tenant-mean recall reached 0.9; polls are aligned by ingest index."""
    if not truth_size:
        return 0
    for polls in zip(*(driver.polls for driver in drivers)):
        recall = sum(found for _, found in polls) / (truth_size * len(polls))
        if recall >= 0.9:
            return sum(comparisons for comparisons, _ in polls)
    return None


def run_service(
    workload: spec.Workload, dataset: Dataset, seed: int, tiny: bool, traced: bool
) -> dict:
    """One run of the socket workload: server child, two closed-loop clients."""
    chunks = split_ingests(dataset, workload.tiny_ingests if tiny else workload.ingests, seed)
    kind = "clean-clean" if dataset.kind is ERKind.CLEAN_CLEAN else "dirty"
    truth = frozenset(dataset.ground_truth)
    process, port = start_server()
    drivers: list[TenantDriver] = []
    ping_us = None
    try:
        for tenant in workload.tenants:
            tracer = Tracer(f"{workload.name}/client-{tenant.name}") if traced else None
            driver = TenantDriver(port, tenant, kind, chunks, truth, tracer)
            drivers.append(driver)
            driver.open()
        if traced:
            ping_us = _ping_rtt_us(drivers[0].client)
        barrier = threading.Barrier(len(drivers) + 1)
        threads = [threading.Thread(target=d.stream, args=(barrier,)) for d in drivers]
        for thread in threads:
            thread.start()
        ready_at = time.time()
        calibrations = calibrate()  # the clients wait at the barrier meanwhile
        barrier.wait()
        started = perf_counter()
        for thread in threads:
            thread.join()
        stream_s = perf_counter() - started
        calibrations += calibrate()
        for driver in drivers:
            if driver.error is not None:
                raise driver.error
        outcomes = [driver.finish() for driver in drivers]
    finally:
        for driver in drivers:
            driver.client.close()
        stop_server(process, port)
    # "First feed to results returned": the streaming phase plus the
    # results calls; snapshot/restore are timed on their own.
    wall_s = stream_s + sum(d.timings["results_ms"] for d in drivers) / 1e3
    requests = sum(d.requests for d in drivers)
    refused = sum(d.refused for d in drivers)
    recalls = {
        d.tenant.name: dataset.ground_truth.pair_completeness(
            map(tuple, outcome["original"]["matches"])
        )
        for d, outcome in zip(drivers, outcomes)
    }
    duplicates = [
        (d.tenant.name, *pair)
        for d, outcome in zip(drivers, outcomes)
        for pair in outcome["original"]["matches"]
    ]
    return {
        "ready_at": ready_at,
        "wall_s": wall_s,
        "calibrations": calibrations,
        "profiles": sum(len(chunk) for d in drivers for _, chunk in d.accepted),
        "recall_final": sum(recalls.values()) / len(recalls),
        "cmp_to_pc90": pooled_cmp_to_pc90(drivers, len(truth)),
        "attempted": requests,
        "failed": refused,
        "duplicates": duplicates,
        "comparisons": sum(o["original"]["comparisons_executed"] for o in outcomes),
        "work_exhausted": all(o["original"]["work_exhausted"] for o in outcomes),
        "kind": kind,
        "drivers": drivers,
        "outcomes": outcomes,
        "recalls": recalls,
        "ping_us": ping_us,
    }


def _ping_rtt_us(client: ServiceClient) -> float:
    samples = []
    for _ in range(spec.PING_SAMPLES):
        started = perf_counter()
        client.ping()
        samples.append((perf_counter() - started) * 1e6)
    return statistics.median(samples)
