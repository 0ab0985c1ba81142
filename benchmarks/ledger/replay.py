"""Sub-layers that cannot be separated in-run from outside, measured by replay.

Each function pushes the workload's own inputs (its arrival order, its op
log) through a layer's public functions and times them.  A layer whose
entry points are gone yields ``None`` for its metrics, never a crash.
"""

from __future__ import annotations

import pickle
from contextlib import nullcontext
from time import perf_counter
from unittest import mock

from benchmarks.ledger import spec
from benchmarks.ledger.tracing import Tracer
from benchmarks.ledger.workloads import TracedSession

#: The strategies' own defaults (I-PCS/I-PBS queue bound, I-PBS filter size,
#: block-ghosting beta), so the replay exercises the shapes the run used.
QUEUE_CAPACITY = 500_000
BLOOM_INITIAL_CAPACITY = 4096
GHOSTING_BETA = 0.2
#: Shifts a pair's left id outside every dataset's id range: a pair that was
#: never added, for the false-positive probe.
ABSENT_OFFSET = 1_000_000_007

BLOCKING_METRICS = ("blocking.add_profile_us", "blocking.blocks", "blocking.state_bytes")
METABLOCKING_METRICS = (
    "metablocking.sweep_us", "metablocking.candidates", "metablocking.wnp_kept_pct"
)
PRIORITY_METRICS = (
    "priority.enqueue_us", "priority.dequeue_us", "priority.bloom_add_us",
    "priority.bloom_contains_us", "priority.bloom_fp_pct",
)
CODEC_METRICS = ("service.codec_encode_us", "service.codec_decode_us")


def replay_front_end(profiles, clean_clean: bool) -> tuple[dict, list]:
    """Blocking and meta-blocking over the arrival order.

    Returns their metrics and the weighted comparison stream (what the
    strategies would enqueue) for the priority replay.
    """
    try:
        from repro.blocking.substrate import make_collection
        from repro.metablocking.sweep import sweep_candidate_weights
        from repro.metablocking.wnp import sweep_wnp
    except ImportError:
        return dict.fromkeys(BLOCKING_METRICS + METABLOCKING_METRICS), []
    collection = make_collection(None, clean_clean=clean_clean)
    add_s = sweep_s = 0.0
    candidates = 0
    weighted = []
    for profile in profiles:
        source = profile.source if clean_clean else None
        started = perf_counter()
        collection.add_profile(profile)
        added = perf_counter()
        found, _weights = sweep_candidate_weights(
            collection, profile.pid, None, beta=GHOSTING_BETA, source=source
        )
        swept = perf_counter()
        add_s += added - started
        sweep_s += swept - added
        candidates += len(found)
        weighted.extend(
            sweep_wnp(collection, profile.pid, None, beta=GHOSTING_BETA, source=source).kept
        )
    n = max(1, len(profiles))
    return {
        "blocking.add_profile_us": add_s / n * 1e6,
        "blocking.blocks": len(collection),
        "blocking.state_bytes": len(pickle.dumps(collection, pickle.HIGHEST_PROTOCOL)),
        "metablocking.sweep_us": sweep_s / n * 1e6,
        "metablocking.candidates": candidates,
        "metablocking.wnp_kept_pct": 100.0 * len(weighted) / candidates if candidates else 0.0,
    }, weighted


def replay_priority(weighted) -> dict:
    """The weighted stream through the queue, its pairs through the Bloom filter."""
    try:
        from repro.priority.bloom import ScalableBloomFilter
        from repro.priority.bounded_pq import BoundedPriorityQueue
    except ImportError:
        return dict.fromkeys(PRIORITY_METRICS)
    if not weighted:
        return dict.fromkeys(PRIORITY_METRICS, 0.0)
    queue = BoundedPriorityQueue(QUEUE_CAPACITY)
    started = perf_counter()
    for comparison in weighted:
        queue.enqueue((comparison.left, comparison.right), comparison.weight)
    enqueued = perf_counter()
    while queue:
        queue.dequeue()
    dequeued = perf_counter()
    bloom = ScalableBloomFilter(initial_capacity=BLOOM_INITIAL_CAPACITY)
    for comparison in weighted:
        bloom.add(comparison.left, comparison.right)
    added = perf_counter()
    false_positives = 0
    for comparison in weighted:
        false_positives += bloom.contains(comparison.left + ABSENT_OFFSET, comparison.right)
    probed = perf_counter()
    n = len(weighted)
    return {
        "priority.enqueue_us": (enqueued - started) / n * 1e6,
        "priority.dequeue_us": (dequeued - enqueued) / n * 1e6,
        "priority.bloom_add_us": (added - dequeued) / n * 1e6,
        "priority.bloom_contains_us": (probed - added) / n * 1e6,
        "priority.bloom_fp_pct": 100.0 * false_positives / n,
    }


def replay_codec(tenant: str, accepted) -> tuple[dict, list[tuple[float, tuple]]]:
    """The run's ingest frames through the wire codec, both directions.

    Returns the codec metrics and the op log as the server saw it: profiles
    decoded from the wire, which is what the tenant replay feeds.
    """
    try:
        from repro.service import protocol

        encode_profiles, decode_profiles = protocol.encode_profiles, protocol.decode_profiles
        encode_line, decode_line = protocol.encode_line, protocol.decode_line
    except (ImportError, AttributeError):
        return dict.fromkeys(CODEC_METRICS), [(at, tuple(chunk)) for at, chunk in accepted]
    encode_s = decode_s = 0.0
    decoded = []
    for index, (at, chunk) in enumerate(accepted):
        started = perf_counter()
        frame = encode_line(
            {"op": "ingest", "id": index, "tenant": tenant,
             "profiles": encode_profiles(chunk), "at": at}
        )
        encoded = perf_counter()
        profiles = decode_profiles(decode_line(frame)["profiles"])
        encode_s += encoded - started
        decode_s += perf_counter() - encoded
        decoded.append((at, profiles))
    n = max(1, len(accepted))
    return {
        "service.codec_encode_us": encode_s / n * 1e6,
        "service.codec_decode_us": decode_s / n * 1e6,
    }, decoded


def replay_tenant(tenant: spec.Tenant, kind: str, op_log, tracer: Tracer | None = None):
    """A tenant's accepted op log through an in-process ``TenantSession``.

    Returns the final ``RunResult``, per-ingest milliseconds and the total
    seconds.  With a ``tracer`` the tenant's session is a
    :class:`TracedSession` (swapped in where ``TenantSession`` looks its
    session class up), a checkpoint is taken at exhaustion, and the traced
    session is returned too.
    """
    from repro.service import tenant as tenant_module

    config = tenant_module.TenantConfig(
        tenant.name, system=tenant.system, matcher=tenant.matcher,
        budget=spec.BUDGET, kind=kind,
    )
    sessions: list[TracedSession] = []
    if tracer is None:
        session = tenant_module.TenantSession(config)
    else:
        def traced_session(*args, **kwargs):
            sessions.append(TracedSession(*args, tracer=tracer, **kwargs))
            return sessions[-1]

        with mock.patch.object(tenant_module, "ERSession", traced_session):
            session = tenant_module.TenantSession(config)
    ingest_ms = []
    started = perf_counter()
    try:
        with tracer.span("run") if tracer else nullcontext():
            for index, (at, profiles) in enumerate(op_log):
                before = perf_counter()
                session.ingest(profiles, at=at)
                ingest_ms.append((perf_counter() - before) * 1e3)
                if index % spec.POLL_EVERY == spec.POLL_EVERY - 1:
                    session.matches()
            session.drain(spec.BUDGET)
            if tracer is not None:
                sessions[0].checkpoints.append(session.snapshot().checkpoint)
            result = session.results()
    finally:
        session.close()
    return result, ingest_ms, perf_counter() - started, sessions[0] if sessions else None
