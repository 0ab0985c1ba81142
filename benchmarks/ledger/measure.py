"""Turns one run into the record its child process prints.

The record carries the end-to-end numbers, the output fingerprint that the
parent compares across repeats and workloads, the run's own correctness
checks and — for a traced run — the per-layer numbers.
"""

from __future__ import annotations

import statistics

from repro.core.dataset import Dataset, ERKind

from benchmarks.ledger import replay, spec, workloads
from benchmarks.ledger.layers import kernel_funnel, span_layers, sum_counters, traced_wall_s
from benchmarks.ledger.stats import host_speed, peak_rss_mb, percentile
from benchmarks.ledger.tracing import Tracer, summarize, write_spans


def _base_record(run: dict, dataset: Dataset) -> dict:
    pairs = [tuple(duplicate[-2:]) for duplicate in run["duplicates"]]
    attempted, failed = run["attempted"], run["failed"]
    speed = host_speed(run["calibrations"])
    wall_s = run["wall_s"] * speed
    return {
        "ready_at": run["ready_at"],
        "wall_s": wall_s,
        "raw_wall_s": run["wall_s"],
        "host_speed": speed,
        "profiles": run["profiles"],
        "profiles_per_s": run["profiles"] / wall_s,
        "recall_final": run["recall_final"],
        # A run that never got there fails its check below; its count at
        # exhaustion stands in so the record stays numeric.
        "cmp_to_pc90": run["comparisons"] if run["cmp_to_pc90"] is None else run["cmp_to_pc90"],
        "peak_rss_mb": peak_rss_mb(),
        "attempted": attempted,
        "failed": failed,
        "failed_ops_pct": 100.0 * failed / attempted,
        "comparisons": run["comparisons"],
        "duplicates": len(pairs),
        "fingerprint": workloads.output_fingerprint(run["duplicates"], run["comparisons"]),
        "checks": {
            "work_exhausted": bool(run["work_exhausted"]),
            "duplicates_are_ingested_pairs": workloads.foreign_pairs(pairs, dataset) == 0,
            "recall_reached_0.9": run["cmp_to_pc90"] is not None,
        },
    }


def _front_end_layers(profiles, dataset: Dataset) -> dict:
    front, weighted = replay.replay_front_end(profiles, dataset.kind is ERKind.CLEAN_CLEAN)
    return {**front, **replay.replay_priority(weighted)}


def session_record(workload: spec.Workload, dataset: Dataset, trace: bool) -> dict:
    tracer = Tracer(f"{workload.name}/run") if trace else None
    run = workloads.run_session(workload, dataset, tracer)
    record = _base_record(run, dataset)
    if tracer is None:
        return record
    summary = summarize(tracer.records())
    session = run["session"]
    layers = span_layers(
        summary,
        tracer.missing,
        run["result"].details["metrics"]["counters"],
        kernel_funnel(session.matchers[-1:]),
        session.checkpoints,
    )
    layers["parallel.create_s"] = run["parallel_create_s"] or 0.0
    # What the parent reads tracing overhead from: the run's wall without
    # the checkpoint the tracer itself took.
    record["traced_wall_s"] = traced_wall_s(summary) * record["host_speed"]
    layers.update(_front_end_layers(run["arrival_order"], dataset))
    write_spans(spec.RESULTS_DIR / f"trace_{workload.name}.jsonl", [tracer])
    record["layers"] = layers
    return record


def _same_output(result, outcome: dict) -> bool:
    """An in-process replay reported what the socket tenant reported."""
    return (
        sorted(map(list, result.duplicates)) == outcome["matches"]
        and result.comparisons_executed == outcome["comparisons_executed"]
    )


def service_record(
    workload: spec.Workload, dataset: Dataset, seed: int, tiny: bool,
    trace: bool, verify_replay: bool,
) -> dict:
    run = workloads.run_service(workload, dataset, seed, tiny, trace)
    record = _base_record(run, dataset)
    drivers, outcomes = run["drivers"], run["outcomes"]
    speed = record["host_speed"]
    ingest_ms = [sample * speed for driver in drivers for sample in driver.ingest_ms]
    record["ingest_ms"] = ingest_ms
    record["ingest_p50_ms"] = statistics.median(ingest_ms)
    record["ingest_p99_ms"] = percentile(ingest_ms, 0.99)
    checks = record["checks"]
    for driver, outcome in zip(drivers, outcomes):
        original, restored = outcome["original"], outcome["restored"]
        checks[f"{driver.tenant.name}.restored_equals_original"] = (
            restored["matches"] == original["matches"]
            and restored["comparisons_executed"] == original["comparisons_executed"]
        )
    if not (trace or verify_replay):
        return record

    kind = run["kind"]
    codec: list[dict] = []
    op_logs = []
    engine_ms: list[float] = []
    inproc_s = 0.0
    for driver, outcome in zip(drivers, outcomes):
        codec_metrics, op_log = replay.replay_codec(driver.tenant.name, driver.accepted)
        codec.append(codec_metrics)
        op_logs.append(op_log)
        result, tenant_ms, seconds, _ = replay.replay_tenant(driver.tenant, kind, op_log)
        engine_ms.extend(tenant_ms)
        inproc_s += seconds
        checks[f"{driver.tenant.name}.equals_inprocess_replay"] = _same_output(
            result, outcome["original"]
        )
    if not trace:
        return record

    def mean(values):
        values = [value for value in values if value is not None]
        return sum(values) / len(values) if values else None

    # Layer numbers of one run stay as measured: they are read against
    # each other, seconds apart, not against another run's.
    engine_p50 = statistics.median(engine_ms)
    ingest_p50 = record["ingest_p50_ms"] / speed
    transport = ingest_p50 - engine_p50
    layers = {
        "service.rtt_ping_us": run["ping_us"],
        "service.codec_encode_us": mean(m["service.codec_encode_us"] for m in codec),
        "service.codec_decode_us": mean(m["service.codec_decode_us"] for m in codec),
        "service.engine_p50_ms": engine_p50,
        "service.inproc_replay_s": inproc_s,
        "service.transport_p50_ms": transport,
        "service.overhead_pct": 100.0 * transport / ingest_p50,
        "service.matches_p50_ms": statistics.median(
            sample for driver in drivers for sample in driver.matches_ms
        ),
        "service.first_match_ms": mean(driver.first_match_ms for driver in drivers),
        "service.shed": sum(driver.shed for driver in drivers),
    }
    for key in ("drain_final_ms", "results_ms", "snapshot_ms", "snapshot_bytes", "restore_ms"):
        layers[f"service.{key}"] = mean(driver.timings[key] for driver in drivers)
    for driver in drivers:
        name = driver.tenant.name
        layers[f"service.{name}.ingest_p50_ms"] = statistics.median(driver.ingest_ms)
        layers[f"service.{name}.recall_final"] = run["recalls"][name]

    # Layer attribution of the engine work behind the socket: the same op
    # logs once more, through tenant sessions whose layers record spans.
    tracers = [driver.tracer for driver in drivers]
    results, sessions = [], []
    for driver, op_log in zip(drivers, op_logs):
        tracer = Tracer(f"{workload.name}/replay-{driver.tenant.name}")
        result, _, _, session = replay.replay_tenant(driver.tenant, kind, op_log, tracer)
        tracers.append(tracer)
        results.append(result)
        sessions.append(session)
    replay_records = [r for tracer in tracers[len(drivers):] for r in tracer.records()]
    layers.update(
        span_layers(
            summarize(replay_records),
            set().union(*(tracer.missing for tracer in tracers[len(drivers):])),
            sum_counters(results),
            kernel_funnel(session.matchers[-1] for session in sessions),
            [c for session in sessions for c in session.checkpoints],
        )
    )
    layers["parallel.create_s"] = 0.0
    # The timed socket run carries only the clients' per-op spans.
    record["traced_wall_s"] = record["wall_s"]
    layers.update(_front_end_layers([p for chunk in drivers[0].chunks for p in chunk], dataset))
    write_spans(spec.RESULTS_DIR / f"trace_{workload.name}.jsonl", tracers)
    record["layers"] = layers
    return record
