"""Layer metrics from a traced run's spans and the run's own counters.

Times are *self* times, so the layers sum to the root span and
``execution.self_s`` — the engine loop plus whatever no span covers — is a
number of its own.  A span name listed in ``missing`` (its entry point is
gone from the program) yields ``None`` for its metrics; its time then sits
in ``execution.self_s``.
"""

from __future__ import annotations

import pickle

KERNEL_STAGES = ("short_texts", "prefilter_rejects", "length_cuts", "dp_calls")
_ZERO = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "n": 0, "empty": 0}


def span_layers(
    summary: dict[str, dict[str, float]],
    missing: set[str],
    counters: dict[str, float],
    kernel: dict[str, int] | None,
    checkpoints: list,
) -> dict[str, float | None]:
    """The ``pier`` / ``matching`` / ``parallel`` / ``execution`` metrics.

    ``summary`` is :func:`~benchmarks.ledger.tracing.summarize` of the run's
    spans.
    """

    def field(name: str, key: str):
        return None if name in missing else summary.get(name, _ZERO)[key]

    def ratio(numerator, denominator, scale=1.0):
        if numerator is None or denominator is None:
            return None
        return scale * numerator / denominator if denominator else 0.0

    root_s = traced_wall_s(summary)
    evaluate_s = field("matching.evaluate", "self_s")
    scatter_s = field("parallel.scatter", "self_s")
    pairs = field("matching.evaluate", "n")
    batches = field("matching.evaluate", "calls")
    sharded = counters["parallel.rounds_sharded"]
    scoring_s = None if evaluate_s is None or scatter_s is None else evaluate_s + scatter_s
    self_s = summary["run"]["self_s"] + summary.get("execution.drain", _ZERO)["self_s"]
    checkpoint_s = field("execution.checkpoint", "total_s")
    metrics = {
        "pier.ingest_s": field("pier.ingest", "self_s"),
        "pier.emit_s": field("pier.emit", "self_s"),
        "pier.idle_s": field("pier.idle", "self_s"),
        "pier.ingest_calls": field("pier.ingest", "calls"),
        "pier.emit_calls": field("pier.emit", "calls"),
        "pier.idle_calls": field("pier.idle", "calls"),
        "pier.emitted_pairs": field("pier.emit", "n"),
        "pier.empty_emit_pct": ratio(
            field("pier.emit", "empty"), field("pier.emit", "calls"), 100.0
        ),
        "matching.evaluate_s": evaluate_s,
        "matching.estimate_s": field("matching.estimate", "self_s"),
        "matching.pairs": pairs,
        "matching.batches": batches,
        "matching.pairs_per_s": ratio(pairs, scoring_s),
        "matching.match_pct": ratio(
            counters.get("matcher.matches", 0), counters.get("matcher.evaluations", 0), 100.0
        ),
        "parallel.scatter_s": scatter_s,
        "parallel.rounds_sharded": sharded,
        "parallel.rounds_inproc": None if batches is None else batches - sharded,
        "parallel.pairs_sharded": counters["parallel.pairs_sharded"],
        "parallel.shm_bytes": counters["parallel.shm_bytes"],
        "parallel.fallbacks": counters["parallel.fallbacks"],
        "parallel.evictions": counters["parallel.supervision.evictions"],
        "execution.feed_s": field("execution.feed", "self_s"),
        "execution.results_s": field("execution.results", "self_s"),
        "execution.rounds": counters["engine.emission_rounds"],
        "execution.cut_by_deadline": counters["engine.comparisons_cut_by_deadline"],
        "execution.quarantined": counters["engine.quarantined_pairs"],
        "execution.shed_increments": counters["engine.shed_increments"],
        "execution.checkpoint_ms": None if checkpoint_s is None else checkpoint_s * 1e3,
        "execution.checkpoint_bytes": (
            None if checkpoint_s is None
            else sum(len(pickle.dumps(c, pickle.HIGHEST_PROTOCOL)) for c in checkpoints)
        ),
        "execution.self_s": self_s,
        "execution.self_pct": 100.0 * self_s / root_s if root_s else 0.0,
    }
    for stage in KERNEL_STAGES:
        metrics[f"matching.kernel.{stage}"] = None if kernel is None else kernel.get(stage, 0)
    return metrics


def kernel_funnel(matchers) -> dict[str, int] | None:
    """The matchers' ``kernel_telemetry()`` added up (``None`` if it is gone)."""
    total: dict[str, int] = {}
    for matcher in matchers:
        telemetry = getattr(matcher, "kernel_telemetry", None)
        if telemetry is None:
            return None
        for stage, count in telemetry().items():
            total[stage] = total.get(stage, 0) + count
    return total


def traced_wall_s(summary: dict[str, dict[str, float]]) -> float:
    """Root wall of a traced run without the checkpoint the tracer added."""
    return summary["run"]["total_s"] - summary.get("execution.checkpoint", _ZERO)["total_s"]


def sum_counters(results) -> dict[str, float]:
    """The runs' exported counters, added up (one run per tenant on the service)."""
    total: dict[str, float] = {}
    for result in results:
        for name, value in result.details["metrics"]["counters"].items():
            total[name] = total.get(name, 0) + value
    return total
