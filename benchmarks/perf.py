"""Performance benchmark target: ``python -m benchmarks.perf``.

Measures the two wall-clock optimizations that ride on the unified
execution core and gates against regressions:

* **batched matching** — ``matcher.evaluate_batch`` versus the scalar
  pair-at-a-time loop on identical pair samples.  The batched kernel must
  stay at least ``MIN_JS_SPEEDUP``× faster for JS (the cheap matcher, where
  per-pair Python dispatch dominates) and must remain bit-identical (the
  benchmark re-verifies similarity/cost equality on every run);
* **slots** — per-instance memory of the slotted
  :class:`~repro.priority.bounded_pq.BoundedPriorityQueue` versus a
  ``__dict__``-backed replica, plus enqueue/dequeue throughput.  The
  queue backs the I-PCS and I-PBS indexes and I-PES's overflow ``PQ``
  (I-PES's per-entity queues are plain ``heapq`` lists and no longer
  allocate one);
* **single-sweep weighting** — profiles/second through candidate
  generation + I-WNP (``ComparisonGenerator.generate``) on the sweep
  kernel versus the legacy per-pair ``scheme.weight()`` path, for all four
  weighting schemes.  The sweep must stay at least
  ``MIN_CBS_SWEEP_SPEEDUP``× faster for CBS (the paper's default scheme)
  and both paths must emit bit-identical comparison streams (re-verified
  on every run).

* **ED kernel** — the pre-PR expensive-matcher hot path (pair-at-a-time
  ``evaluate`` on the banded-DP kernel) versus the current default
  (staged ``evaluate_batch`` on the Myers bit-parallel kernel) on the same
  pair sample.  The new path must stay at least ``MIN_ED_SPEEDUP``× faster
  and pair-level bit-identical (same similarities *and* costs); on top of
  that, one end-to-end engine run per kernel re-verifies that kernel
  choice never changes the observable outcome — curve, duplicates,
  telemetry-stripped metrics, and the checkpoint fingerprint;

* **parallel matching** — one full resolution through
  :class:`repro.api.ERSession` at ``workers=4`` versus ``workers=1``.
  The sharded run must stay bit-identical to serial — curve, duplicates,
  comparison count, virtual clock, telemetry-stripped metrics, and the
  checkpoint fingerprint are all re-verified on every run — and must reach
  ``MIN_PARALLEL_SPEEDUP``× on hosts with at least
  ``PARALLEL_GATE_MIN_CORES`` cores (the wall-clock gate is recorded but
  not enforced on smaller hosts, where a process pool cannot win).  The
  sharded run must also actually use the shared-memory profile transport:
  ``parallel.shm_segments``/``parallel.shm_bytes`` are recorded and the
  benchmark fails if rounds were sharded with zero segments published.

* **blocking substrate** — one full progressive run per substrate
  (token / lsh / lsh-prefilter) through :class:`repro.api.ERSession`.
  Both LSH substrates must cut the executed candidate volume by at least
  ``MIN_LSH_CANDIDATE_CUT``× versus token blocking while losing at most
  ``MAX_LSH_PC_LOSS`` pair completeness at the final budget, the
  ``blocking.lsh.*`` telemetry must show real work (signatures, buckets,
  and — for the prefilter — pruned candidates), and a repeated LSH run
  must be bit-identical down to the checkpoint fingerprint (the
  determinism that crash-resume restores rely on).

Unlike the smoke/chaos baselines, every recorded value here is wall-clock
(host-dependent), so the checked-in ``BENCH_perf.json`` is refreshed only
with ``--update``; a plain run gates on the *structure* of the payload
(schema drift) and on the speedup/memory thresholds, never on absolute
timings.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Sequence

from repro.api import EngineOptions, ERSession
from repro.blocking.blocks import BlockCollection
from repro.core.dataset import ERKind
from repro.datasets.registry import load_dataset
from repro.evaluation.experiments import _build_matcher
from repro.metablocking.weights import make_scheme
from repro.parallel import strip_parallel_telemetry
from repro.pier.base import ComparisonGenerator
from repro.priority.bounded_pq import BoundedPriorityQueue

from benchmarks.smoke import diff_schema

BENCH_SCHEMA_VERSION = 3
DEFAULT_BASELINE = Path(__file__).parent / "BENCH_perf.json"

CONFIG = {
    "dataset": "dblp_acm",
    "scale": 0.5,
    "n_pairs": 4000,
    "sample_seed": 17,
    "matchers": ["JS", "ED"],
    "repeats": 5,
    "queue_instances": 20000,
    "queue_ops": 50000,
    "prioritization_profiles": 400,
    "prioritization_max_block_size": 200,
    "schemes": ["CBS", "ECBS", "JS", "ARCS"],
    "beta": 0.2,
    "parallel": {
        "dataset": "dblp_acm",
        "scale": 0.2,
        "system": "BATCH",
        "matcher": "ED",
        "n_increments": 10,
        "budget": 60.0,
        "checkpoint_every": 5.0,
        "workers": 4,
        "repeats": 3,
    },
    "blocking": {
        "dataset": "dblp_acm",
        "scale": 0.3,
        "system": "I-PCS",
        "matcher": "JS",
        "n_increments": 10,
        "rate": 5.0,
        "budget": 60.0,
        # The cheap JS matcher exhausts these streams after ~2 virtual
        # seconds, so checkpoints must tick faster than that for the
        # fingerprint identity check to see real mid-run state.
        "checkpoint_every": 0.5,
        "lsh_bands": 16,
        "lsh_rows": 2,
        "lsh_seed": 0,
    },
}

#: The batched JS kernel must amortize at least this much per-pair dispatch.
MIN_JS_SPEEDUP = 2.0

#: The single-sweep weighting kernel must beat the per-pair path by at
#: least this much on CBS (the paper's default scheme).  The per-pair path
#: is one C-level set intersection per pair (``common_blocks``), which
#: leaves the sweep ~2.1x ahead on the reference container.
MIN_CBS_SWEEP_SPEEDUP = 1.5

#: The current ED hot path (staged batch + Myers bit-parallel kernel) must
#: beat the pre-PR path (scalar loop + banded DP) by at least this much.
MIN_ED_SPEEDUP = 3.0

#: The sharded matcher fleet must beat the serial run by at least this
#: much — enforced only on hosts with enough cores to make it possible.
MIN_PARALLEL_SPEEDUP = 2.0
PARALLEL_GATE_MIN_CORES = 4

#: Each LSH substrate must execute at most 1/this of token blocking's
#: candidate comparisons at the same budget...
MIN_LSH_CANDIDATE_CUT = 2.0

#: ...while giving up no more than this much pair completeness (absolute,
#: at the final budget) versus token blocking.
MAX_LSH_PC_LOSS = 0.02


class _DictBackedQueue:
    """Layout replica of ``BoundedPriorityQueue`` without ``__slots__``.

    Used purely to measure the per-instance memory the slots declaration
    saves; it takes its attributes and their initial values from a real
    queue, so it cannot fall behind the queue's layout.
    """

    def __init__(self, capacity: int | None = None) -> None:
        queue = BoundedPriorityQueue(capacity)
        for name in BoundedPriorityQueue.__slots__:
            setattr(self, name, getattr(queue, name))


def _sample_pairs(dataset, n: int, seed: int):
    rng = random.Random(seed)
    profiles = dataset.profiles
    return [
        (profiles[rng.randrange(len(profiles))], profiles[rng.randrange(len(profiles))])
        for _ in range(n)
    ]


def _best_of(repeats: int, fn) -> float:
    """Minimum wall time over ``repeats`` runs (noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_matcher(name: str, pairs, repeats: int) -> dict:
    # Warm any internal caches (the ED text cache) outside the timed region
    # so both paths see identical cache state.
    scalar_matcher = _build_matcher(name)
    batched_matcher = _build_matcher(name)
    scalar_results = [scalar_matcher.evaluate(x, y) for x, y in pairs]
    batched_results = batched_matcher.evaluate_batch(pairs)
    mismatches = sum(
        1
        for scalar, batched in zip(scalar_results, batched_results)
        if scalar != batched
    )
    if mismatches:
        raise AssertionError(
            f"{name}: batched kernel diverged from scalar on {mismatches} pairs"
        )

    scalar_s = _best_of(repeats, lambda: [scalar_matcher.evaluate(x, y) for x, y in pairs])
    batched_s = _best_of(repeats, lambda: batched_matcher.evaluate_batch(pairs))
    return {
        "pairs": len(pairs),
        "scalar_wall_s": round(scalar_s, 6),
        "batched_wall_s": round(batched_s, 6),
        "speedup": round(scalar_s / batched_s, 3),
        "bit_identical": True,
    }


def _bench_ed_kernel(pairs, repeats: int) -> dict:
    """Pre-PR ED hot path (scalar loop + banded DP) vs the current default
    (staged ``evaluate_batch`` + Myers bit-parallel kernel)."""
    legacy_matcher = _build_matcher("ED", ed_kernel="banded")
    fast_matcher = _build_matcher("ED")
    legacy_results = [legacy_matcher.evaluate(x, y) for x, y in pairs]
    fast_results = fast_matcher.evaluate_batch(pairs)
    # One pass worth of staged-scoring outcomes (deterministic for the
    # sampled pairs, unlike the timed repeats below which accumulate).
    kernel_counts = dict(fast_matcher.kernel_counts)
    mismatches = sum(
        1 for legacy, fast in zip(legacy_results, fast_results) if legacy != fast
    )
    if mismatches:
        raise AssertionError(
            f"ED: Myers batched path diverged from banded scalar on "
            f"{mismatches} pairs"
        )

    legacy_s = _best_of(
        repeats, lambda: [legacy_matcher.evaluate(x, y) for x, y in pairs]
    )
    fast_s = _best_of(repeats, lambda: fast_matcher.evaluate_batch(pairs))
    return {
        "pairs": len(pairs),
        "legacy_scalar_banded_wall_s": round(legacy_s, 6),
        "batched_myers_wall_s": round(fast_s, 6),
        "speedup": round(legacy_s / fast_s, 3),
        "kernel_counts": kernel_counts,
        "bit_identical": True,
    }


def _instance_bytes(factory, n: int) -> float:
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    instances = [factory() for _ in range(n)]
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    total = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    del instances
    return total / n


def _queue_throughput(ops: int, repeats: int) -> float:
    keys = [random.Random(5).random() for _ in range(ops)]

    def run() -> None:
        queue: BoundedPriorityQueue[int] = BoundedPriorityQueue(capacity=1024)
        for index, key in enumerate(keys):
            queue.enqueue(index, key)
        while queue:
            queue.dequeue()

    return ops / _best_of(repeats, run)


def _bench_slots() -> dict:
    slotted = _instance_bytes(BoundedPriorityQueue, CONFIG["queue_instances"])
    dict_backed = _instance_bytes(_DictBackedQueue, CONFIG["queue_instances"])
    return {
        "instances_sampled": CONFIG["queue_instances"],
        "bytes_per_instance_slots": round(slotted, 1),
        "bytes_per_instance_dict": round(dict_backed, 1),
        "bytes_saved_per_instance": round(dict_backed - slotted, 1),
        "enqueue_dequeue_ops_per_s": round(
            _queue_throughput(CONFIG["queue_ops"], CONFIG["repeats"]), 0
        ),
    }


def _bench_prioritization(dataset, repeats: int) -> dict:
    """Profiles/second through generate + I-WNP, sweep vs per-pair."""
    collection = BlockCollection(
        clean_clean=dataset.kind is ERKind.CLEAN_CLEAN,
        max_block_size=CONFIG["prioritization_max_block_size"],
    )
    for profile in dataset.profiles:
        collection.add_profile(profile)
    sample = dataset.profiles[-CONFIG["prioritization_profiles"]:]
    sources = {profile.pid: profile.source for profile in dataset.profiles}
    jobs = []
    for profile in sample:
        # Mirror the engine's predicates, including their self-describing
        # markers (PierSystem.valid_partner), so the benchmark measures the
        # pipeline exactly as the strategies drive it.
        if collection.clean_clean:
            valid = lambda pid, s=profile.source: sources[pid] != s
            valid.cross_source_only = True
        else:
            valid = lambda pid: True
            valid.always_true = True
        jobs.append((profile, valid))

    per_scheme = {}
    for scheme_name in CONFIG["schemes"]:
        scheme = make_scheme(scheme_name)
        sweep_gen = ComparisonGenerator(beta=CONFIG["beta"], scheme=scheme)
        pair_gen = ComparisonGenerator(beta=CONFIG["beta"], scheme=scheme, per_pair=True)

        def run_sweep():
            return [sweep_gen.generate(collection, p, v) for p, v in jobs]

        def run_per_pair():
            return [pair_gen.generate(collection, p, v) for p, v in jobs]

        mismatches = sum(1 for a, b in zip(run_sweep(), run_per_pair()) if a != b)
        if mismatches:
            raise AssertionError(
                f"{scheme_name}: sweep kernel diverged from per-pair weighting "
                f"on {mismatches}/{len(jobs)} profiles"
            )
        sweep_s = _best_of(repeats, run_sweep)
        pair_s = _best_of(repeats, run_per_pair)
        per_scheme[scheme_name] = {
            "profiles": len(jobs),
            "per_pair_wall_s": round(pair_s, 6),
            "sweep_wall_s": round(sweep_s, 6),
            "per_pair_profiles_per_s": round(len(jobs) / pair_s, 1),
            "sweep_profiles_per_s": round(len(jobs) / sweep_s, 1),
            "speedup": round(pair_s / sweep_s, 3),
            "bit_identical": True,
        }
    return per_scheme


def _stable_metrics(snapshot: dict) -> dict:
    """Metrics with everything host-dependent removed: wall-clock phase
    timings and the parallel telemetry (worker gauge, shard counters)."""
    snapshot = strip_parallel_telemetry(snapshot)
    snapshot["phases"] = {
        phase: {key: value for key, value in totals.items() if key != "wall_s"}
        for phase, totals in snapshot["phases"].items()
    }
    return snapshot


def _checkpoint_fingerprint(checkpoint) -> tuple:
    """The deterministic portion of a checkpoint (wall timings removed).

    Mid-run telemetry never reaches the metrics registry (parallel counters
    accumulate on run state and flush at finalize), so checkpoint metrics
    need no parallel stripping — only the host wall clocks go.
    """
    metrics_state = dict(checkpoint.metrics_state)
    metrics_state["phases"] = {
        phase: (virtual_s, count)
        for phase, (virtual_s, _wall_s, count) in metrics_state["phases"].items()
    }
    return (
        checkpoint.engine,
        checkpoint.budget,
        checkpoint.plan_fingerprint,
        checkpoint.clock,
        checkpoint.ingest_clock,
        checkpoint.next_arrival,
        checkpoint.consumed_at,
        checkpoint.rounds,
        checkpoint.ingested,
        checkpoint.shed,
        checkpoint.duplicates_dropped,
        checkpoint.seen_increments,
        checkpoint.duplicates,
        checkpoint.quarantined,
        checkpoint.recorder_state,
        checkpoint.estimator_state,
        metrics_state,
    )


def _parallel_session(
    knobs: dict, workers: int, ed_kernel: str = "auto"
) -> ERSession:
    return ERSession(
        knobs["dataset"],
        systems=(knobs["system"],),
        matcher=knobs["matcher"],
        engine=EngineOptions(workers=workers, ed_kernel=ed_kernel),
        scale=knobs["scale"],
        n_increments=knobs["n_increments"],
        rate=None,
        budget=knobs["budget"],
        checkpoint_every=knobs["checkpoint_every"],
    )


def _run_observable(session: ERSession) -> tuple[dict, tuple, dict]:
    """One ERSession run reduced to (observable, fingerprint, counters)."""
    result = session.run()
    observable = {
        "curve": result.curve.points,
        "duplicates": sorted(result.duplicates),
        "comparisons_executed": result.comparisons_executed,
        "clock_end": result.clock_end,
        "metrics": _stable_metrics(result.details["metrics"]),
    }
    fingerprint = _checkpoint_fingerprint(session.last_checkpoint)
    return observable, fingerprint, result.details["metrics"]["counters"]


def _bench_parallel() -> dict:
    """End-to-end ERSession run, sharded fleet versus serial."""
    knobs = CONFIG["parallel"]
    observable = {}
    fingerprints = {}
    walls = {}
    counters = {}
    for workers in (1, knobs["workers"]):
        # One session per worker count: the pool spawns once (outside the
        # timed region, like any warmup) and is reused across repeats.
        with _parallel_session(knobs, workers) as session:
            observable[workers], fingerprints[workers], counters[workers] = (
                _run_observable(session)
            )
            walls[workers] = _best_of(knobs["repeats"], session.run)

    if observable[1] != observable[knobs["workers"]]:
        raise AssertionError(
            "parallel: sharded run diverged from serial "
            "(curve/duplicates/comparisons/clock/metrics)"
        )
    if fingerprints[1] != fingerprints[knobs["workers"]]:
        raise AssertionError(
            "parallel: checkpoint fingerprint diverged between worker counts"
        )

    # Kernel choice must be unobservable end-to-end: re-run the serial cell
    # on the pre-PR banded kernel and demand the identical outcome.
    with _parallel_session(knobs, 1, ed_kernel="banded") as session:
        banded_observable, banded_fingerprint, _ = _run_observable(session)
    if banded_observable != observable[1] or banded_fingerprint != fingerprints[1]:
        raise AssertionError(
            "ED kernels: banded engine run diverged from the Myers default "
            "(curve/duplicates/metrics/checkpoint fingerprint)"
        )

    sharded = counters[knobs["workers"]]
    cores = os.cpu_count() or 1
    speedup = walls[1] / walls[knobs["workers"]]
    return {
        "workers": knobs["workers"],
        "cores_detected": cores,
        "gate_enforced": cores >= PARALLEL_GATE_MIN_CORES,
        "comparisons": observable[1]["comparisons_executed"],
        "rounds_sharded": int(sharded.get("parallel.rounds_sharded", 0)),
        "pairs_sharded": int(sharded.get("parallel.pairs_sharded", 0)),
        "pool_fallbacks": int(sharded.get("parallel.fallbacks", 0)),
        "shm_segments": int(sharded.get("parallel.shm_segments", 0)),
        "shm_bytes": int(sharded.get("parallel.shm_bytes", 0)),
        "serial_wall_s": round(walls[1], 6),
        "parallel_wall_s": round(walls[knobs["workers"]], 6),
        "speedup": round(speedup, 3),
        "bit_identical": True,
        "cross_kernel_identical": True,
    }


def _blocking_session(knobs: dict, substrate: str) -> ERSession:
    return ERSession(
        knobs["dataset"],
        systems=(knobs["system"],),
        matcher=knobs["matcher"],
        engine=EngineOptions(
            blocking=substrate,
            lsh_bands=knobs["lsh_bands"],
            lsh_rows=knobs["lsh_rows"],
            lsh_seed=knobs["lsh_seed"],
        ),
        scale=knobs["scale"],
        n_increments=knobs["n_increments"],
        rate=knobs["rate"],
        budget=knobs["budget"],
        checkpoint_every=knobs["checkpoint_every"],
    )


def _bench_blocking() -> dict:
    """One progressive run per substrate: candidate volume vs recall.

    Unlike every other section, the LSH substrates deliberately change
    *what* is computed, so the gate is a quality trade: the candidate cut
    must be worth it (``MIN_LSH_CANDIDATE_CUT``) and the recall cost must
    be negligible (``MAX_LSH_PC_LOSS``).  Determinism is re-verified by
    re-running the ``lsh`` cell and demanding a bit-identical observable
    and checkpoint fingerprint — the property checkpoint restores build on.
    """
    knobs = CONFIG["blocking"]
    truth = load_dataset(knobs["dataset"], scale=knobs["scale"]).ground_truth
    per_substrate = {}
    observables = {}
    fingerprints = {}
    for substrate in ("token", "lsh", "lsh-prefilter"):
        with _blocking_session(knobs, substrate) as session:
            start = time.perf_counter()
            observable, fingerprint, counters = _run_observable(session)
            wall_s = time.perf_counter() - start
        observables[substrate] = observable
        fingerprints[substrate] = fingerprint
        per_substrate[substrate] = {
            "comparisons": observable["comparisons_executed"],
            "pair_completeness": round(
                truth.pair_completeness(observable["duplicates"]), 6
            ),
            "weighting_ops": int(counters.get("strategy.weighting_ops", 0)),
            "lsh_signatures": int(counters.get("blocking.lsh.signatures", 0)),
            "lsh_buckets": int(counters.get("blocking.lsh.buckets", 0)),
            "lsh_candidates_pruned": int(
                counters.get("blocking.lsh.candidates_pruned", 0)
            ),
            "wall_s": round(wall_s, 6),
        }

    with _blocking_session(knobs, "lsh") as session:
        repeat_observable, repeat_fingerprint, _ = _run_observable(session)
    deterministic = (
        repeat_observable == observables["lsh"]
        and repeat_fingerprint == fingerprints["lsh"]
    )
    if not deterministic:
        raise AssertionError(
            "blocking: repeated lsh run diverged from the first "
            "(curve/duplicates/metrics/checkpoint fingerprint)"
        )

    token = per_substrate["token"]
    for substrate in ("lsh", "lsh-prefilter"):
        entry = per_substrate[substrate]
        entry["candidate_cut"] = round(
            token["comparisons"] / max(entry["comparisons"], 1), 3
        )
        entry["pc_loss"] = round(
            token["pair_completeness"] - entry["pair_completeness"], 6
        )
    return {
        "truth_pairs": len(truth),
        "substrates": per_substrate,
        "lsh_deterministic": True,
    }


def build_snapshot() -> dict:
    dataset = load_dataset(CONFIG["dataset"], scale=CONFIG["scale"])
    pairs = _sample_pairs(dataset, CONFIG["n_pairs"], CONFIG["sample_seed"])
    return {
        "bench_schema_version": BENCH_SCHEMA_VERSION,
        "config": CONFIG,
        "batched_matching": {
            name: _bench_matcher(name, pairs, CONFIG["repeats"])
            for name in CONFIG["matchers"]
        },
        "ed_kernel": _bench_ed_kernel(pairs, CONFIG["repeats"]),
        "slots": _bench_slots(),
        "prioritization": _bench_prioritization(dataset, CONFIG["repeats"]),
        "parallel": _bench_parallel(),
        "blocking": _bench_blocking(),
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.perf",
        description="measure batched-kernel speedup and slots memory savings",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_BASELINE,
        help="baseline path (default: benchmarks/BENCH_perf.json)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline with this host's measurements",
    )
    args = parser.parse_args(argv)

    payload = build_snapshot()
    for name, entry in payload["batched_matching"].items():
        print(
            f"{name}: scalar={entry['scalar_wall_s']:.4f}s "
            f"batched={entry['batched_wall_s']:.4f}s "
            f"speedup={entry['speedup']:.2f}x"
        )
    ed = payload["ed_kernel"]
    staged = ", ".join(
        f"{stage}={count}" for stage, count in sorted(ed["kernel_counts"].items())
    )
    print(
        f"ed-kernel: legacy={ed['legacy_scalar_banded_wall_s']:.4f}s "
        f"myers-batched={ed['batched_myers_wall_s']:.4f}s "
        f"speedup={ed['speedup']:.2f}x ({staged})"
    )
    slots = payload["slots"]
    print(
        f"slots: {slots['bytes_per_instance_slots']:.0f} B/queue vs "
        f"{slots['bytes_per_instance_dict']:.0f} B dict-backed "
        f"(saves {slots['bytes_saved_per_instance']:.0f} B), "
        f"{slots['enqueue_dequeue_ops_per_s']:.0f} queue ops/s"
    )

    for scheme_name, entry in payload["prioritization"].items():
        print(
            f"weighting[{scheme_name}]: per-pair={entry['per_pair_profiles_per_s']:.0f} "
            f"profiles/s sweep={entry['sweep_profiles_per_s']:.0f} profiles/s "
            f"speedup={entry['speedup']:.2f}x"
        )

    parallel = payload["parallel"]
    gate_note = "enforced" if parallel["gate_enforced"] else (
        f"not enforced, {parallel['cores_detected']} core(s)"
    )
    print(
        f"parallel: serial={parallel['serial_wall_s']:.4f}s "
        f"workers={parallel['workers']} -> {parallel['parallel_wall_s']:.4f}s "
        f"speedup={parallel['speedup']:.2f}x "
        f"({parallel['pairs_sharded']} pairs sharded, "
        f"{parallel['shm_segments']} shm segments / "
        f"{parallel['shm_bytes']} B, gate {gate_note})"
    )

    blocking = payload["blocking"]
    for substrate, entry in blocking["substrates"].items():
        extra = ""
        if substrate != "token":
            extra = (
                f" cut={entry['candidate_cut']:.1f}x "
                f"pc_loss={entry['pc_loss']:+.4f}"
            )
        print(
            f"blocking[{substrate}]: comparisons={entry['comparisons']} "
            f"pc={entry['pair_completeness']:.4f} "
            f"weighting_ops={entry['weighting_ops']}{extra}"
        )

    failures = []
    js_speedup = payload["batched_matching"]["JS"]["speedup"]
    if js_speedup < MIN_JS_SPEEDUP:
        failures.append(
            f"JS batched speedup {js_speedup:.2f}x below the {MIN_JS_SPEEDUP}x gate"
        )
    if ed["speedup"] < MIN_ED_SPEEDUP:
        failures.append(
            f"ED Myers batched speedup {ed['speedup']:.2f}x over the pre-PR "
            f"scalar banded path is below the {MIN_ED_SPEEDUP}x gate"
        )
    if not ed["bit_identical"]:
        failures.append("ED: Myers batched path diverged from banded scalar")
    if slots["bytes_saved_per_instance"] <= 0:
        failures.append("slotted queue is not smaller than the dict-backed replica")
    cbs_sweep = payload["prioritization"]["CBS"]["speedup"]
    if cbs_sweep < MIN_CBS_SWEEP_SPEEDUP:
        failures.append(
            f"CBS sweep speedup {cbs_sweep:.2f}x below the "
            f"{MIN_CBS_SWEEP_SPEEDUP}x gate"
        )
    for scheme_name, entry in payload["prioritization"].items():
        if not entry["bit_identical"]:
            failures.append(f"{scheme_name}: sweep stream diverged from per-pair")
    if not parallel["bit_identical"]:
        failures.append("parallel: sharded run diverged from serial")
    if parallel["rounds_sharded"] == 0:
        failures.append("parallel: worker pool never sharded a round")
    if parallel["rounds_sharded"] > 0 and parallel["shm_segments"] == 0:
        failures.append(
            "parallel: rounds were sharded but no shared-memory segments "
            "were published (shm transport inactive)"
        )
    if parallel["gate_enforced"] and parallel["speedup"] < MIN_PARALLEL_SPEEDUP:
        failures.append(
            f"parallel speedup {parallel['speedup']:.2f}x below the "
            f"{MIN_PARALLEL_SPEEDUP}x gate on a {parallel['cores_detected']}-core host"
        )
    if not blocking["lsh_deterministic"]:
        failures.append("blocking: repeated lsh run was not bit-identical")
    for substrate in ("lsh", "lsh-prefilter"):
        entry = blocking["substrates"][substrate]
        if entry["candidate_cut"] < MIN_LSH_CANDIDATE_CUT:
            failures.append(
                f"blocking[{substrate}]: candidate cut "
                f"{entry['candidate_cut']:.2f}x below the "
                f"{MIN_LSH_CANDIDATE_CUT}x gate"
            )
        if entry["pc_loss"] > MAX_LSH_PC_LOSS:
            failures.append(
                f"blocking[{substrate}]: pair-completeness loss "
                f"{entry['pc_loss']:.4f} above the {MAX_LSH_PC_LOSS} gate"
            )
        if entry["lsh_signatures"] == 0 or entry["lsh_buckets"] == 0:
            failures.append(
                f"blocking[{substrate}]: blocking.lsh.* telemetry shows no "
                f"work (signatures={entry['lsh_signatures']}, "
                f"buckets={entry['lsh_buckets']})"
            )
    if blocking["substrates"]["lsh-prefilter"]["lsh_candidates_pruned"] == 0:
        failures.append(
            "blocking[lsh-prefilter]: the co-bucket filter never pruned a "
            "candidate (blocking.lsh.candidates_pruned == 0)"
        )

    if args.out.exists() and not args.update:
        baseline = json.loads(args.out.read_text())
        removed, added = diff_schema(baseline, payload)
        if removed or added:
            print("\nperf-schema drift detected against", args.out)
            for path in sorted(removed):
                print(f"  - removed: {path}")
            for path in sorted(added):
                print(f"  + added:   {path}")
            failures.append("schema drift (re-run with --update to accept)")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1

    if args.update or not args.out.exists():
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {args.out}")
    else:
        print("\nperf gates passed (baseline untouched; use --update to refresh)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
