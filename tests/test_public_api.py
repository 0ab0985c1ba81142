"""Tests for the top-level public API."""

from __future__ import annotations

import dataclasses
import inspect
from pathlib import Path

import pytest

import repro
from repro import load_dataset, metablocking, resolve_stream
from repro.api import EngineOptions, ERSession
from repro.blocking.blocks import Block, BlockCollection
from repro.core import comparison
from repro.core.comparison import WeightedComparison
from repro.evaluation.recorder import ProgressRecorder
from repro.execution.core import ExecutionCore
from repro.execution.push import PushPlan
from repro.execution.store import ComparisonStore
from repro.incremental.ibase import IBaseSystem
from repro.metablocking.block_graph import BlockGraph
from repro.pier.base import GetComparisons, IncrPrioritization, PierSystem
from repro.pier.ipbs import IPBS
from repro.pier.ipcs import IPCS
from repro.pier.ipes import IPES
from repro.matching.matcher import Matcher
from repro.metablocking import sweep, wnp
from repro.metablocking.wnp import WNPResult
from repro.priority.bounded_pq import BoundedPriorityQueue
from repro.progressive.base import BatchProgressiveSystem
from repro.progressive.pbs import PBSSystem
from repro.progressive.pps import PPSSystem
from repro.resilience import EngineCheckpoint, ResilienceConfig
from repro.service import TenantSession
from repro.streaming.system import EmitResult, ERSystem

#: Options and shims retired for one production path per behaviour (their
#: oracles live in ``tests/reference/``).  Spelled split so this file does
#: not match itself.
RETIRED_NAMES = (
    "per_pair_" + "weighting", "--per-pair-" + "weighting",
    "scalar_" + "matching", "--scalar-" + "matching", "batch_" + "matching",
    "ed_" + "kernel", "--ed-" + "kernel", "ED_" + "KERNELS",
    "make_" + "matcher", "make_" + "system", "run_" + "experiment",
    # I-PBS's Bloom-filter dedup, replaced by exact membership.
    "comparison_" + "filter", "filter_initial_" + "capacity", "bind_" + "store",
    "bloom_" + "filtered", "bloom_" + "slices", "Exact" + "ComparisonFilter",
    # The worker fleet's supervision layer, fault hooks and shm transport.
    "Supervision" + "Config", "WorkerFault" + "Spec", "sweep_stale_" + "segments",
    "REPRO_REPLY_" + "TIMEOUT_S", "REPRO_HANDSHAKE_" + "TIMEOUT_S", "shared_" + "memory",
    "--worker-" + "faults", "--reply-" + "timeout", "--handshake-" + "timeout",
    "--max-" + "respawns", "reply_" + "timeout_s", "handshake_" + "timeout_s",
    "max_" + "respawns", "min_" + "shard=",
    # The LSH pre-filter substrate and the per-pair veto hook it needed.
    "lsh-" + "prefilter", "LSHPrefilter" + "Collection", "prunes_" + "candidates",
    "allows_" + "pair", "candidates_" + "pruned",
    # Modules nothing reached, an escape hatch nothing set, an unread alias.
    "ja" + "ro", "overlap_" + "coefficient", "Entity" + "Clusters",
    "parallel_" + "cells", "_PRESEEDED_" + "COUNTERS",
    # Guesses at "is there work?" that ``has_work()`` replaced, and the
    # emission counts and exhaustion probes no run read.
    "has_pending_" + "comparisons", "record_" + "emission", "stale_" + "dequeues",
    "is_" + "exhausted", "." + "exhausted(",
    # The facade between a session and the engine's push run.
    "Push" + "Session",
    # Per-pair detours of the idle refill: the weight-route chooser, the
    # executed-set probe as a callback, and I-PES's one-comparison insert.
    "partner_" + "weights", "was_executed_" + "canonical", "_insert_" + "weighted",
    "_insert_if_above_" + "entity_average", "_entity_" + "enqueue",
    # The matcher-fault injector, the retry machinery that survived it, the
    # scalar pair loop it ran on, and the fault wiring of the session/CLI.
    "Faulty" + "Matcher", "TransientMatcher" + "Error", "Retry" + "Policy",
    "Match" + "Result", "supports_" + "batch", "_execute_batch_" + "scalar",
    "apply_" + "faults", "Fault" + "Spec", "--" + "faults",
    # State and code no production path read: the Bloom filter, the
    # recorder's copy of the executed set, a queue pop nothing called and
    # a cleaning stage nothing ran.
    "ScalableBloom" + "Filter", "priority." + "bloom", "dequeue_with" + "_key",
    "duplicate_" + "executions", "block_" + "filtering",
    # Helpers only tests reached, and I-PES's batch insert, now its offer.
    "batch_wnp_" + "for_profile", "sweep_" + "weights(", "_insert_" + "batch",
    # The blocking wrapper and its cost table: ``ERSystem`` is the one
    # front-end, and the engines read its ``store``.
    "IncrementalToken" + "Blocking", "Blocking" + "Costs", "blocking_" + "costs",
    "token_" + "blocking", "process_" + "increment", "_flush_blocking_" + "metrics",
    "comparison_" + "store",
    # A protocol with one implementation, interning and a co-occurrence
    # counter nothing read, a filter every caller passed as ``None``, and
    # the per-scheme sweep variants ``weights_from_counts`` replaced.
    "BlockingSub" + "strate", "_intern_" + "key", "_key_" + "ids", ".key_" + "id(",
    "partner_" + "counts", "valid_" + "partner", "finalize_" + "sweep",
    "sweep_weights_" + "for", "sweep_weight_" + "is_count",
    "sweep_accumulates_inverse_" + "cardinality",
    # Knobs only tests set: the cost-ceiling quarantine, the crash injector
    # (now ``tests/reference/crash.py``), and the restore that adopted a
    # checkpoint's budget while drain horizons were written into it.
    "cost_" + "ceiling", "crash_" + "at", "Simulated" + "Crash",
    "adopt_checkpoint_" + "budget",
    # The token-set pair-list kernel: the JS score reads pid-keyed records.
    "jaccard_" + "batch",
    # The MinHash-LSH substrate, its knobs and the config that chose it:
    # token blocking is the one substrate.
    "LSHBlock" + "Collection", "Min" + "Hasher", "Blocking" + "Config",
    "BLOCKING_" + "SUBSTRATES", "lsh_" + "bands", "lsh_" + "rows", "lsh_" + "seed",
    "blocking_" + "config",
    # The one-pair Myers kernel and its int table: the lane kernel scores
    # every DP survivor, ``levenshtein()`` as a group of one lane.
    "levenshtein_" + "myers", "myers_" + "table",
)


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_parallel_names_resolve(self):
        import repro.parallel

        for name in repro.parallel.__all__:
            assert hasattr(repro.parallel, name), name

    def test_unknown_names_still_raise(self):
        with pytest.raises(AttributeError):
            repro.no_such_name  # noqa: B018

    def test_version(self):
        assert repro.__version__


class TestRetiredNames:
    def test_nothing_shipped_mentions_them(self):
        root = Path(repro.__file__).parents[2]
        # ``docs/changes/`` archives old changelog measurements, like CHANGES.md.
        history = root / "docs" / "changes"
        shipped = [
            path
            for directory in ("src", "examples", "docs")
            for path in (root / directory).rglob("*")
            if path.suffix in (".py", ".md") and history not in path.parents
        ] + list((root / "benchmarks").glob("*.py"))
        assert len(shipped) > 100  # the walk found the tree
        # Pointing at the oracle that replaced an option is not a mention.
        oracle = "tests/reference/" + RETIRED_NAMES[0] + ".py"
        texts = {
            str(path.relative_to(root)): path.read_text(encoding="utf-8").replace(oracle, "")
            for path in shipped
        }
        mentions = [
            (file, name) for file, text in texts.items() for name in RETIRED_NAMES if name in text
        ]
        assert mentions == []

    def test_retired_members_are_gone(self):
        """Names too common for the text scan (``Increment.is_empty`` and
        ``work_exhausted`` stay)."""
        for owner, name in (
            (EmitResult, "is_empty"),
            (ERSystem, "has_pending_comparisons"),
            (ComparisonStore, "record_emission"),
            (ComparisonStore, "emitted"),
            (ComparisonStore, "stale_dequeues"),
            (GetComparisons, "is_exhausted"),
            (IncrPrioritization, "exhausted"),
            (IPCS, "exhausted"),
            (IPBS, "exhausted"),
            (IPES, "exhausted"),
            # The session's hidden default run: ``push()`` is the one handle.
            (ERSession, "ingest"),
            (ERSession, "drain"),
            (ERSession, "results"),
            # One evaluation API, the batch: the scalar hooks went with the
            # scalar pair loop, and the retry policy with the faults.
            (Matcher, "evaluate"),
            (Matcher, "estimate_cost"),
            (Matcher, "similarity"),
            (Matcher, "work_units"),
            (Matcher, "kernel_telemetry"),
            (ResilienceConfig, "retry"),
            (TenantSession, "horizon"),
            (TenantSession, "finished"),
            (TenantSession, "budget_exhausted"),
            (TenantSession, "drains"),
            (PushPlan, "last_arrival"),
            (PushPlan, "total_profiles"),
            (PierSystem, "_executed"),
            (IPES, "_top_weight"),
            # ``dequeue`` stays; ``ComparisonStore`` is the one executed set.
            # No code in ``src/`` read the top key or counted evictions and
            # refusals (``tests/reference/ipes_bounded_queues.top_key``).
            (BoundedPriorityQueue, "peek"),
            (BoundedPriorityQueue, "drain"),
            (BoundedPriorityQueue, "peek_key"),
            (BoundedPriorityQueue, "evictions"),
            (BoundedPriorityQueue, "rejections"),
            (ProgressRecorder, "was_executed"),
            (ProgressRecorder, "found_pairs"),
            # Code only tests reached: a round of one, two executed-set
            # probes the store answers, and two pair-shaped sweep wrappers.
            (IncrPrioritization, "dequeue"),
            (IPCS, "dequeue"),
            (IPES, "dequeue"),
            (IPBS, "dequeue"),
            (PierSystem, "was_executed"),
            (BatchProgressiveSystem, "was_executed"),
            (metablocking, "sweep_weights"),
            (metablocking, "batch_wnp_for_profile"),
            (sweep, "sweep_weights"),
            (wnp, "batch_wnp_for_profile"),
            (ERSystem, "comparison_store"),
            (ERSystem, "_flush_blocking_metrics"),
            (Block, "bid"),
            (BlockCollection, "key_id"),
            (BlockCollection, "partner_counts"),
            (WNPResult, "pruned"),
            (WNPResult, "total_candidates"),
            (comparison, "Comparison"),
            (WeightedComparison, "of"),
            (WeightedComparison, "comparison"),
            # The cost-ceiling quarantine and its per-run reset.
            (ComparisonStore, "quarantine"),
            (ComparisonStore, "quarantined"),
            (ComparisonStore, "begin_run"),
            (EngineCheckpoint, "quarantined"),
        ):
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
        for system in (PierSystem(IPES()), IBaseSystem(), PBSSystem()):
            assert not hasattr(system, "blocker"), system.name
        assert "blocking_costs" not in inspect.signature(PierSystem.__init__).parameters
        # The cost table is a class-level constant of ``ERSystem``.
        for system_cls in (ERSystem, PierSystem, IBaseSystem, BatchProgressiveSystem,
                           PBSSystem, PPSSystem):
            assert "costs" not in inspect.signature(system_cls.__init__).parameters
        assert "costs" in vars(ERSystem) and "costs" not in vars(PierSystem(IPES()))
        assert "valid_partner" not in inspect.signature(sweep.sweep_candidate_weights).parameters
        assert "valid_partner" not in inspect.signature(wnp.sweep_wnp).parameters
        assert "valid_pair" not in inspect.signature(BlockGraph.__init__).parameters
        # Every strategy checkpoints its own index: no ``__dict__`` default.
        assert "snapshot_state" not in vars(IncrPrioritization)
        assert "restore_state" not in vars(IncrPrioritization)
        assert "faults" not in inspect.signature(ERSession.__init__).parameters

    def test_engine_options_has_exactly_these_fields(self):
        assert [field.name for field in dataclasses.fields(EngineOptions)] == [
            "pipelined", "workers",
        ]

    def test_session_and_core_take_exactly_these_parameters(self):
        """Checkpoint cadence lives on ``ResilienceConfig`` alone."""
        assert list(inspect.signature(ERSession.__init__).parameters) == [
            "self", "dataset", "systems", "matcher", "engine", "scale", "n_increments",
            "rate", "budget", "seed", "workers", "resilience", "pool",
        ]
        assert list(inspect.signature(ExecutionCore.__init__).parameters) == [
            "self", "matcher", "budget", "match_cost_prior", "sample_every",
            "resilience", "workers", "pool",
        ]


class TestResolveStream:
    def test_static_run(self, toy_dirty_dataset):
        result = resolve_stream(toy_dirty_dataset, n_increments=3, budget=10.0)
        assert result.system_name == "PIER[I-PES]"
        assert result.final_pc > 0.0

    def test_algorithm_selection(self, toy_dirty_dataset):
        result = resolve_stream(toy_dirty_dataset, algorithm="I-BASE", budget=10.0)
        assert result.system_name == "I-BASE"

    def test_matcher_selection(self, toy_dirty_dataset):
        result = resolve_stream(toy_dirty_dataset, matcher="ED", budget=10.0)
        assert result.matcher_name == "ED"

    def test_rate_none_is_static(self, toy_dirty_dataset):
        result = resolve_stream(toy_dirty_dataset, rate=None, budget=10.0)
        assert result.stream_consumed_at is not None

    def test_unknown_algorithm(self, toy_dirty_dataset):
        with pytest.raises(ValueError):
            resolve_stream(toy_dirty_dataset, algorithm="MAGIC")

    def test_seed_determinism(self, small_census):
        a = resolve_stream(small_census, n_increments=5, rate=4.0, budget=15.0, seed=3)
        b = resolve_stream(small_census, n_increments=5, rate=4.0, budget=15.0, seed=3)
        assert a.final_pc == b.final_pc
        assert a.comparisons_executed == b.comparisons_executed

    def test_duplicates_are_canonical_pairs(self, toy_dirty_dataset):
        result = resolve_stream(toy_dirty_dataset, budget=10.0)
        for left, right in result.duplicates:
            assert left < right

    def test_match_events_align_with_curve(self, toy_dirty_dataset):
        result = resolve_stream(toy_dirty_dataset, budget=10.0)
        assert len(result.match_events) == int(
            result.final_pc * len(toy_dirty_dataset.ground_truth) + 0.5
        )
        times = [time for time, _ in result.match_events]
        assert times == sorted(times)


class TestLoadDatasetViaTopLevel:
    def test_available(self):
        assert "movies" in repro.available_datasets()

    def test_load(self):
        dataset = load_dataset("movies", scale=0.05)
        assert len(dataset) > 0
