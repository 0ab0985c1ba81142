"""Tests for the MinHash-LSH blocking substrate.

Covers the hasher's determinism contract (seeded, hash-seed independent,
order independent), that both substrates are a :class:`BlockCollection`,
the ``EngineOptions``/CLI threading of the blocking
knobs, end-to-end engine parity on the LSH substrates, and crash-resume
bit-identity of LSH state through engine checkpoints.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import EngineOptions
from repro.blocking.blocks import BlockCollection
from repro.blocking.lsh import LSHBlockCollection, MinHasher
from repro.blocking.substrate import (
    BLOCKING_SUBSTRATES,
    BlockingConfig,
    make_collection,
)
from repro.cli import build_parser
from repro.core.increments import make_stream_plan, split_into_increments
from repro.evaluation.experiments import _build_matcher, _build_system
from repro.pier.base import PierSystem
from repro.pier.ipcs import IPCS
from repro.pier.ipes import IPES
from repro.resilience import ResilienceConfig
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine

from tests.conftest import make_profile
from tests.reference.crash import SimulatedCrash, crash_at


class TestMinHasher:
    def test_same_seed_same_signature(self):
        tokens = frozenset({"alpha", "beta", "gamma"})
        first = MinHasher(bands=8, rows=2, seed=7).signature(tokens)
        second = MinHasher(bands=8, rows=2, seed=7).signature(tokens)
        assert first == second
        assert len(first) == 16

    def test_different_seed_differs(self):
        tokens = frozenset({"alpha", "beta", "gamma"})
        assert MinHasher(8, 2, seed=0).signature(tokens) != MinHasher(
            8, 2, seed=1
        ).signature(tokens)

    def test_empty_tokens_empty_signature(self):
        assert MinHasher(4, 2).signature(()) == ()

    def test_signature_is_order_independent(self):
        hasher = MinHasher(6, 3, seed=3)
        tokens = ["zebra", "apple", "mango", "kiwi"]
        assert hasher.signature(tokens) == hasher.signature(list(reversed(tokens)))

    def test_bucket_keys_shape(self):
        hasher = MinHasher(bands=4, rows=2, seed=0)
        keys = hasher.bucket_keys(hasher.signature({"alpha", "beta"}))
        assert len(keys) == 4
        for band, key in enumerate(keys):
            prefix, _, slice_part = key.partition(":")
            assert prefix == f"b{band}"
            assert len(slice_part.split(".")) == 2

    def test_similar_sets_collide_dissimilar_do_not(self):
        hasher = MinHasher(bands=16, rows=2, seed=0)
        base = {f"tok{i}" for i in range(20)}
        near = set(base)
        near.remove("tok0")
        far = {f"other{i}" for i in range(20)}
        buckets = lambda tokens: set(hasher.bucket_keys(hasher.signature(tokens)))
        assert buckets(base) & buckets(near)  # Jaccard ~0.95 → co-bucketed
        assert not (buckets(base) & buckets(far))  # Jaccard 0 → disjoint

    def test_validation(self):
        with pytest.raises(ValueError):
            MinHasher(bands=0, rows=2)
        with pytest.raises(ValueError):
            MinHasher(bands=2, rows=0)


class TestSubstrateProtocol:
    def test_all_substrates_satisfy_protocol(self):
        for collection in (BlockCollection(), LSHBlockCollection()):
            assert isinstance(collection, BlockCollection)

    def test_make_collection_factory(self):
        assert type(make_collection(None)) is BlockCollection
        assert type(make_collection(BlockingConfig())) is BlockCollection
        lsh = make_collection(
            BlockingConfig(substrate="lsh", lsh_bands=4, lsh_rows=3, lsh_seed=9),
            clean_clean=True,
            max_block_size=50,
        )
        assert type(lsh) is LSHBlockCollection
        assert lsh.clean_clean is True
        assert lsh.max_block_size == 50
        assert (lsh.hasher.bands, lsh.hasher.rows, lsh.hasher.seed) == (4, 3, 9)

    def test_make_collection_refuses_an_unknown_substrate(self):
        """Only ``"token"`` and ``"lsh"`` name a substrate: a config that got
        past its validation with any other name builds nothing."""
        config = BlockingConfig()
        object.__setattr__(config, "substrate", "nonsense")
        with pytest.raises(ValueError, match="unknown substrate 'nonsense'"):
            make_collection(config)

    def test_token_substrate_defaults(self):
        collection = BlockCollection()
        collection.add_profile(make_profile(1, "alpha beta"))
        assert collection.drain_metrics() == {}


class TestBlockingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BlockingConfig(substrate="nope")
        with pytest.raises(ValueError):
            BlockingConfig(lsh_bands=0)
        with pytest.raises(ValueError):
            BlockingConfig(lsh_rows=0)

    def test_threshold(self):
        config = BlockingConfig(substrate="lsh", lsh_bands=16, lsh_rows=2)
        assert config.threshold == pytest.approx(0.25)


class TestLSHBlockCollection:
    def test_buckets_are_the_blocks(self):
        collection = LSHBlockCollection(bands=8, rows=2, seed=0)
        collection.add_profile(make_profile(1, "alpha beta gamma"))
        assert collection.blocks_of(1)
        assert all(key.startswith("b") for key in collection.blocks_of(1))
        assert collection.block_count_of(1) <= 8

    def test_near_duplicates_share_blocks(self):
        collection = LSHBlockCollection(bands=16, rows=2, seed=0)
        text = " ".join(f"tok{i}" for i in range(20))
        collection.add_profile(make_profile(1, text))
        collection.add_profile(make_profile(2, text + " extra"))
        collection.add_profile(make_profile(3, " ".join(f"far{i}" for i in range(20))))
        assert collection.common_blocks(1, 2) > 0
        assert collection.common_blocks(1, 3) == 0

    def test_signature_cache_and_telemetry(self):
        collection = LSHBlockCollection(bands=4, rows=2, seed=0)
        profile = make_profile(1, "alpha beta")
        collection.add_profile(profile)
        assert collection.signature_count() == 1
        cached = collection.signature_of(profile)
        assert cached is collection.signature_of(profile)  # no recompute
        pending = collection.drain_metrics()
        assert pending["blocking.lsh.signatures"] == 1
        assert pending["blocking.lsh.buckets"] >= 1
        assert collection.drain_metrics() == {}  # drained exactly once


class TestEngineOptionsBlocking:
    def test_defaults_are_token(self):
        options = EngineOptions()
        config = options.blocking_config()
        assert config == BlockingConfig()
        assert config.substrate == "token"

    def test_blocking_config_roundtrip(self):
        options = EngineOptions(blocking="lsh", lsh_bands=8, lsh_rows=3, lsh_seed=42)
        assert options.blocking_config() == BlockingConfig(
            substrate="lsh", lsh_bands=8, lsh_rows=3, lsh_seed=42
        )

    def test_validation_delegated(self):
        with pytest.raises(ValueError):
            EngineOptions(blocking="minhash")
        with pytest.raises(ValueError):
            EngineOptions(blocking="lsh", lsh_bands=0)
        with pytest.raises(ValueError):
            EngineOptions(blocking="lsh", lsh_rows=-1)


class TestCLIBlockingFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.blocking == "token"
        assert (args.lsh_bands, args.lsh_rows, args.lsh_seed) == (16, 2, 0)

    def test_parses_lsh_flags(self):
        args = build_parser().parse_args(
            [
                "run",
                "--blocking", "lsh",
                "--lsh-bands", "8",
                "--lsh-rows", "3",
                "--lsh-seed", "7",
            ]
        )
        assert args.blocking == "lsh"
        assert (args.lsh_bands, args.lsh_rows, args.lsh_seed) == (8, 3, 7)

    def test_rejects_unknown_substrate(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--blocking", "simhash"])

    def test_choices_match_registry(self):
        action = next(
            a
            for a in build_parser()._subparsers._group_actions[0].choices["run"]._actions
            if "--blocking" in a.option_strings
        )
        assert tuple(action.choices) == BLOCKING_SUBSTRATES


# With the cheap JS matcher these streams exhaust their work at ~1.8s of
# virtual time, so the simulated crash must land well before that (and after
# the first checkpoint) for the resume path to be exercised.
BUDGET = 10.0
CHECKPOINT_EVERY = 0.3
CADENCE = ResilienceConfig(checkpoint_every=CHECKPOINT_EVERY)
CRASH_AT = 1.0


def _plan(dataset, n=10, rate=5.0):
    return make_stream_plan(split_into_increments(dataset, n, seed=0), rate=rate)


#: Every substrate but the paper's token blocking.
LSH_SUBSTRATES = tuple(name for name in BLOCKING_SUBSTRATES if name != "token")


def _factory(substrate, dataset, system="I-PCS"):
    config = BlockingConfig(substrate=substrate)
    return lambda: _build_system(system, dataset, blocking=config)


class TestLSHEndToEnd:
    @pytest.mark.parametrize("substrate", LSH_SUBSTRATES)
    def test_lsh_cuts_candidates_and_still_matches(self, small_dblp_acm, substrate):
        plan = _plan(small_dblp_acm)
        results = {}
        for name in ("token", substrate):
            engine = StreamingEngine(_build_matcher("JS"), budget=BUDGET)
            results[name] = engine.run(
                _factory(name, small_dblp_acm)(), plan, small_dblp_acm.ground_truth
            )
        assert 0 < results[substrate].comparisons_executed
        # The trade the substrate exists for: at least half the executed
        # comparisons gone, at most 0.02 of pair completeness with them.
        assert (
            2 * results[substrate].comparisons_executed
            <= results["token"].comparisons_executed
        )
        pair_completeness = small_dblp_acm.ground_truth.pair_completeness
        assert (
            pair_completeness(results["token"].duplicates)
            - pair_completeness(results[substrate].duplicates)
            <= 0.02
        )
        assert len(results[substrate].duplicates) > 0
        counters = results[substrate].details["metrics"]["counters"]
        assert counters["blocking.lsh.signatures"] > 0
        assert counters["blocking.lsh.buckets"] > 0

    @pytest.mark.parametrize("substrate", LSH_SUBSTRATES)
    def test_serial_pipelined_parity(self, small_dblp_acm, substrate):
        plan = _plan(small_dblp_acm)
        factory = _factory(substrate, small_dblp_acm, system="I-PES")
        serial = StreamingEngine(_build_matcher("JS"), budget=BUDGET).run(
            factory(), plan, small_dblp_acm.ground_truth
        )
        pipelined = PipelinedStreamingEngine(_build_matcher("JS"), budget=BUDGET).run(
            factory(), plan, small_dblp_acm.ground_truth
        )
        assert pipelined.duplicates == serial.duplicates
        assert pipelined.comparisons_executed == serial.comparisons_executed

    def test_runs_deterministic_across_repeats(self, small_dblp_acm):
        plan = _plan(small_dblp_acm)
        runs = [
            StreamingEngine(_build_matcher("JS"), budget=BUDGET).run(
                _factory("lsh", small_dblp_acm)(), plan, small_dblp_acm.ground_truth
            )
            for _ in range(2)
        ]
        assert runs[0].duplicates == runs[1].duplicates
        assert runs[0].curve.points == runs[1].curve.points
        assert (
            runs[0].details["metrics"]["counters"]
            == runs[1].details["metrics"]["counters"]
        )


class TestLSHCrashResume:
    """LSH state (signatures, buckets, pending telemetry) must ride through
    checkpoints so a resumed run is bit-identical to an uninterrupted one."""

    @pytest.mark.parametrize("substrate", LSH_SUBSTRATES)
    def test_resume_bit_identical(self, small_dblp_acm, substrate):
        plan = _plan(small_dblp_acm)
        factory = _factory(substrate, small_dblp_acm)
        uninterrupted = StreamingEngine(
            _build_matcher("JS"), budget=BUDGET, resilience=CADENCE
        ).run(factory(), plan, small_dblp_acm.ground_truth)
        crashing = StreamingEngine(_build_matcher("JS"), budget=BUDGET, resilience=CADENCE)
        with crash_at(CRASH_AT), pytest.raises(SimulatedCrash) as exc:
            crashing.run(factory(), plan, small_dblp_acm.ground_truth)
        checkpoint = exc.value.checkpoint
        assert checkpoint is not None
        resumed = StreamingEngine(
            _build_matcher("JS"), budget=BUDGET, resilience=CADENCE
        ).run(factory(), plan, small_dblp_acm.ground_truth, resume_from=checkpoint)
        assert resumed.duplicates == uninterrupted.duplicates
        assert resumed.curve.points == uninterrupted.curve.points
        assert resumed.comparisons_executed == uninterrupted.comparisons_executed
        assert (
            resumed.details["metrics"]["counters"]
            == uninterrupted.details["metrics"]["counters"]
        )

    def test_checkpoint_carries_lsh_state(self, small_dblp_acm):
        plan = _plan(small_dblp_acm)
        factory = _factory("lsh", small_dblp_acm)
        crashing = StreamingEngine(_build_matcher("JS"), budget=BUDGET, resilience=CADENCE)
        with crash_at(CRASH_AT), pytest.raises(SimulatedCrash) as exc:
            crashing.run(factory(), plan, small_dblp_acm.ground_truth)
        checkpoint = exc.value.checkpoint
        collection = checkpoint.system_state["collection"]
        assert isinstance(collection, LSHBlockCollection)
        assert collection.signature_count() > 0
        assert len(collection) > 0


_HASHSEED_SCRIPT = """
from repro.blocking.lsh import LSHBlockCollection
from repro.datasets.registry import load_dataset
from repro.metablocking.sweep import sweep_candidate_weights

dataset = load_dataset("dblp_acm", scale=0.1)
lsh = LSHBlockCollection(clean_clean=True, bands=16, rows=2, seed=0)
for profile in dataset.profiles:
    lsh.add_profile(profile)
for profile in dataset.profiles[:40]:
    print(profile.pid, lsh.signature_of(profile))
    print(profile.pid, sorted(lsh.blocks_of(profile.pid)))
    print(profile.pid, sweep_candidate_weights(lsh, profile.pid, source=profile.source))
print([block.key for block in lsh])
print(sorted(lsh.drain_metrics().items()))
"""


class TestHashSeedStability:
    """Signatures, buckets, block order and co-bucket partners are
    independent of PYTHONHASHSEED."""

    @staticmethod
    def _stream_under_seed(seed: str) -> str:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        src_dir = str(Path(__file__).resolve().parent.parent / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return proc.stdout

    def test_lsh_identical_across_hash_seeds(self):
        out_a = self._stream_under_seed("0")
        out_b = self._stream_under_seed("31337")
        assert out_a == out_b
        assert len(out_a.splitlines()) > 120  # the probe emitted real work
