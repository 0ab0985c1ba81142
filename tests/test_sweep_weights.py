"""The single-sweep weighting kernel against the definition.

The sweep path (:mod:`repro.metablocking.sweep`) must reproduce
generate-then-weigh I-WNP — ghost, gather, de-duplicate, one
``scheme.weight()`` per candidate, prune below the average; kept as the
oracle ``tests/reference/per_pair_weighting.py`` — *exactly*: same
candidates, same order, same float weights, for all four schemes, on dirty
and Clean-Clean collections, with purged blocks and block ghosting in play,
and independent of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.blocks import BlockCollection
from repro.blocking.substrate import BLOCKING_SUBSTRATES, BlockingConfig, make_collection
from repro.core.dataset import Dataset, ERKind
from repro.core.increments import make_stream_plan, split_into_increments
from repro.metablocking import sweep
from repro.metablocking.sweep import sweep_candidate_weights
from repro.metablocking.weights import make_scheme
from repro.metablocking.wnp import sweep_wnp
from repro.pier.base import ComparisonGenerator
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine

from tests.conftest import build_matcher, build_system, make_profile
from tests.reference.per_pair_weighting import (
    ReferenceGenerator,
    reference_candidate_weights,
    reference_generate,
    reference_pair_weights,
)

SCHEME_NAMES = ("cbs", "ecbs", "js", "arcs")


def _index(dataset: Dataset, max_block_size: int | None) -> BlockCollection:
    collection = BlockCollection(
        clean_clean=dataset.kind is ERKind.CLEAN_CLEAN, max_block_size=max_block_size
    )
    for profile in dataset.profiles:
        collection.add_profile(profile)
    return collection


def _assert_sweep_is_reference(collection, profile, scheme, beta, source):
    """One profile: candidates, order, floats, kept set and cost units.

    The sweep gets the ``source`` hint on Clean-Clean collections, as
    ``ComparisonGenerator`` gives it; the reference gathers only the other
    source's members by itself.
    """
    candidates, weights = sweep_candidate_weights(
        collection, profile.pid, scheme, beta=beta, source=source
    )
    assert (candidates, weights) == reference_candidate_weights(
        collection, profile, scheme, beta
    )
    kept, operations = reference_generate(collection, profile, scheme, beta)
    swept = sweep_wnp(collection, profile.pid, scheme, beta=beta, source=source)
    assert swept.kept == kept  # pairs, order, and exact floats
    assert swept.weighting_cost_units == operations
    return candidates, weights, kept


@pytest.fixture(scope="module")
def dirty_collection(request):
    dataset = request.getfixturevalue("small_census")
    # small max_block_size forces purged blocks into the picture
    return dataset, _index(dataset, max_block_size=20)


@pytest.fixture(scope="module")
def cc_collection(request):
    dataset = request.getfixturevalue("small_dblp_acm")
    return dataset, _index(dataset, max_block_size=30)


class TestSweepBitIdentity:
    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_dirty_with_purged_blocks_and_ghosting(self, dirty_collection, scheme_name):
        dataset, collection = dirty_collection
        scheme = make_scheme(scheme_name)
        checked = 0
        for profile in dataset.profiles[:120]:
            *_, kept = _assert_sweep_is_reference(
                collection, profile, scheme, beta=0.2, source=None
            )
            checked += len(kept)
        assert checked > 0  # the fixture produced real candidate lists

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_clean_clean_with_source_hint(self, cc_collection, scheme_name):
        dataset, collection = cc_collection
        scheme = make_scheme(scheme_name)
        checked = 0
        for profile in dataset.profiles[:120]:
            *_, kept = _assert_sweep_is_reference(
                collection, profile, scheme, beta=0.2, source=profile.source
            )
            checked += len(kept)
        assert checked > 0

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_generator_paths_identical(self, cc_collection, scheme_name):
        """ComparisonGenerator emits the reference generator's stream —
        cross-source only, with no predicate of its own."""
        dataset, collection = cc_collection
        scheme = make_scheme(scheme_name)
        sweep_gen = ComparisonGenerator(beta=0.2, scheme=scheme)
        for profile in dataset.profiles[:80]:
            assert sweep_gen.generate(collection, profile) == reference_generate(
                collection, profile, scheme, 0.2
            )

    @pytest.mark.parametrize("clean_clean", [False, True], ids=["dirty", "clean-clean"])
    @pytest.mark.parametrize("substrate", BLOCKING_SUBSTRATES)
    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_pair_weights_matches_per_pair_calls(
        self, scheme_name, substrate, clean_clean, request
    ):
        """Two drains of the same pairs, with blocks purged in between: the
        weights are one ``scheme.weight`` each, float for float, also for a
        pair with an unindexed profile and pairs whose shared block went."""
        dataset = request.getfixturevalue("small_dblp_acm" if clean_clean else "small_census")
        collection = make_collection(
            BlockingConfig(substrate=substrate), clean_clean=clean_clean, max_block_size=6
        )
        scheme = make_scheme(scheme_name)
        first, second = dataset.profiles[::2], dataset.profiles[1::2]
        for profile in first:
            collection.add_profile(profile)
        blocks = {block.key: tuple(block.pairs(clean_clean)) for block in collection}
        pairs = list(dict.fromkeys(pair for key in sorted(blocks) for pair in blocks[key]))
        unindexed = max(profile.pid for profile in dataset.profiles) + 1000
        pairs.append((first[0].pid, unindexed))
        weights = sweep.pair_weights(collection, pairs, scheme)
        assert weights == reference_pair_weights(collection, pairs, scheme)
        assert weights[-1] == 0.0 and max(weights) > 0.0

        for profile in second:
            collection.add_profile(profile)
        purged = set(blocks) & collection.purged_keys()
        lost = {pair for key in purged for pair in blocks[key]}
        assert lost  # pairs that shared a block the second drain no longer sees
        again = sweep.pair_weights(collection, pairs, scheme)
        assert again == reference_pair_weights(collection, pairs, scheme)
        assert again[-1] == 0.0
        if scheme_name == "cbs":
            # From the definition: w = |B(x) ∩ B(y)| over the live blocks.
            assert again == [
                float(len(collection.blocks_of(x) & collection.blocks_of(y)))
                for x, y in pairs
            ]
            assert any(
                after < before
                for pair, before, after in zip(pairs, weights, again)
                if pair in lost
            )

    def test_sweep_weights_no_ghosting_vs_beta_one(self, dirty_collection):
        """beta=1.0 ghosting keeps every block >= threshold logic sanity."""
        dataset, collection = dirty_collection
        scheme = make_scheme("cbs")
        profile = dataset.profiles[0]
        partners, weights = sweep_candidate_weights(collection, profile.pid, scheme)
        assert weights == [scheme.weight(collection, profile.pid, partner) for partner in partners]

    def test_sweep_weights_beta_validation(self, dirty_collection):
        _, collection = dirty_collection
        with pytest.raises(ValueError):
            sweep_candidate_weights(collection, 0, beta=0.0)
        with pytest.raises(ValueError):
            sweep_candidate_weights(collection, 0, beta=1.5)


# Twelve tokens for up to sixteen profiles: blocks collide, and with
# ``max_block_size`` at most 5 the popular ones get purged mid-build.
_TOKENS = [f"k{index}" for index in range(12)]
_generated_profiles = st.lists(
    st.tuples(st.sets(st.sampled_from(_TOKENS), max_size=6), st.integers(0, 1)),
    min_size=2,
    max_size=16,
)


@given(
    arrivals=_generated_profiles,
    clean_clean=st.booleans(),
    max_block_size=st.integers(min_value=2, max_value=5),
    beta=st.sampled_from([0.1, 0.2, 0.5, 1.0]),
    scheme_name=st.sampled_from(SCHEME_NAMES),
    substrate=st.sampled_from(BLOCKING_SUBSTRATES),
)
@settings(max_examples=300, deadline=None)
def test_sweep_is_reference_on_generated_collections(
    arrivals, clean_clean, max_block_size, beta, scheme_name, substrate
):
    scheme = make_scheme(scheme_name)
    collection = make_collection(
        BlockingConfig(substrate=substrate, lsh_bands=4, lsh_rows=1),
        clean_clean=clean_clean,
        max_block_size=max_block_size,
    )
    profiles = [
        make_profile(pid, " ".join(sorted(tokens)), source=source if clean_clean else 0)
        for pid, (tokens, source) in enumerate(arrivals)
    ]
    for profile in profiles:
        collection.add_profile(profile)
    for profile in profiles:
        candidates, weights, _ = _assert_sweep_is_reference(
            collection, profile, scheme, beta,
            source=profile.source if clean_clean else None,
        )
        if scheme_name == "cbs":
            # From the definition, so a defect shared by ``scheme.weight()``
            # and the sweep cannot hide: w = |B(x) ∩ B(y)|.
            mine = collection.blocks_of(profile.pid)
            assert weights == [len(mine & collection.blocks_of(pid)) for pid in candidates]


#: Systems whose prioritization runs on meta-blocking weights.
WEIGHTING_SYSTEMS = (
    "I-AUTO", "I-BASE", "I-PBS", "I-PCS", "I-PES",
    "PBS", "PBS-GLOBAL", "PPS", "PPS-GLOBAL", "PPS-LOCAL",
)
#: Modules that weigh the pairs of a drained block with ``pair_weights``.
_PAIR_WEIGHT_CALLERS = (
    "repro.pier.base", "repro.pier.ipbs", "repro.progressive.pbs",
    "repro.metablocking.block_graph",
)
# The pipelined engine still spins ``budget / 1e-5`` empty rounds on an
# exhausted batch baseline (ROADMAP item 1; ~45 s per case here), so the
# baselines are held to the reference on the serial engine only.
_ENGINE_CASES = [
    (system_name, engine_cls)
    for system_name in WEIGHTING_SYSTEMS
    for engine_cls in (StreamingEngine, PipelinedStreamingEngine)
    if engine_cls is StreamingEngine or system_name.startswith("I-")
]


def _run(system, engine_cls, dataset):
    plan = make_stream_plan(split_into_increments(dataset, 8, seed=0), rate=None)
    engine = engine_cls(build_matcher("JS"), budget=30.0)
    return engine.run(system, plan, dataset.ground_truth)


class TestEngineLevelParity:
    """A run on the sweep kernel equals the run with the reference weighting
    swapped in at every seam — the strategy's ``generator`` attribute and the
    ``pair_weights`` name of each module that drains blocks.  The swap is
    the test's; production has no hook for it."""

    @pytest.mark.parametrize("system_name,engine_cls", _ENGINE_CASES)
    def test_full_run_bit_identical(
        self, system_name, engine_cls, small_dblp_acm, monkeypatch
    ):
        sweep_result = _run(build_system(system_name, small_dblp_acm), engine_cls, small_dblp_acm)

        system = build_system(system_name, small_dblp_acm)
        holder = getattr(system, "strategy", system)
        if hasattr(holder, "generator"):
            holder.generator = ReferenceGenerator(
                holder.generator.beta, holder.generator.scheme
            )
        for module in _PAIR_WEIGHT_CALLERS:
            monkeypatch.setattr(f"{module}.pair_weights", reference_pair_weights)
        pair_result = _run(system, engine_cls, small_dblp_acm)

        assert sweep_result.match_events == pair_result.match_events
        assert sweep_result.curve.points == pair_result.curve.points
        assert sweep_result.comparisons_executed == pair_result.comparisons_executed
        assert sweep_result.duplicates == pair_result.duplicates

    @pytest.mark.parametrize("system_name", ["I-PBS", "PBS", "PPS"])
    def test_pair_weights_is_reference_on_every_drained_block(
        self, system_name, small_dblp_acm, monkeypatch
    ):
        blocks_weighed = []

        def checked(collection, pairs, scheme=None):
            weights = sweep.pair_weights(collection, pairs, scheme)
            assert weights == reference_pair_weights(collection, pairs, scheme)
            blocks_weighed.append(len(pairs))
            return weights

        for module in _PAIR_WEIGHT_CALLERS:
            monkeypatch.setattr(f"{module}.pair_weights", checked)
        result = _run(build_system(system_name, small_dblp_acm), StreamingEngine, small_dblp_acm)
        assert result.comparisons_executed > 0
        assert sum(blocks_weighed) >= result.comparisons_executed


_HASHSEED_SCRIPT = """
from repro.datasets.registry import load_dataset
from repro.blocking.blocks import BlockCollection
from repro.blocking.substrate import BLOCKING_SUBSTRATES, BlockingConfig, make_collection
from repro.metablocking.weights import make_scheme
from repro.metablocking.wnp import sweep_wnp

dataset = load_dataset("dblp_acm", scale=0.1)
collection = BlockCollection(clean_clean=True, max_block_size=25)
for profile in dataset.profiles:
    collection.add_profile(profile)
for scheme_name in ("cbs", "ecbs", "js", "arcs"):
    scheme = make_scheme(scheme_name)
    for profile in dataset.profiles[:40]:
        result = sweep_wnp(collection, profile.pid, scheme,
                           beta=0.2, source=profile.source)
        for comparison in result.kept:
            print(scheme_name, comparison.left, comparison.right,
                  repr(comparison.weight))
"""

# The batch baselines build their schedules from ``iter(collection)``, i.e.
# from block *creation* order — which followed the
# hash seed until ``BlockCollection.add_profile`` sorted a profile's keys.
_BASELINE_SCRIPT = """
from repro.api import ERSession

SYSTEMS = ("BATCH", "PPS", "PBS", "PPS-LOCAL", "PBS-GLOBAL")
for rate in (None, 5.0):
    with ERSession("census_2m", systems=SYSTEMS, scale=0.05, n_increments=10,
                   rate=rate, budget=10.0) as session:
        for name in SYSTEMS:
            result = session.run(name)
            print(rate, name, result.comparisons_executed,
                  result.curve.points, sorted(result.duplicates))
"""


class TestHashSeedStability:
    """The emitted stream must not depend on the interpreter's hash seed."""

    @staticmethod
    def _stream_under_seed(seed: str, script: str = _HASHSEED_SCRIPT) -> str:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        src_dir = str(Path(__file__).resolve().parent.parent / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return proc.stdout

    def test_stream_identical_across_hash_seeds(self):
        out_a = self._stream_under_seed("0")
        out_b = self._stream_under_seed("31337")
        assert out_a == out_b
        assert len(out_a.splitlines()) > 20  # the probe emitted real work

    def test_batch_baselines_identical_across_hash_seeds(self):
        out_a = self._stream_under_seed("0", _BASELINE_SCRIPT)
        out_b = self._stream_under_seed("31337", _BASELINE_SCRIPT)
        assert out_a == out_b
        executed = [int(line.split()[2]) for line in out_a.splitlines()]
        assert len(executed) == 10 and min(executed) > 0  # every cell did real work
