"""The refill's delta drain against the full-rescan oracle.

``GetComparisons`` enumerates only the pairs of a grown block that involve a
member past its cursor, and finds that block through the collection's growth
feed.  These tests hold it to what it replaced
(``tests/reference/full_rescan_refill.py``, which scans the collection for
eligible blocks and every block for pairs): same blocks in the same order,
same comparisons and weights — with no pair enumerated twice, no
scan of the collection, and no more keys examined than blocks grew.
"""

from __future__ import annotations

import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.blocks import BlockCollection
from repro.core.increments import make_stream_plan, split_into_increments
from repro.matching.matcher import JaccardMatcher
from repro.metablocking.weights import make_scheme
from repro.pier.base import GetComparisons, PierSystem
from repro.pier.ipcs import IPCS
from repro.pier.ipes import IPES
from repro.streaming.engine import StreamingEngine

from tests.conftest import make_profile
from tests.reference.exhaustion import refill_exhausted
from tests.reference.full_rescan_refill import FullRescanRefill

VOCABULARY = ("ash", "birch", "cedar", "dogwood")

_profile = st.tuples(
    st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=2, unique=True),
    st.integers(0, 1),
)
#: Token blocking is the one blocking substrate.  Case ids keep the ``token``
#: part they carried while the substrate was a parameter, so that a case
#: keeps its name across the history of the suite.
TOKEN_CASE_IDS = ["token-clean-clean", "token-dirty"]

#: One round: arrivals, then that many drains, then every ``step``-th pending
#: pair is executed, then (maybe) the refill goes through a checkpoint.
_round = st.tuples(
    st.lists(_profile, min_size=1, max_size=3),
    st.integers(0, 4),
    st.integers(1, 3),
    st.booleans(),
)


class _NoScan:
    """A collection as the refill may use it: every way but iterating it."""

    def __init__(self, collection) -> None:
        self._collection = collection

    def __getattr__(self, name):
        return getattr(self._collection, name)

    def __iter__(self):
        raise AssertionError("the refill scanned the collection")


def _add(collection, profile) -> int:
    """Index ``profile``; how many blocks gained it (one purged by it included)."""
    purged_before = len(collection.purged_keys())
    collection.add_profile(profile)
    live = collection.block_count_of(profile.pid)
    return live + len(collection.purged_keys()) - purged_before


@pytest.mark.parametrize("clean_clean", [True, False], ids=TOKEN_CASE_IDS)
@given(
    rounds=st.lists(_round, min_size=1, max_size=12),
    scheme_name=st.sampled_from(["cbs", "js", "arcs"]),
)
@settings(max_examples=60, deadline=None)
def test_delta_drain_matches_full_rescan(clean_clean, rounds, scheme_name):
    """Interleaved arrivals, drains, executions, purges and checkpoints.

    A block purges once it outgrows ``max_block_size=5``.  Pairs left
    unexecuted after they were offered are the one place the two differ:
    the rescan offers them again when their block grows, the delta drain
    does not (``offered`` takes them out of the oracle's answer).
    """
    collection = BlockCollection(clean_clean=clean_clean, max_block_size=5)
    scheme = make_scheme(scheme_name)
    refill = GetComparisons(scheme)
    oracle = FullRescanRefill(scheme)
    executed: set[tuple[int, int]] = set()
    pending: list[tuple[int, int]] = []
    offered: dict[str, set[tuple[int, int]]] = {}
    pid = additions = examined = 0
    for arrivals, drains, step, checkpoint in rounds:
        for tokens, source in arrivals:
            additions += _add(
                collection, make_profile(pid, " ".join(tokens), source=source)
            )
            pid += 1
        for _ in range(drains):
            expected = oracle.next_batch(collection, executed)
            result = refill.next_batch(_NoScan(collection), executed, set())
            examined += refill.last_examined
            if expected is None:
                assert result is None
                break
            seen = offered.setdefault(oracle.last_key, set())
            fresh = [
                (pair, weight) for pair, weight in zip(*expected) if pair not in seen
            ]
            assert result == ([pair for pair, _ in fresh], [weight for _, weight in fresh])
            assert refill.last_scanned >= len(fresh)
            seen.update(result[0])
            pending.extend(result[0])
        executed.update(pending[::step])
        del pending[::step]
        if checkpoint:
            state = copy.deepcopy(refill.snapshot_state())
            refill = GetComparisons(scheme)
            refill.restore_state(state)
    assert refill_exhausted(refill, collection) == (
        oracle.next_batch(collection, executed) is None
    )
    # Finding the blocks cost what grew: a key is examined at most once per
    # member its block gained, however often the heap ran dry.
    assert examined <= additions


def test_purged_block_leaves_the_checkpoint():
    """A drained block that is purged later must not ride along forever."""
    collection = BlockCollection(max_block_size=2)
    collection.add_profile(make_profile(0, "doomed kept"))
    collection.add_profile(make_profile(1, "doomed kept"))
    refill = GetComparisons()
    nothing_executed: set[tuple[int, int]] = set()
    while refill.next_batch(collection, nothing_executed, set()) is not None:
        pass
    assert set(refill.snapshot_state()["cursor"]) == {"doomed", "kept"}
    collection.add_profile(make_profile(2, "doomed"))  # third member: purged
    assert "doomed" not in collection
    assert refill.next_batch(collection, nothing_executed, set()) is None
    assert set(refill.snapshot_state()["cursor"]) == {"kept"}


def test_refill_on_a_filled_collection_sees_every_block():
    """The feed keeps what nobody drained: a refill that starts late — on a
    collection filled before it existed — is told about every block."""
    collection = BlockCollection()
    for pid, text in enumerate(["ash birch", "ash birch cedar", "cedar", "ash dogwood"]):
        collection.add_profile(make_profile(pid, text))
    nothing_executed: set[tuple[int, int]] = set()
    refill, oracle = GetComparisons(), FullRescanRefill()
    while (expected := oracle.next_batch(collection, nothing_executed)) is not None:
        assert refill.next_batch(collection, nothing_executed, set()) == expected
    assert refill.next_batch(collection, nothing_executed, set()) is None
    # ... and the feed has one consumer: a second refill finds it drained.
    assert GetComparisons().next_batch(collection, nothing_executed, set()) is None


class _CountingRefill(GetComparisons):
    """Sums ``last_examined`` over every call, next to what a scan of the
    collection per dry heap would have examined (counting only the heaps
    found dry on entry, so a lower bound)."""

    __slots__ = ("examined", "scan_would_examine")

    def __init__(self, scheme) -> None:
        super().__init__(scheme)
        self.examined = 0
        self.scan_would_examine = 0

    def next_batch(self, collection, executed, offered):
        if not self._heap:
            self.scan_would_examine += len(collection)
        result = super().next_batch(collection, executed, offered)
        self.examined += self.last_examined
        return result


@pytest.mark.parametrize("strategy_cls", [IPCS, IPES])
def test_a_tenants_refills_examine_what_grew(strategy_cls, small_dblp_acm):
    """A service tenant's life: a couple of profiles per ingest, the engine
    drained to each arrival, hundreds of idle refills on a collection that
    keeps growing.  A scan per dry heap examines the whole collection each
    time; the growth feed examines a key once per member its block gained."""
    system = PierSystem(strategy_cls(), clean_clean=True, max_block_size=None)
    strategy = system.strategy
    strategy.refill = _CountingRefill(strategy.refill.scheme)
    engine = StreamingEngine(JaccardMatcher(0.4), budget=1e9)
    push = engine.open_push(system, small_dblp_acm.ground_truth)
    increments = split_into_increments(small_dblp_acm, 200, seed=1)
    for at, increment in enumerate(increments):
        push.feed(increment, at=float(at))
        push.drain(float(at) + 1.0)
    push.drain(1e9)
    assert push.work_exhausted
    additions = sum(  # nothing purges here: every (profile, key) is live
        system.collection.block_count_of(profile.pid) for profile in small_dblp_acm.profiles
    )
    assert 0 < strategy.refill.examined <= additions
    assert strategy.refill.scan_would_examine > 10 * additions


@pytest.mark.parametrize("strategy_cls", [IPCS, IPES])
def test_no_block_pair_is_enumerated_twice(strategy_cls, small_dblp_acm):
    """On a slow stream idle refills revisit blocks while they still grow;
    at exhaustion the pairs scanned stay within the pairs the blocks hold."""
    system = PierSystem(strategy_cls(), clean_clean=True, max_block_size=None)
    plan = make_stream_plan(split_into_increments(small_dblp_acm, 40, seed=1), rate=2.0)
    engine = StreamingEngine(JaccardMatcher(0.4), budget=1e9)
    result = engine.run(system, plan, small_dblp_acm.ground_truth)
    assert result.work_exhausted
    counters = result.details["metrics"]["counters"]
    # Blocks were revisited (else the bound below would hold trivially) ...
    drainable = sum(1 for block in system.collection if len(block) >= 2)
    assert counters["strategy.refill_batches"] > drainable
    # ... and every revisit paid for its new members only.
    assert 0 < counters["strategy.refill_pairs_scanned"] <= system.collection.total_comparisons()


_HASHSEED_SCRIPT = """
from repro.api import ERSession
from repro.datasets.registry import load_dataset
from repro.resilience import ResilienceConfig
from repro.service.protocol import result_fingerprint


def plain(value):
    # Checkpoint state as nested builtins, container order kept: dict order
    # drives I-PES's reseed and list order is the heap layout.  Sets carry
    # no order, so they are sorted.
    if isinstance(value, dict):
        return [(plain(key), plain(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(plain(item) for item in value)
    slots = [name for cls in type(value).__mro__ for name in getattr(cls, "__slots__", ())]
    if slots:
        return [(name, plain(getattr(value, name))) for name in slots]
    return value


dataset = load_dataset("dblp_acm", scale=0.1)
for system in ("I-PCS", "I-PES"):
    # Arrivals faster than the idle refills drain what grew, so the
    # checkpoint cuts fall where the refill heap still holds blocks.
    # Idle fills run to K, so they empty the heap sooner: on 20 larger
    # increments I-PCS's last cut still finds one (I-PES's does not).
    with ERSession(
        dataset, systems=(system,), matcher="JS", n_increments=20, rate=200.0,
        budget=1e9, resilience=ResilienceConfig(checkpoint_every=0.01),
    ) as session:
        result = session.run()
    strategy = session.last_checkpoint.system_state["strategy"]
    print(system, result_fingerprint(result))
    print("heap-entries", len(strategy["refill"]["heap"]))
    print(result.details["metrics"]["rounds"])
    print(plain(strategy))
"""


class TestHashSeedStability:
    """The growth feed is a set of strings: neither the run nor the heap
    layout a checkpoint carries may depend on how the interpreter orders it."""

    @staticmethod
    def _run_under_seed(seed: str) -> str:
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

    def test_runs_and_checkpoints_identical_across_hash_seeds(self):
        out_a = self._run_under_seed("0")
        out_b = self._run_under_seed("31337")
        assert out_a == out_b
        heaps = [
            int(line.split()[1]) for line in out_a.splitlines() if line.startswith("heap-entries")
        ]
        assert len(heaps) == 2 and max(heaps) > 1  # a layout was there to compare
