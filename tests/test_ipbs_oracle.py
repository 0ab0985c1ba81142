"""I-PBS's block runs against the pair queue they replaced.

``IPBS`` keeps one run per processed block and, in idle time, processes
blocks until the runs hold ``K`` pairs.  ``tests/reference/ipbs_pair_queue.py``
is Alg. 3 as it was implemented before: one global pair queue keyed
``(block size, -weight, seq)``, refilled one block per idle call.  On a
static plan the two must emit the same ``(pid, pid)`` sequence pair for
pair, in many fewer rounds, on the serial engine, which ingests a static
plan before its first round.  Where ingests and rounds interleave (a
streamed plan, or any plan on the pipelined engine) a fill may run ahead of
an arrival and change the order, but run to exhaustion both must execute
the same pairs.
"""

from __future__ import annotations

import pytest

from repro.core.increments import make_stream_plan, split_into_increments
from repro.datasets.registry import load_dataset
from repro.pier.base import PierSystem
from repro.pier.ipbs import IPBS
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine

from tests.conftest import build_matcher
from tests.reference.blocking_graph import co_block_pairs
from tests.reference.ipbs_pair_queue import PairQueueIPBS

#: (dataset, scale, Clean-Clean?): census_2m is the ``blocks_js`` ledger
#: workload's dataset (Dirty ER), at the ledger's smoke-test scale.
DATASETS = {
    "clean-clean": ("dblp_acm", 0.1, True),
    "dirty": ("census_2m", 0.1, False),
}
ENGINES = {"serial": StreamingEngine, "pipelined": PipelinedStreamingEngine}


def _run(strategy, dataset, plan, clean_clean, matcher="JS", engine="serial", **system):
    """Run to exhaustion; the pairs the strategy handed out, in order."""
    emitted: list[tuple[int, int]] = []
    dequeue_batch = strategy.dequeue_batch

    def recording(count, executed):
        batch, stale = dequeue_batch(count, executed)
        emitted.extend(batch)
        return batch, stale

    strategy.dequeue_batch = recording
    pier = PierSystem(strategy, clean_clean=clean_clean, **system)
    result = ENGINES[engine](build_matcher(matcher), budget=1e9).run(
        pier, plan, dataset.ground_truth
    )
    assert result.work_exhausted
    return emitted, result, pier


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(DATASETS))
def test_static_plan_emits_the_pair_queue_sequence(kind, seed):
    """The ``blocks_js`` shape (50 increments, ``rate=None``, JS): the same
    pairs in the same order, the same strategy counters, fewer rounds."""
    name, scale, clean_clean = DATASETS[kind]
    dataset = load_dataset(name, scale, seed)
    plan = make_stream_plan(split_into_increments(dataset, 50, seed=seed), rate=None)
    emitted, result, _ = _run(IPBS(), dataset, plan, clean_clean)
    expected, oracle, _ = _run(PairQueueIPBS(), dataset, plan, clean_clean)
    assert emitted == expected
    assert len(emitted) == len(set(emitted)) == result.comparisons_executed > 1000
    assert result.duplicates == oracle.duplicates
    counters = result.details["metrics"]["counters"]
    oracle_counters = oracle.details["metrics"]["counters"]
    strategy = {key: value for key, value in counters.items() if key.startswith("strategy.")}
    assert strategy == {
        key: value for key, value in oracle_counters.items() if key.startswith("strategy.")
    }
    assert counters["engine.emission_rounds"] * 5 < oracle_counters["engine.emission_rounds"]


@pytest.mark.parametrize("rate", [None, 5.0], ids=["static", "streamed"])
@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("kind", sorted(DATASETS))
def test_interleaved_plan_executes_the_pair_queue_set(kind, engine, rate):
    """ED at 5 increments/s leaves idle gaps a fill stops short of, and the
    pipelined engine runs rounds while it ingests: the order may move, the
    executed pairs do not — all of the blocking graph (nothing purged),
    each once."""
    name, scale, clean_clean = DATASETS[kind]
    dataset = load_dataset(name, scale, 1)
    plan = make_stream_plan(split_into_increments(dataset, 20, seed=1), rate=rate)
    runs = [
        _run(strategy, dataset, plan, clean_clean, "ED", engine, max_block_size=None)
        for strategy in (IPBS(), PairQueueIPBS())
    ]
    (emitted, result, pier), (expected, oracle, _) = runs
    assert set(emitted) == set(expected) == pier.store.executed
    assert pier.store.executed == co_block_pairs(pier.collection).keys()
    assert len(emitted) == result.comparisons_executed == oracle.comparisons_executed
    assert result.duplicates == oracle.duplicates
