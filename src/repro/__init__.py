"""repro — Progressive Entity Resolution over Incremental Data.

A full Python reproduction of Gazzarri & Herschel, *Progressive Entity
Resolution over Incremental Data* (EDBT 2023): the PIER framework with its
three prioritization strategies (I-PCS, I-PBS, I-PES), the baselines it is
evaluated against (PPS, PBS, their GLOBAL/LOCAL stream adaptations, I-BASE,
plain batch ER), all supporting substrates (schema-agnostic token blocking,
block ghosting, meta-blocking weighting schemes, I-WNP, bounded
priority queues, adaptive budget control), a deterministic
virtual-time streaming engine, synthetic analogues of the paper's four
benchmark datasets, and the evaluation harness that regenerates every
figure and table of the paper's evaluation section.

Quickstart::

    from repro import load_dataset, resolve_stream

    dataset = load_dataset("dblp_acm")
    result = resolve_stream(dataset, algorithm="I-PES", matcher="JS",
                            n_increments=50, rate=5.0, budget=60.0)
    print(result.final_pc, len(result.duplicates))
"""

from __future__ import annotations

from repro.core import (
    Attribute,
    Dataset,
    ERKind,
    EntityProfile,
    GroundTruth,
    Increment,
    StreamPlan,
    make_stream_plan,
    split_into_increments,
)
from repro.datasets import available_datasets, load_dataset
from repro.evaluation import ExperimentConfig

# Imported after ``repro.evaluation``: resolving ``ExecutionCore`` pulls in
# ``repro.execution.core``, which reaches back into the evaluation and
# streaming packages — those must already be fully initialized.
from repro.execution import ComparisonStore, ExecutionCore
from repro.incremental import IBaseSystem
from repro.matching import EditDistanceMatcher, JaccardMatcher, Matcher
from repro.observability import MetricsRegistry
from repro.pier import IPBS, IPCS, IPES, PierSystem
from repro.progressive import BatchERSystem, PBSSystem, PPSSystem
from repro.resilience import EngineCheckpoint, ResilienceConfig
from repro.streaming import RunResult, StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine

# The session facade composes everything above, so it imports last.
from repro.api import ERSession, EngineOptions
from repro.parallel import WorkerPool, WorkerPoolError, strip_parallel_telemetry

__version__ = "1.0.0"

__all__ = [
    "Attribute",
    "BatchERSystem",
    "Dataset",
    "ERKind",
    "ERSession",
    "EditDistanceMatcher",
    "EngineCheckpoint",
    "EngineOptions",
    "EntityProfile",
    "ExperimentConfig",
    "GroundTruth",
    "IBaseSystem",
    "IPBS",
    "IPCS",
    "IPES",
    "Increment",
    "JaccardMatcher",
    "Matcher",
    "MetricsRegistry",
    "PBSSystem",
    "PPSSystem",
    "PierSystem",
    "ComparisonStore",
    "ExecutionCore",
    "PipelinedStreamingEngine",
    "ResilienceConfig",
    "RunResult",
    "StreamPlan",
    "StreamingEngine",
    "WorkerPool",
    "WorkerPoolError",
    "strip_parallel_telemetry",
    "available_datasets",
    "load_dataset",
    "make_stream_plan",
    "resolve_stream",
    "split_into_increments",
]


def resolve_stream(
    dataset: Dataset,
    algorithm: str = "I-PES",
    matcher: str = "JS",
    n_increments: int = 100,
    rate: float | None = None,
    budget: float = 300.0,
    seed: int = 0,
    workers: int = 1,
) -> RunResult:
    """One-call progressive incremental ER over a dataset.

    Splits ``dataset`` into ``n_increments`` increments arriving at ``rate``
    ΔD per virtual second (``None`` = all available upfront), runs
    ``algorithm`` with the ``matcher`` configuration under a virtual time
    ``budget``, and returns the run result with its PC progress curve and
    the duplicate set found.  ``workers > 1`` shards matcher evaluation
    across a process pool with bit-identical results.

    Thin wrapper over :class:`repro.api.ERSession` — batch baselines
    (PPS/PBS/BATCH/…-PSN) in the static setting therefore receive the full
    dataset as one increment, as the paper runs them.
    """
    with ERSession(
        dataset,
        systems=(algorithm,),
        matcher=matcher,
        n_increments=n_increments,
        rate=rate,
        budget=budget,
        seed=seed,
        workers=workers,
    ) as session:
        return session.run()
