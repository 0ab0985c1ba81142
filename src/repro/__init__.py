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

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core import Dataset
    from repro.streaming import RunResult

__version__ = "1.0.0"

#: Every export but :func:`resolve_stream`, by the module it is read from.
#: Nothing is imported until a name is first asked for (PEP 562), so a
#: process that needs one module — a worker of the fleet — loads only that.
_EXPORTS = {
    "Attribute": "repro.core",
    "BatchERSystem": "repro.progressive",
    "Dataset": "repro.core",
    "ERKind": "repro.core",
    "ERSession": "repro.api",
    "EditDistanceMatcher": "repro.matching",
    "EngineCheckpoint": "repro.resilience",
    "EngineOptions": "repro.api",
    "EntityProfile": "repro.core",
    "ExperimentConfig": "repro.evaluation",
    "GroundTruth": "repro.core",
    "IBaseSystem": "repro.incremental",
    "IPBS": "repro.pier",
    "IPCS": "repro.pier",
    "IPES": "repro.pier",
    "Increment": "repro.core",
    "JaccardMatcher": "repro.matching",
    "Matcher": "repro.matching",
    "MetricsRegistry": "repro.observability",
    "PBSSystem": "repro.progressive",
    "PPSSystem": "repro.progressive",
    "PierSystem": "repro.pier",
    "ComparisonStore": "repro.execution",
    "ExecutionCore": "repro.execution",
    "PipelinedStreamingEngine": "repro.streaming.pipelined",
    "ResilienceConfig": "repro.resilience",
    "RunResult": "repro.streaming",
    "StreamPlan": "repro.core",
    "StreamingEngine": "repro.streaming",
    "WorkerPool": "repro.parallel",
    "WorkerPoolError": "repro.parallel",
    "strip_parallel_telemetry": "repro.parallel",
    "available_datasets": "repro.datasets",
    "load_dataset": "repro.datasets",
    "make_stream_plan": "repro.core",
    "split_into_increments": "repro.core",
}

__all__ = [*_EXPORTS, "resolve_stream"]


def _lazy_exports(namespace: dict, exports: dict[str, str]):
    """``__getattr__`` and ``__dir__`` for the package whose globals are
    ``namespace``: ``exports`` maps each name to the module it is read from,
    and a name, once read, stays in the package."""

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)


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
    from repro.api import ERSession

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
