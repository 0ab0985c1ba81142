"""The unified execution layer: one virtual-clock core, two engine policies.

This package hosts the machinery shared by every engine:

* :class:`~repro.execution.core.ExecutionCore` — the virtual-clock loop:
  arrival ingestion, budget clamping, load shedding,
  exactly-once dedup, checkpoint cadence, metrics binding, and the
  batched comparison-execution kernel.  The serial
  :class:`~repro.streaming.engine.StreamingEngine` and the two-clock
  :class:`~repro.streaming.pipelined.PipelinedStreamingEngine` are thin
  clock policies over it.
* :class:`~repro.execution.store.ComparisonStore` — the per-system
  registry of executed comparisons shared by all prioritization
  strategies.

See ``docs/architecture.md`` for the layer map.

The core is re-exported lazily: ``repro.execution.core`` depends on
``repro.streaming.system``, which itself imports the store from this
package, so an eager import here would close an import cycle.
"""

__all__ = [
    "ComparisonStore",
    "ExecutionCore",
    "RunResult",
    "RunState",
    "PRESEEDED_COUNTERS",
    "PRESEEDED_PHASES",
]

from repro.execution.store import ComparisonStore

_CORE_NAMES = ("ExecutionCore", "RunResult", "RunState", "PRESEEDED_COUNTERS", "PRESEEDED_PHASES")


def __getattr__(name: str):
    if name in _CORE_NAMES:
        from repro.execution import core

        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
