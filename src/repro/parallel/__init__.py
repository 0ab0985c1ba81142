"""Process-parallel execution layer: the matching fleet and the cell fleet.

Two independent tiers, both configured through :class:`repro.api.ERSession`
(or ``--workers N`` on the CLI):

* **Tier A** (:mod:`repro.parallel.pool`): a :class:`WorkerPool` of worker
  processes scores hand-offs of a few thousand pairs — the emission rounds
  the master has already charged — while the master goes on prioritising,
  bit-identical to the in-process kernel (the master keeps the virtual
  clock, the store and all accounting).  Worker caches are tagged with the
  run they belong to; a worker failure re-scores the hand-off in-process
  and leaves the pool broken for good, so later hand-offs are scored
  in-process — failures change *where* pairs are scored, never *what*.
* **Tier B** (:mod:`repro.parallel.cells`): :func:`run_cells` fans the
  independent cells of a comparison out across processes with deterministic
  collation.

Determinism contract: for any worker count, every externally observable
result — comparisons, weights, PC curves, clocks, checkpoint fingerprints,
and the metrics snapshot minus the ``parallel.*`` counters/gauges and the
``scatter`` phase — is identical to ``workers=1``.
:func:`strip_parallel_telemetry` makes that contract executable.
"""

from __future__ import annotations

from repro.parallel.cells import run_cells
from repro.parallel.pool import MIN_SHARD, WorkerPool, WorkerPoolError

__all__ = [
    "MIN_SHARD",
    "WorkerPool",
    "WorkerPoolError",
    "run_cells",
    "strip_parallel_telemetry",
]

#: The phase timer that only accumulates when a pool is live.
SCATTER_PHASE = "scatter"


def strip_parallel_telemetry(snapshot: dict) -> dict:
    """A metrics snapshot minus the telemetry that varies with worker count.

    Everything a run reports is invariant across worker counts *except* the
    ``parallel.*`` counters/gauges and the ``scatter`` phase (whose counts
    and wall times describe the pool itself).  Stripping them yields the
    surface the worker-count invariance tests compare byte-for-byte.
    """
    stripped = dict(snapshot)
    for family in ("counters", "gauges"):
        if family in stripped:
            stripped[family] = {
                name: value
                for name, value in stripped[family].items()
                if not name.startswith("parallel.")
            }
    if "phases" in stripped:
        stripped["phases"] = {
            name: totals
            for name, totals in stripped["phases"].items()
            if name != SCATTER_PHASE
        }
    return stripped
