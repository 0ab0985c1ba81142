"""What the ledger runs and what it reports.

Metric names, units, directions and the driver's bounds live in
``BENCHMARK.json``; this module adds what that file cannot hold: the frozen
workload sizes and the same-seed bounds ``--compare`` gates on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
RESULTS_DIR = LEDGER_DIR / "results"
BASELINE = LEDGER_DIR / "BENCH_ledger.json"

#: Constants, not ``nproc``-derived, so numbers compare across hosts.
FLEET_WORKERS = 2
SERVICE_CLIENTS = 2
N_INCREMENTS = 50
#: Effectively unbounded virtual budget: every run goes to work exhaustion,
#: so wall time measures the program and not the virtual clock.
BUDGET = 1e9
POLL_EVERY = 10
PING_SAMPLES = 200


@dataclass(frozen=True, slots=True)
class Tenant:
    name: str
    system: str
    matcher: str


@dataclass(frozen=True, slots=True)
class Workload:
    """One frozen input shape.  ``tiny_scale`` is the smoke-test size."""

    name: str
    dataset: str
    scale: float
    system: str = ""
    matcher: str = ""
    rate: float | None = None
    workers: int = 1
    tenants: tuple[Tenant, ...] = ()
    ingests: int = 0
    tiny_scale: float = 0.1
    tiny_ingests: int = 20
    #: The workload whose duplicates and comparison count this one must equal.
    same_output_as: str | None = None

    @property
    def is_service(self) -> bool:
        return bool(self.tenants)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("stream_js", "dblp_acm", 0.7, "I-PES", "JS", rate=1.0),
        Workload("stream_ed", "dblp_acm", 0.6, "I-PES", "ED", rate=20.0),
        Workload(
            "fleet_ed", "dblp_acm", 0.6, "I-PES", "ED", rate=20.0,
            workers=FLEET_WORKERS, same_output_as="stream_ed",
        ),
        Workload("blocks_js", "census_2m", 0.4, "I-PBS", "JS", rate=None),
        Workload(
            "service_mix", "dblp_acm", 0.3,
            tenants=(Tenant("t0", "I-PCS", "JS"), Tenant("t1", "I-PES", "ED")),
            ingests=200,
        ),
    )
}

#: What ``--compare`` gates on: (bound, kind, workloads the metric is defined
#: on).  Two ledger files of one seed differ only by host noise — the
#: deterministic metrics repeat exactly — so these same-seed bounds (the
#: issue's) are tighter than the across-seed ones ``BENCHMARK.json`` gives
#: the driver, which compares medians over ten different seeds.
LEDGER_BOUNDS: dict[str, tuple[float, str, tuple[str, ...] | None]] = {
    "setup_s": (0.10, "rel", None),
    "profiles_per_s": (0.10, "rel", None),
    "recall_final": (0.001, "abs", None),
    "cmp_to_pc90": (0.02, "rel", None),
    "peak_rss_mb": (0.05, "rel", None),
    "failed_ops_pct": (0.0, "abs", None),
    "ingest_p50_ms": (0.10, "rel", ("service_mix",)),
    "ingest_p99_ms": (0.15, "rel", ("service_mix",)),
}

#: End-to-end metrics that ``BENCHMARK.json`` lists under ``per_layer``,
#: because the driver requires every end-to-end metric to exist and be
#: non-zero on every workload.
LISTED_PER_LAYER = ("failed_ops_pct", "ingest_p50_ms", "ingest_p99_ms")

#: Metrics whose value is a wall-clock reading (``--compare`` marks them
#: unresolved when the two hosts' calibrations differ).
WALL_METRICS = frozenset(
    {"setup_s", "profiles_per_s", "ingest_p50_ms", "ingest_p99_ms"}
)


@dataclass(frozen=True, slots=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None
    bound_kind: str = "rel"
    workloads: tuple[str, ...] | None = None

    def applies_to(self, workload: str) -> bool:
        return self.workloads is None or workload in self.workloads


@lru_cache(maxsize=1)
def contract() -> dict:
    """``BENCHMARK.json`` as a dict (read once per process)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end_metrics() -> list[Metric]:
    """The ledger's end-to-end metrics: units from the contract, bounds from here."""
    spec = contract()
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    return [
        Metric(name, declared[name]["unit"], declared[name]["better"], bound, kind, workloads)
        for name, (bound, kind, workloads) in LEDGER_BOUNDS.items()
    ]


def per_layer_metrics() -> list[Metric]:
    """Layer metrics proper (the contract's ``per_layer`` minus the end-to-end three)."""
    return [
        Metric(m["name"], m["unit"], m["better"])
        for m in contract()["per_layer"]
        if m["name"] not in LISTED_PER_LAYER
    ]
