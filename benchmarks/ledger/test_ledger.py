"""Smoke tests of the ledger itself (run explicitly, not in tier-1):

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.ledger import harness, spec
from benchmarks.ledger.compare import verdict
from benchmarks.ledger.layers import span_layers
from benchmarks.ledger.tracing import Tracer, malformed, read_spans, summarize

#: Options and shims slated for deletion: the harness must not lean on them.
RETIRED_NAMES = (
    "per_pair_" + "weighting", "scalar_" + "matching", "ed_" + "kernel", "min_" + "shard",
    "reply_timeout", "handshake_timeout", "max_" + "respawns", "lsh",
    "make_" + "matcher", "make_" + "system", "run_" + "experiment",
)


@pytest.fixture(scope="module")
def tiny_suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "BENCH_ledger.json"
    started = time.monotonic()
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", "--tiny", "--repeats", "1",
         "--seed", "3", "--out", str(out)],
        cwd=spec.ROOT, env=harness.child_env(), capture_output=True, text=True,
    )
    elapsed = time.monotonic() - started
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return completed.stdout, json.loads(out.read_text()), elapsed


def test_every_workload_runs_quickly_and_correctly(tiny_suite):
    _, ledger, elapsed = tiny_suite
    assert elapsed < 30.0
    assert list(ledger["workloads"]) == [w["name"] for w in spec.contract()["workloads"]]
    assert ledger["correct"]


def test_every_contract_metric_is_printed_with_its_unit(tiny_suite):
    stdout, ledger, _ = tiny_suite
    contract = spec.contract()
    for metric in contract["end_to_end"] + contract["per_layer"]:
        pattern = rf"^\s+{re.escape(metric['name'])}\s+\S+\s+{re.escape(metric['unit'])}(\s|$)"
        assert re.search(pattern, stdout, re.MULTILINE), metric["name"]
    for section in ledger["workloads"].values():
        assert section["per_layer"]["execution.self_pct"]["value"] is not None
        for metric in contract["end_to_end"]:
            assert section["end_to_end"][metric["name"]]["value"]


def test_span_files_are_well_formed(tiny_suite):
    for name in spec.WORKLOADS:
        records = read_spans(spec.RESULTS_DIR / f"trace_{name}.jsonl")
        assert records and malformed(records) == []
        assert {"run", "id", "parent", "name", "start", "end", "n"} <= set(records[0])


class _System:
    def ingest(self):
        time.sleep(0.002)

    def emit(self):
        time.sleep(0.002)
        return ()


def test_a_removed_entry_point_degrades_to_null():
    tracer = Tracer("test/run")
    system = _System()  # has no on_idle any more
    tracer.instrument(
        system,
        {"ingest": ("pier.ingest", None), "emit": ("pier.emit", None),
         "on_idle": ("pier.idle", None)},
    )
    with tracer.span("run"):
        system.ingest()
        system.emit()
        time.sleep(0.002)  # what the missing entry point used to cover
    counters = dict.fromkeys(
        ("parallel.rounds_sharded", "parallel.pairs_sharded", "parallel.shm_bytes",
         "parallel.fallbacks", "parallel.supervision.evictions", "engine.emission_rounds",
         "engine.comparisons_cut_by_deadline", "engine.quarantined_pairs",
         "engine.shed_increments"), 0,
    )
    records = tracer.records()
    assert malformed(records) == []
    layers = span_layers(summarize(records), tracer.missing, counters, {}, [])
    assert layers["pier.idle_s"] is None and layers["pier.idle_calls"] is None
    assert layers["pier.ingest_s"] >= 0.002
    assert layers["execution.self_s"] >= 0.002


def test_harness_sources_avoid_retired_options():
    for path in sorted(spec.LEDGER_DIR.glob("*.py")):
        if path.name == Path(__file__).name:
            continue
        source = path.read_text()
        for name in RETIRED_NAMES:
            assert name not in source, f"{path.name} mentions {name}"


def _entry(values):
    ordered = sorted(values)
    return {"value": ordered[len(ordered) // 2], "values": values}


def test_compare_verdicts():
    higher = spec.Metric("profiles_per_s", "1/s", "higher", 0.10)
    base = _entry([100.0, 101.0, 99.0])
    assert verdict(higher, base, _entry([100.5, 101.5, 99.5]), False) == "same"
    assert verdict(higher, base, _entry([80.0, 81.0, 79.0]), False) == "worse"
    assert verdict(higher, base, _entry([120.0, 121.0, 119.0]), False) == "better"
    assert verdict(higher, base, _entry([60.0, 100.0, 140.0]), False) == "unresolved"
    assert verdict(higher, base, _entry([100.0, 101.0, 99.0]), True) == "unresolved"
    exact = spec.Metric("failed_ops_pct", "%", "lower", 0.0, "abs")
    assert verdict(exact, _entry([0.0, 0.0]), _entry([0.5, 0.5]), False) == "worse"
