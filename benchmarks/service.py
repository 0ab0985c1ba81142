"""Service saturation benchmark: ``python -m benchmarks.service``.

Boots a real :class:`repro.service.ERServer` on a localhost socket and
drives it the way the ROADMAP's production service would be driven:

* **Saturation** — N concurrent tenants (default 8; CI runs ``--tenants 3``),
  each on its own connection and its own thread, sustain a fixed increment
  rate through the full push surface (``open``/``ingest``/``drain``/
  ``results``).  Wall-clock p50/p99 per-ingest latency and per-tenant
  ingest-to-first-match latency are recorded (reported, never gated — wall
  time is host-dependent).  What *is* asserted, per tenant: the service
  result fingerprint is **bit-identical** to replaying the tenant's
  accepted op log through a standalone in-process session.
* **Overload** — a second server with a deliberately tiny op queue takes a
  pipelined ingest burst at 2x the saturation volume.  The gate is the
  resilience contract: requests are *shed* (``error: "shed"``), the server
  never crashes, and the surviving accepted subset still replays
  bit-identically.

The baseline ``benchmarks/BENCH_service.json`` is schema-gated like
``BENCH_smoke.json``: counter names, per-tenant fields or section keys that
appear or disappear must be acknowledged with ``--update``.  Values are not
byte-gated (the file embeds wall latencies and timing-dependent shed
counts), so the baseline is only rewritten on ``--update``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import queue
import random
import sys
import threading
import time
from pathlib import Path
from typing import Sequence

from repro.core.profile import EntityProfile
from repro.service import (
    ERServer,
    ServiceClient,
    TenantConfig,
    TenantSession,
    result_fingerprint,
)

BENCH_SCHEMA_VERSION = 1
DEFAULT_BASELINE = Path(__file__).parent / "BENCH_service.json"

CONFIG = {
    "tenants": 8,
    # Tenants cycle through the three PIER strategies — genuinely
    # heterogeneous workloads multiplexed onto one server.
    "systems": ["I-PES", "I-PCS", "I-PBS"],
    "matcher": "JS",
    "entities_per_tenant": 30,
    "duplicate_rate": 0.5,
    "batch_size": 5,
    # One batch every 2 virtual seconds; budget leaves room to finish.
    "virtual_interval": 2.0,
    "budget": 60.0,
    "seed": 7,
    "overload": {
        "queue_limit": 2,
        # 2x the saturation ingest volume, pipelined against the tiny queue.
        "factor": 2,
    },
}

FIRST = ("ada", "grace", "alan", "edsger", "barbara", "donald", "tony", "john")
LAST = ("lovelace", "hopper", "turing", "dijkstra", "liskov", "knuth", "hoare")
CITY = ("london", "zurich", "pittsburgh", "austin", "cambridge", "eindhoven")


def tenant_workload(index: int) -> list[list[EntityProfile]]:
    """Deterministic dirty-ER batches for tenant ``index``.

    Each entity yields one profile; with probability ``duplicate_rate`` a
    near-duplicate (one attribute perturbed, so token Jaccard stays well
    above the JS threshold) rides along later in the stream.
    """
    rng = random.Random(CONFIG["seed"] * 1000 + index)
    profiles: list[EntityProfile] = []
    pid = 0
    for _ in range(CONFIG["entities_per_tenant"]):
        attributes = {
            "name": f"{rng.choice(FIRST)} {rng.choice(LAST)}",
            "city": rng.choice(CITY),
            "dept": f"dept{rng.randint(1, 4)}",
        }
        profiles.append(EntityProfile(pid, attributes))
        pid += 1
        if rng.random() < CONFIG["duplicate_rate"]:
            duplicate = dict(attributes)
            duplicate["dept"] = f"dept{rng.randint(5, 9)}"
            profiles.append(EntityProfile(pid, duplicate))
            pid += 1
    rng.shuffle(profiles)
    size = CONFIG["batch_size"]
    return [profiles[start : start + size] for start in range(0, len(profiles), size)]


# ----------------------------------------------------------------------
# An in-process server on a real localhost socket
# ----------------------------------------------------------------------
class ServerThread:
    """Run an :class:`ERServer` event loop in a daemon thread.

    Exceptions that escape to the loop's exception handler are recorded;
    any one of them fails the run on exit.
    """

    def __init__(self, **kwargs: object) -> None:
        self._kwargs = kwargs
        self._port_queue: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.loop_errors: list[dict] = []

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        ready = self._port_queue.get(timeout=30)
        if isinstance(ready, BaseException):
            raise ready
        self.port = ready
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._thread.join(timeout=60)
        if self._thread.is_alive():
            raise RuntimeError("server thread did not stop (no clean shutdown)")
        if self.loop_errors:
            raise RuntimeError(f"exceptions escaped to the server loop: {self.loop_errors}")

    def _run(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # surface startup failures to the caller
            self._port_queue.put(exc)

    async def _serve(self) -> None:
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: self.loop_errors.append(context)
        )
        async with ERServer(**self._kwargs) as server:
            self._port_queue.put(server.port)
            await server.serve_until_stopped()


# ----------------------------------------------------------------------
# Phase 1: saturation
# ----------------------------------------------------------------------
def drive_tenant(
    port: int,
    index: int,
    barrier: threading.Barrier,
    out: dict,
    errors: list,
) -> None:
    tenant_id = f"t{index}"
    system = CONFIG["systems"][index % len(CONFIG["systems"])]
    batches = tenant_workload(index)
    try:
        with ServiceClient("127.0.0.1", port) as client:
            client.open(
                tenant_id,
                system=system,
                matcher=CONFIG["matcher"],
                budget=CONFIG["budget"],
            )
            # All tenants are open before any ingests: the stats probe in
            # the main thread observes them concurrently active.
            barrier.wait(timeout=30)
            barrier.wait(timeout=30)

            accepted: list[tuple[float, list[EntityProfile]]] = []
            latencies: list[float] = []
            first_send = first_match = None
            for i, batch in enumerate(batches):
                at = i * CONFIG["virtual_interval"]
                sent = time.perf_counter()
                if first_send is None:
                    first_send = sent
                reply = client.ingest(tenant_id, batch, at=at)
                now = time.perf_counter()
                latencies.append(now - sent)
                accepted.append((reply["at"], batch))
                if first_match is None and reply["matches"] > 0:
                    first_match = now - first_send
            client.drain(tenant_id, CONFIG["budget"])
            reply = client.results(tenant_id)
            client.close_tenant(tenant_id)

        # The determinism contract: replaying the accepted op log through a
        # standalone session must reproduce the service result bit-for-bit.
        replay = TenantSession(
            TenantConfig(
                tenant_id=tenant_id,
                system=system,
                matcher=CONFIG["matcher"],
                budget=CONFIG["budget"],
            )
        )
        for at, batch in accepted:
            replay.ingest(batch, at=at)
        replay.drain(CONFIG["budget"])
        standalone = result_fingerprint(replay.results())
        replay.close()

        out[index] = {
            "tenant": tenant_id,
            "system": system,
            "ingests": len(accepted),
            "profiles": sum(len(batch) for _, batch in accepted),
            "matches": len(reply["result"]["matches"]),
            "comparisons": reply["result"]["comparisons_executed"],
            "clock_end": reply["result"]["clock_end"],
            "fingerprint": reply["fingerprint"],
            "bit_identical": reply["fingerprint"] == standalone,
            "ingest_wall_s": latencies,
            "first_match_wall_s": first_match,
        }
    except Exception as exc:
        errors.append((tenant_id, exc))
        barrier.abort()


def run_saturation(n_tenants: int) -> dict:
    out: dict[int, dict] = {}
    errors: list = []
    with ServerThread(max_tenants=n_tenants) as server:
        barrier = threading.Barrier(n_tenants + 1)
        threads = [
            threading.Thread(
                target=drive_tenant, args=(server.port, i, barrier, out, errors)
            )
            for i in range(n_tenants)
        ]
        for thread in threads:
            thread.start()
        with ServiceClient("127.0.0.1", server.port) as probe:
            barrier.wait(timeout=30)  # every tenant is open
            stats = probe.stats()
            concurrent = len(stats["tenants"])
            barrier.wait(timeout=30)  # release the ingest storm
            for thread in threads:
                thread.join(timeout=300)
            counters = probe.stats()["metrics"]["counters"]
            probe.shutdown()
    if errors:
        tenant_id, exc = errors[0]
        raise RuntimeError(f"tenant {tenant_id} failed: {exc!r}") from exc
    return {
        "tenants": [out[i] for i in sorted(out)],
        "concurrent_tenants": concurrent,
        "all_bit_identical": all(entry["bit_identical"] for entry in out.values()),
        "service_counters": {
            name: value
            for name, value in sorted(counters.items())
            if name.startswith("service.")
        },
    }


# ----------------------------------------------------------------------
# Phase 2: 2x overload against a tiny queue
# ----------------------------------------------------------------------
def run_overload() -> dict:
    tenant_id = "storm"
    batches = tenant_workload(0)
    sends = CONFIG["overload"]["factor"] * len(batches)
    with ServerThread(queue_limit=CONFIG["overload"]["queue_limit"]) as server:
        with ServiceClient("127.0.0.1", server.port) as client:
            client.open(
                tenant_id,
                system="I-PES",
                matcher=CONFIG["matcher"],
                budget=CONFIG["budget"],
            )
            # Pipelined burst: every request is written before any reply is
            # read, so the tenant queue fills while the first ingest is
            # still draining — a call-response loop would self-throttle and
            # never observe shedding.
            pending = []
            for i in range(sends):
                batch = batches[i % len(batches)]
                at = i * CONFIG["virtual_interval"] / CONFIG["overload"]["factor"]
                pending.append((client.send_ingest(tenant_id, batch, at=at), batch))
            accepted: list[tuple[float, list[EntityProfile]]] = []
            shed = 0
            for request_id, batch in pending:
                reply = client.wait(request_id, check=False)
                if reply.get("ok"):
                    accepted.append((reply["at"], batch))
                elif reply.get("error") == "shed":
                    shed += 1
                else:
                    raise RuntimeError(f"unexpected overload reply: {reply}")
            # The server survived: it still answers, drains, finalizes.
            survived = client.ping().get("ok", False)
            client.drain(tenant_id, CONFIG["budget"])
            reply = client.results(tenant_id)
            client.shutdown()

    replay = TenantSession(
        TenantConfig(
            tenant_id=tenant_id,
            system="I-PES",
            matcher=CONFIG["matcher"],
            budget=CONFIG["budget"],
        )
    )
    for at, batch in accepted:
        replay.ingest(batch, at=at)
    replay.drain(CONFIG["budget"])
    standalone = result_fingerprint(replay.results())
    replay.close()

    return {
        "sent": sends,
        "accepted": len(accepted),
        "shed": shed,
        "shed_occurred": shed > 0,
        "server_survived": survived,
        "fingerprint": reply["fingerprint"],
        "replay_bit_identical": reply["fingerprint"] == standalone,
    }


# ----------------------------------------------------------------------
# Assembly + schema gate (same mechanics as benchmarks.smoke)
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float | None:
    ordered = sorted(values)
    if not ordered:
        return None
    rank = max(0, min(len(ordered) - 1, math.ceil(q / 100 * len(ordered)) - 1))
    return ordered[rank]


def build_snapshot(n_tenants: int) -> dict:
    saturation = run_saturation(n_tenants)
    overload = run_overload()
    ingest_latencies = [
        value for entry in saturation["tenants"] for value in entry["ingest_wall_s"]
    ]
    latency = {
        "ingest_p50_s": percentile(ingest_latencies, 50),
        "ingest_p99_s": percentile(ingest_latencies, 99),
        "samples": len(ingest_latencies),
    }
    for entry in saturation["tenants"]:
        del entry["ingest_wall_s"]
    config = dict(CONFIG)
    config["tenants"] = n_tenants
    return {
        "bench_schema_version": BENCH_SCHEMA_VERSION,
        "config": config,
        "saturation": saturation,
        "overload": overload,
        "latency_wall_s": latency,
    }


def check_invariants(payload: dict, n_tenants: int) -> list[str]:
    """The hard gates — failures here are bugs, not schema drift."""
    problems: list[str] = []
    saturation = payload["saturation"]
    if saturation["concurrent_tenants"] < n_tenants:
        problems.append(
            f"only {saturation['concurrent_tenants']}/{n_tenants} tenants "
            "were concurrently active"
        )
    for entry in saturation["tenants"]:
        if not entry["bit_identical"]:
            problems.append(
                f"tenant {entry['tenant']}: service fingerprint diverged "
                "from the standalone replay"
            )
        if entry["matches"] == 0:
            problems.append(f"tenant {entry['tenant']}: produced no matches")
    overload = payload["overload"]
    if not overload["shed_occurred"]:
        problems.append("overload burst was never shed (queue never filled)")
    if not overload["server_survived"]:
        problems.append("server stopped answering under overload")
    if not overload["replay_bit_identical"]:
        problems.append("overload tenant: accepted-log replay diverged")
    if overload["accepted"] + overload["shed"] != overload["sent"]:
        problems.append("overload accounting: accepted + shed != sent")
    return problems


def schema_paths(obj: object, prefix: str = "") -> set[str]:
    """Flattened key paths describing the *structure* of a payload."""
    paths: set[str] = set()
    if isinstance(obj, dict):
        for key, value in obj.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            paths.add(path)
            paths |= schema_paths(value, path)
    elif isinstance(obj, list):
        for value in obj:
            paths |= schema_paths(value, f"{prefix}[]")
    return paths


def diff_schema(baseline: dict, current: dict) -> tuple[set[str], set[str]]:
    old = schema_paths(baseline)
    new = schema_paths(current)
    return old - new, new - old


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.service",
        description="multi-tenant service saturation run with bit-identity gates",
    )
    parser.add_argument(
        "--tenants", type=int, default=CONFIG["tenants"],
        help=f"concurrent tenants to sustain (default: {CONFIG['tenants']})",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_BASELINE,
        help="baseline path (default: benchmarks/BENCH_service.json)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="accept schema drift and rewrite the baseline",
    )
    args = parser.parse_args(argv)
    if args.tenants < 1:
        parser.error("--tenants must be >= 1")

    payload = build_snapshot(args.tenants)

    saturation = payload["saturation"]
    for entry in saturation["tenants"]:
        first = entry["first_match_wall_s"]
        print(
            f"{entry['tenant']} [{entry['system']}]: "
            f"{entry['ingests']} ingests, {entry['matches']} matches, "
            f"{entry['comparisons']} comparisons, "
            f"bit_identical={entry['bit_identical']}, "
            f"first_match={'n/a' if first is None else f'{first * 1000:.1f}ms'}"
        )
    latency = payload["latency_wall_s"]
    print(
        f"ingest latency over {latency['samples']} samples: "
        f"p50={latency['ingest_p50_s'] * 1000:.1f}ms "
        f"p99={latency['ingest_p99_s'] * 1000:.1f}ms"
    )
    overload = payload["overload"]
    print(
        f"overload: sent={overload['sent']} accepted={overload['accepted']} "
        f"shed={overload['shed']} survived={overload['server_survived']} "
        f"replay_bit_identical={overload['replay_bit_identical']}"
    )

    problems = check_invariants(payload, args.tenants)
    if problems:
        print("\nservice invariants violated:")
        for problem in problems:
            print(f"  ! {problem}")
        return 1

    if args.out.exists() and not args.update:
        baseline = json.loads(args.out.read_text())
        removed, added = diff_schema(baseline, payload)
        if removed or added:
            print("\nservice-schema drift detected against", args.out)
            for path in sorted(removed):
                print(f"  - removed: {path}")
            for path in sorted(added):
                print(f"  + added:   {path}")
            print("re-run with --update to accept the new schema")
            return 1
        print(f"\nschema gate passed against {args.out}")
    elif args.update or not args.out.exists():
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
