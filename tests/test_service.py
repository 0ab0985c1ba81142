"""Tests for the multi-tenant ER service (``repro.service``).

The service's load-bearing guarantee is the determinism contract: a
tenant's results depend only on its accepted operation sequence, never on
how tenants interleave on the shared fleet or on socket scheduling.
Pinned here:

* two push-mode sessions interleaved op-by-op on one shared ``WorkerPool``
  produce results *and checkpoint fingerprints* bit-identical to solo
  runs (the pool's cache-epoch re-claim in action);
* ``TenantSession`` budget admission, accepted-log replay identity, and
  snapshot/restore migration;
* the server end-to-end over a localhost socket: protocol round-trips,
  per-tenant fingerprints matching standalone replays, admission/refusal
  codes, queue-level shedding under a pipelined burst, snapshot/migrate
  across tenants, replacement of a broken fleet, tenants taking turns op
  by op on the event loop, one refusal for an over-limit line, and clean
  shutdown with no exception escaping to the loop;
* client bytes never reach an unrestricted unpickler: a snapshot travels
  in a versioned envelope and decodes through an allow-list of the classes
  snapshots of every system hold, so a crafted ``restore`` runs nothing and
  hostile or damaged bytes get one refusal on a connection that stays open.
"""

from __future__ import annotations

import asyncio
import dataclasses
import io
import os
import pickle
import queue
import select
import signal
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ERSession
from repro.blocking.blocks import BlockCollection
from repro.core.dataset import GroundTruth
from repro.core.profile import EntityProfile
from repro.datasets.registry import load_dataset
from repro.evaluation.experiments import SYSTEM_NAMES
from repro.parallel import strip_parallel_telemetry
from repro.service import (
    ERServer,
    ServiceClient,
    ServiceError,
    TenantConfig,
    TenantSession,
    TenantSnapshot,
    protocol,
    result_fingerprint,
)
from repro.service.tenant import SNAPSHOT_CLASSES, SNAPSHOT_MAGIC, SNAPSHOT_VERSION

from tests.conftest import pool_or_skip, rounds_within_work

BUDGET = 8.0


def _profile(pid: int, text: str) -> EntityProfile:
    return EntityProfile(pid, {"value": text})


def _batches() -> list[list[EntityProfile]]:
    """Three small dirty-ER batches with duplicates across batches."""
    return [
        [
            _profile(0, "alice smith springfield"),
            _profile(1, "bob jones riverton"),
        ],
        [
            _profile(2, "alice smith springfeld"),
            _profile(3, "carol white kingston"),
        ],
        [
            _profile(4, "bob jones riverton north"),
            _profile(5, "alice m smith springfield"),
        ],
    ]


def _drive_tenant(session: TenantSession) -> str:
    for i, batch in enumerate(_batches()):
        session.ingest(batch, at=float(i))
    session.drain(BUDGET)
    fingerprint = result_fingerprint(session.results())
    session.close()
    return fingerprint


# ----------------------------------------------------------------------
# Interleaved push sessions on one shared pool
# ----------------------------------------------------------------------
def _comparable(result):
    metrics = strip_parallel_telemetry(result.details["metrics"])
    metrics["phases"] = {
        phase: {key: value for key, value in totals.items() if key != "wall_s"}
        for phase, totals in metrics["phases"].items()
    }
    metrics.pop("rounds", None)
    return {
        "curve": result.curve.points,
        "duplicates": result.duplicates,
        "comparisons_executed": result.comparisons_executed,
        "clock_end": result.clock_end,
        "metrics": metrics,
    }


def _checkpoint_fingerprint(checkpoint):
    state = dict(checkpoint.metrics_state)
    state["phases"] = {
        name: (virtual_s, count)
        for name, (virtual_s, _wall_s, count) in state["phases"].items()
    }
    return (
        checkpoint.engine,
        checkpoint.budget,
        checkpoint.plan_fingerprint,
        checkpoint.clock,
        checkpoint.duplicates,
        checkpoint.recorder_state,
        checkpoint.estimator_state,
        state,
    )


def _assert_interleaved_equals_solo(pool, matcher, tenants):
    """``tenants``: name → (dataset, system).  Each tenant's push run,
    alternating drain-by-drain with the others on ``pool``, must equal its
    solo in-process run (which no pool state can reach)."""
    horizons = (2.0, 4.0, 6.0, BUDGET)

    def open_push(name, **fleet):
        dataset, system = tenants[name]
        session = ERSession(
            dataset,
            systems=(system,),
            matcher=matcher,
            n_increments=8,
            rate=5.0,
            budget=BUDGET,
            **fleet,
        )
        push = session.push()
        push.feed_plan(session.plan_for(system))
        return session, push

    solo = {}
    for name in tenants:
        session, push = open_push(name)
        for horizon in horizons:
            push.drain(horizon)
        solo[name] = (
            _checkpoint_fingerprint(push.checkpoint()),
            _comparable(push.results()),
        )
        session.close()

    sessions = {name: open_push(name, workers=2, pool=pool) for name in tenants}
    # Interleave op-by-op: every drain of one tenant lands between two
    # drains of the other, so each re-claims the fleet's cache epoch.
    for horizon in horizons:
        for name in tenants:
            sessions[name][1].drain(horizon)
    for name in tenants:
        session, push = sessions[name]
        interleaved = (
            _checkpoint_fingerprint(push.checkpoint()),
            _comparable(push.results()),
        )
        assert interleaved == solo[name], name
        session.close()

    # Sessions never close a borrowed pool.
    assert pool.healthy


def test_interleaved_push_sessions_share_one_pool(small_dblp_acm):
    """Two tenants alternating on one WorkerPool == their solo runs."""
    pool = pool_or_skip("JS")
    try:
        _assert_interleaved_equals_solo(
            pool,
            "JS",
            {"I-PES": (small_dblp_acm, "I-PES"), "I-PCS": (small_dblp_acm, "I-PCS")},
        )
    finally:
        pool.close()


def test_interleaved_push_sessions_of_different_datasets(small_dblp_acm, small_movies):
    """Tenants on *different* datasets reuse the same pids for different
    texts.  Regression: the replicas' pid-keyed derived matcher state
    survived the cache-epoch reset, so the second tenant was scored from
    the first one's texts."""
    assert {p.pid for p in small_dblp_acm.profiles} & {p.pid for p in small_movies.profiles}
    pool = pool_or_skip("ED")
    try:
        _assert_interleaved_equals_solo(
            pool,
            "ED",
            {"dblp_acm": (small_dblp_acm, "I-PES"), "movies": (small_movies, "I-PES")},
        )
    finally:
        pool.close()


# ----------------------------------------------------------------------
# TenantSession: admission, replay identity, migration
# ----------------------------------------------------------------------
def test_tenant_budget_admission():
    session = TenantSession(TenantConfig(tenant_id="t", budget=BUDGET))
    try:
        with pytest.raises(ValueError, match="beyond the tenant budget"):
            session.ingest(_batches()[0], at=BUDGET + 1.0)
        with pytest.raises(ValueError, match="exceeds the tenant budget"):
            session.drain(BUDGET + 1.0)
        assert session.ingests_accepted == 0
    finally:
        session.close()


def test_tenant_accepted_log_replay_is_bit_identical():
    config = TenantConfig(tenant_id="t", budget=BUDGET)
    original = TenantSession(config)
    batches = _batches()
    original.ingest(batches[0], at=0.0)
    original.matches()  # introspection must not perturb the run
    original.ingest(batches[1], at=1.0)
    original.snapshot()
    original.ingest(batches[2], at=2.0)
    original.drain(BUDGET)
    fingerprint = result_fingerprint(original.results())
    original.close()

    replay = TenantSession(config)
    for i, batch in enumerate(batches):
        replay.ingest(batch, at=float(i))
    replay.drain(BUDGET)
    assert result_fingerprint(replay.results()) == fingerprint
    replay.close()


def test_tenant_snapshot_restore_is_bit_identical():
    config = TenantConfig(tenant_id="t", budget=BUDGET)
    batches = _batches()

    uninterrupted = TenantSession(config)
    expected = _drive_tenant(uninterrupted)

    migrating = TenantSession(config)
    migrating.ingest(batches[0], at=0.0)
    migrating.ingest(batches[1], at=1.0)
    blob = migrating.snapshot().to_bytes()
    migrating.close()

    restored = TenantSession(config, snapshot=TenantSnapshot.from_bytes(blob))
    assert restored.ingests_accepted == 2
    restored.ingest(batches[2], at=2.0)
    restored.drain(BUDGET)
    assert result_fingerprint(restored.results()) == expected
    restored.close()


def test_tenant_chained_migration_is_bit_identical():
    """Snapshot → restore → ingest → snapshot → restore → drain: the second
    snapshot's log is the run's own plan, so every arrival survives both hops
    with its index."""
    config = TenantConfig(tenant_id="t", budget=BUDGET)
    batches = _batches()
    expected = _drive_tenant(TenantSession(config))

    first = TenantSession(config)
    for i, batch in enumerate(batches[:2]):
        first.ingest(batch, at=float(i))
    blob = first.snapshot().to_bytes()
    first.close()

    second = TenantSession(config, snapshot=TenantSnapshot.from_bytes(blob))
    second.ingest(batches[2], at=2.0)
    assert second.ingests_accepted == 3
    snapshot = TenantSnapshot.from_bytes(second.snapshot().to_bytes())
    second.close()
    assert [(at, increment.index) for at, increment in snapshot.arrivals] == [
        (0.0, 0), (1.0, 1), (2.0, 2),
    ]
    assert [list(increment.profiles) for _, increment in snapshot.arrivals] == batches
    assert snapshot.next_index == 3

    third = TenantSession(config, snapshot=snapshot)
    assert third.ingests_accepted == 3
    third.drain(BUDGET)
    assert result_fingerprint(third.results()) == expected
    third.close()


def test_tenant_snapshot_fields_are_unchanged():
    assert [field.name for field in dataclasses.fields(TenantSnapshot)] == [
        "config", "checkpoint", "arrivals", "horizon", "next_index",
    ]


def test_tenant_drains_exhausted_batch_baseline_without_spinning():
    """A legal ``open`` (PBS on the pipelined engine), a few profiles, one
    ``drain`` to the default budget: this parked the server's only executor
    for minutes in ~3·10⁷ empty rounds.  Judged by the round count."""
    config = TenantConfig(tenant_id="t", system="PBS", pipelined=True)
    session = TenantSession(config)
    try:
        for i, batch in enumerate(_batches()):
            session.ingest(batch, at=float(i))
        session.drain(config.budget)
        result = session.results()
    finally:
        session.close()
    assert result.work_exhausted
    assert result.duplicates == {(0, 2), (0, 5), (1, 4), (2, 5)}
    assert rounds_within_work(result)


# ----------------------------------------------------------------------
# The server over a localhost socket
# ----------------------------------------------------------------------
class _ServerThread:
    """An ERServer event loop in a daemon thread (clients block normally).

    Every exception that reaches the loop's exception handler (one a
    connection handler or a task let escape) is recorded, and the run
    fails on exit if there was any.
    """

    def __init__(self, **kwargs: object) -> None:
        self._kwargs = kwargs
        self._port_queue: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.loop_errors: list[dict] = []

    def __enter__(self) -> "_ServerThread":
        self._thread.start()
        ready = self._port_queue.get(timeout=30)
        if isinstance(ready, BaseException):
            raise ready
        self.port = ready
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._thread.join(timeout=60)
        assert not self._thread.is_alive(), "server did not shut down cleanly"
        assert not self.loop_errors, f"exceptions escaped to the loop: {self.loop_errors}"

    def _run(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:
            self._port_queue.put(exc)

    async def _serve(self) -> None:
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: self.loop_errors.append(context)
        )
        async with ERServer(**self._kwargs) as server:
            self.server = server
            self._port_queue.put(server.port)
            await server.serve_until_stopped()


def test_server_end_to_end_bit_identical_to_standalone():
    config = TenantConfig(tenant_id="t1", budget=BUDGET)
    with _ServerThread() as server:
        with ServiceClient("127.0.0.1", server.port) as client:
            assert client.ping()["version"] == 1
            client.open("t1", system=config.system, budget=BUDGET)
            for i, batch in enumerate(_batches()):
                reply = client.ingest("t1", batch, at=float(i))
                assert reply["at"] == float(i)
            observed = client.matches("t1")
            assert observed["matches"] == sorted(observed["matches"])
            client.drain("t1", BUDGET)
            reply = client.results("t1")
            stats = client.stats()
            assert "t1" in stats["tenants"]
            counters = stats["metrics"]["counters"]
            assert counters["service.tenant.opened"] == 1
            assert counters["service.tenant.ingests"] == 3
            client.close_tenant("t1")
            assert client.stats()["tenants"] == []
            client.shutdown()

    standalone = TenantSession(config)
    assert _drive_tenant(standalone) == reply["fingerprint"]
    assert len(reply["result"]["matches"]) > 0


def test_reply_match_counts_equal_the_match_list():
    """``ingest`` and ``drain`` answer with a count, ``matches`` with the
    list: the two agree after ingests, a poll, a snapshot → restore and a
    drain — on the tenant session and in the server's replies."""
    config = TenantConfig(tenant_id="t", budget=BUDGET)
    batches = _batches()

    session = TenantSession(config)
    assert session.match_count == 0
    for i, batch in enumerate(batches[:2]):
        session.ingest(batch, at=float(i))
        assert session.match_count == len(session.matches())
    blob = session.snapshot().to_bytes()
    session.close()
    session = TenantSession(config, snapshot=TenantSnapshot.from_bytes(blob))
    assert session.match_count == len(session.matches())
    session.ingest(batches[2], at=2.0)
    session.drain(BUDGET)
    assert session.match_count == len(session.matches()) > 0
    session.close()

    with _ServerThread() as server:
        with ServiceClient("127.0.0.1", server.port) as client:
            client.open("t", budget=BUDGET)
            for i, batch in enumerate(batches[:2]):
                reply = client.ingest("t", batch, at=float(i))
                assert reply["matches"] == len(client.matches("t")["matches"])
            blob = client.snapshot("t")
            client.close_tenant("t")
            client.restore("t", blob)
            reply = client.ingest("t", batches[2], at=2.0)
            assert reply["matches"] == len(client.matches("t")["matches"])
            reply = client.drain("t", BUDGET)
            assert reply["matches"] == len(client.matches("t")["matches"]) > 0
            client.shutdown()


def test_server_snapshot_migration_between_servers():
    config = TenantConfig(tenant_id="mig", budget=BUDGET)
    uninterrupted = TenantSession(config)
    expected = _drive_tenant(uninterrupted)
    batches = _batches()

    with _ServerThread() as first:
        with ServiceClient("127.0.0.1", first.port) as client:
            client.open("mig", budget=BUDGET)
            client.ingest("mig", batches[0], at=0.0)
            client.ingest("mig", batches[1], at=1.0)
            blob = client.snapshot("mig")
            client.shutdown()

    with _ServerThread() as second:
        with ServiceClient("127.0.0.1", second.port) as client:
            restored = client.restore("mig", blob)
            assert restored["ingested"] == 2
            client.ingest("mig", batches[2], at=2.0)
            client.drain("mig", BUDGET)
            reply = client.results("mig")
            client.shutdown()
    assert reply["fingerprint"] == expected


#: ``open`` fields that passed the old checks: a NaN cadence (``nan <= 0`` is
#: False, so the tenant never checkpointed), a watermark that is not an int
#: (2.5 shed as 2, ``true`` as 1), and ``bool("false")``, which is True.
MALFORMED_OPEN_FIELDS = (
    {"budget": float("nan")},
    {"checkpoint_every": float("nan")},
    {"shed_watermark": 2.5},
    {"shed_watermark": True},
    {"pipelined": "false"},
)


def test_server_refuses_nan_horizons_and_budgets():
    """A JSON ``NaN`` decodes to a float that passes ``<= 0``: as a drain
    horizon it would silence every later automatic drain, so it gets one
    ``bad-request`` and later ingests still advance the clock.  Malformed
    ``open`` fields get one ``bad-request`` each and open no tenant."""
    batches = _batches()
    with _ServerThread() as server:
        with ServiceClient("127.0.0.1", server.port) as client:
            for fields in MALFORMED_OPEN_FIELDS:
                with pytest.raises(ServiceError) as exc:
                    client.open("bad", **{"budget": BUDGET, **fields})
                assert exc.value.code == "bad-request", fields
            assert client.ping()["tenants"] == 0
            client.open("t", budget=BUDGET)
            first = client.ingest("t", batches[0], at=1.0)["clock"]
            for until in (float("nan"), "nan"):
                with pytest.raises(ServiceError) as exc:
                    client.drain("t", until)
                assert exc.value.code == "bad-request"
            second = client.ingest("t", batches[1], at=2.0)["clock"]
            third = client.ingest("t", batches[2], at=3.0)["clock"]
            assert first < second < third
            client.shutdown()


def test_server_refusal_codes():
    with _ServerThread(max_tenants=1) as server:
        with ServiceClient("127.0.0.1", server.port) as client:
            client.open("only", budget=BUDGET)
            with pytest.raises(ServiceError) as exc:
                client.open("only", budget=BUDGET)
            assert exc.value.code == "admission"
            with pytest.raises(ServiceError) as exc:
                client.open("other", budget=BUDGET)
            assert exc.value.code == "admission"
            with pytest.raises(ServiceError) as exc:
                client.drain("ghost", 1.0)
            assert exc.value.code == "unknown-tenant"
            with pytest.raises(ServiceError) as exc:
                client.drain("only", BUDGET * 2)
            assert exc.value.code == "budget"
            with pytest.raises(ServiceError) as exc:
                client.call("frobnicate")
            assert exc.value.code == "bad-request"
            client.shutdown()


def test_server_refuses_undecodable_snapshots_on_a_live_connection():
    """Bytes that do not unpickle — truncated, empty, garbage after a pickle
    header — get one ``bad-request`` reply each, and the connection that
    sent them keeps being served."""
    session = TenantSession(TenantConfig(tenant_id="t", budget=BUDGET))
    blob = session.snapshot().to_bytes()
    session.close()
    with _ServerThread() as server:
        with ServiceClient("127.0.0.1", server.port) as client:
            for bad in (blob[: len(blob) // 2], b"", b"\x80\x05garbage"):
                with pytest.raises(ServiceError) as exc:
                    client.restore("t", bad)
                assert exc.value.code == "bad-request"
                assert client.ping()["tenants"] == 0
            client.shutdown()


def test_an_over_limit_frame_gets_one_refusal_and_a_hang_up(monkeypatch):
    """A line longer than the stream limit can be neither parsed nor
    skipped: its sender gets one ``bad-request`` naming the limit and the
    connection is closed.  Nothing escapes to the loop, and a new
    connection is served."""
    monkeypatch.setattr("repro.service.server.MAX_FRAME_BYTES", 4096)
    with _ServerThread() as server:
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(protocol.encode_line({"op": "ping", "id": 1, "pad": "x" * 8192}))
            stream = sock.makefile("rb")
            reply = protocol.decode_line(stream.readline())
            assert reply["error"] == "bad-request"
            assert "4096 bytes" in reply["detail"]
            assert stream.readline() == b""
        with ServiceClient("127.0.0.1", server.port) as client:
            assert client.ping()["ok"]
            client.shutdown()


def test_tenants_take_turns_and_pings_are_answered_between_ops(monkeypatch):
    """Engine ops run on the event loop one at a time, and a tenant worker
    yields after each op: two tenants with five queued ingests each run
    alternately, and a ``ping`` on a third connection is answered between
    ops, before both queues are empty."""
    recorded: list[tuple[str, int]] = []
    answered_after: list[int] = []
    queued = threading.Event()
    gate_running = threading.Event()
    ping = protocol.encode_line({"op": "ping", "id": "probe"})
    ingest = TenantSession.ingest

    def slow_ingest(self, profiles, at=None):
        tenant = self.config.tenant_id
        if tenant == "gate":
            # Hold the loop until both tenants' requests sit in the socket
            # buffers, so both queues fill in one pass of the loop.
            gate_running.set()
            assert queued.wait(timeout=30)
        else:
            if not recorded:
                probe.sendall(ping)  # arrives while the first op runs
            elif not answered_after and select.select([probe], [], [], 0)[0]:
                answered_after.append(len(recorded))
            recorded.append((tenant, sum(1 for name, _ in recorded if name == tenant)))
            time.sleep(0.02)
        return ingest(self, profiles, at=at)

    monkeypatch.setattr(TenantSession, "ingest", slow_ingest)
    with _ServerThread() as server:
        with (
            ServiceClient("127.0.0.1", server.port) as gate,
            ServiceClient("127.0.0.1", server.port) as a,
            ServiceClient("127.0.0.1", server.port) as b,
            socket.create_connection(("127.0.0.1", server.port), timeout=30) as probe,
        ):
            for name, client in (("gate", gate), ("a", a), ("b", b)):
                client.open(name, budget=BUDGET)
            # Connected before the ops queue: accepting a connection takes
            # more turns of the loop than reading a line on one.
            probe_replies = probe.makefile("rb")
            probe.sendall(ping)
            assert protocol.decode_line(probe_replies.readline())["ok"]
            gate_id = gate.send_ingest("gate", [_profile(0, "gate")], at=0.0)
            assert gate_running.wait(timeout=30)
            pending = [
                (client, client.send_ingest(name, [_profile(i, f"{name} {i}")], at=float(i)))
                for i in range(5)
                for name, client in (("a", a), ("b", b))
            ]
            time.sleep(0.05)
            queued.set()
            gate.wait(gate_id)
            for client, request_id in pending:
                client.wait(request_id)
            assert protocol.decode_line(probe_replies.readline())["ok"]
            gate.shutdown()

    tenants = [name for name, _ in recorded]
    assert sorted(recorded) == [(name, i) for name in ("a", "b") for i in range(5)]
    assert len(set(tenants[0::2])) == len(set(tenants[1::2])) == 1, tenants
    assert tenants[0] != tenants[1], tenants
    assert answered_after, "ping answered only after both queues were empty"


def test_server_sheds_ingests_under_pipelined_burst():
    # The three batches over and over, under fresh pids each time: which
    # requests the server sheds is a race, and every subset it may accept
    # must be a stream the engine can index (a pid arrives once).
    batches = [
        [
            EntityProfile(6 * (i // 3) + profile.pid, {"value": profile.attributes[0].value})
            for profile in _batches()[i % 3]
        ]
        for i in range(24)
    ]
    with _ServerThread(queue_limit=1) as server:
        with ServiceClient("127.0.0.1", server.port) as client:
            client.open("burst", budget=BUDGET)
            pending = [
                client.send_ingest("burst", batches[i], at=float(i) / 4.0)
                for i in range(24)
            ]
            replies = [client.wait(rid, check=False) for rid in pending]
            accepted = [r for r in replies if r.get("ok")]
            shed = [r for r in replies if r.get("error") == "shed"]
            assert len(accepted) + len(shed) == len(replies)
            assert shed, "pipelined burst against queue_limit=1 never shed"
            for reply in shed:
                assert "queue_depth" in reply
            # The server survived and the tenant still finalizes cleanly.
            client.drain("burst", BUDGET)
            reply = client.results("burst")
            counters = client.stats()["metrics"]["counters"]
            assert counters["service.tenant.shed"] == len(shed)
            client.shutdown()

    # Replies are in send order; replaying only the accepted subset
    # standalone must reproduce the service result bit-for-bit.
    replay = TenantSession(TenantConfig(tenant_id="burst", budget=BUDGET))
    for i, r in enumerate(replies):
        if r.get("ok"):
            replay.ingest(batches[i], at=r["at"])
    replay.drain(BUDGET)
    assert result_fingerprint(replay.results()) == reply["fingerprint"]
    replay.close()


def test_server_replaces_a_broken_pool(monkeypatch):
    """A worker of the server's fleet is killed under tenant ``a``: its
    first hand-off breaks the pool and is rescued in-process.  Tenant
    ``b``, opened afterwards, gets a fresh fleet and shards again; ``a``
    scores in-process from then on and still equals its standalone replay."""
    monkeypatch.setattr("repro.parallel.pool.MIN_SHARD", 1)

    def drive(client, name):
        for i, batch in enumerate(_batches()):
            client.ingest(name, batch, at=float(i))
        client.drain(name, BUDGET)
        return client.results(name)["fingerprint"]

    with _ServerThread(workers=2) as thread:
        with ServiceClient("127.0.0.1", thread.port) as client:
            try:
                client.open("a", matcher="ED", budget=BUDGET)
                first_pool = thread.server._pools.get("ED")
                if first_pool is None:
                    pytest.skip("process pool unavailable on this host")
                os.kill(first_pool._processes[0].pid, signal.SIGKILL)
                fingerprint = drive(client, "a")
                assert first_pool.broken
                client.open("b", matcher="ED", budget=BUDGET)
                assert thread.server._pools["ED"] is not first_pool
                drive(client, "b")
                counters = {
                    name: thread.server._tenants[name].session.results()
                    .details["metrics"]["counters"]
                    for name in ("a", "b")
                }
            finally:
                client.shutdown()
    assert counters["a"]["parallel.supervision.evictions"] == 2
    assert counters["a"]["parallel.fallbacks"] > 0
    assert counters["b"]["parallel.rounds_sharded"] > 0
    assert counters["b"]["parallel.fallbacks"] == 0
    standalone = TenantSession(TenantConfig(tenant_id="a", matcher="ED", budget=BUDGET))
    assert _drive_tenant(standalone) == fingerprint


# ----------------------------------------------------------------------
# Snapshots from a client: the envelope and the allow-list
# ----------------------------------------------------------------------
def _enveloped(payload: bytes) -> bytes:
    return SNAPSHOT_MAGIC + SNAPSHOT_VERSION.to_bytes(2, "big") + payload


class _ShellProbe:
    """Unpickles into a shell command that creates ``path``."""

    def __init__(self, path: str) -> None:
        self.path = path

    def __reduce__(self):
        return (os.system, (f"touch {self.path}",))


class _RecordingUnpickler(pickle.Unpickler):
    def __init__(self, blob: bytes, seen: set) -> None:
        super().__init__(io.BytesIO(blob))
        self.seen = seen

    def find_class(self, module: str, name: str) -> type:
        self.seen.add((module, name))
        return super().find_class(module, name)


def _tenant_snapshot() -> TenantSnapshot:
    session = TenantSession(TenantConfig(tenant_id="t", budget=BUDGET))
    for i, batch in enumerate(_batches()[:2]):
        session.ingest(batch, at=float(i))
    snapshot = session.snapshot()
    session.close()
    return snapshot


def test_a_reduce_probe_runs_nothing(tmp_path):
    """A blob whose payload would call ``os.system`` is refused before any
    global outside the allow-list is imported: directly, and over a live
    connection, with and without the envelope."""
    marker = tmp_path / "probe-ran"
    payload = pickle.dumps(_ShellProbe(str(marker)))
    for blob in (_enveloped(payload), payload):
        with pytest.raises(ValueError):
            TenantSnapshot.from_bytes(blob)
    with _ServerThread() as server:
        with ServiceClient("127.0.0.1", server.port) as client:
            for blob in (_enveloped(payload), payload):
                with pytest.raises(ServiceError) as exc:
                    client.restore("t", blob)
                assert exc.value.code == "bad-request"
            assert client.ping()["tenants"] == 0
            client.shutdown()
    assert not marker.exists()


def test_snapshots_of_every_system_round_trip_within_the_allow_list():
    """Every system's snapshot, mid-stream, decodes through the allow-list, and the run resumed from the decoded
    snapshot ends equal to the run that was never cut.  Together the
    snapshots meet exactly the listed classes, so a layout change can
    neither widen the list unnoticed nor leave a stale entry in it."""
    dataset = load_dataset("dblp_acm", scale=0.1)
    seen: set = set()
    for name in SYSTEM_NAMES:
        session = ERSession(dataset, systems=(name,), n_increments=4, rate=5.0, budget=BUDGET)
        arrivals = list(session.plan_for(name))
        push = session.push(name)
        for at, increment in arrivals[:3]:
            push.feed(increment, at=at)
            push.drain(at + 0.05)
        blob = TenantSnapshot(
            TenantConfig(tenant_id="t", system=name, budget=BUDGET), push.checkpoint(),
            tuple(push.plan), push.horizon, push.increments_fed,
        ).to_bytes()
        _RecordingUnpickler(blob[len(SNAPSHOT_MAGIC) + 2 :], seen).load()
        restored = TenantSnapshot.from_bytes(blob)
        resumed = session.push(name, resume_from=restored.checkpoint)
        resumed.feed_plan(restored.arrivals)
        resumed.start()  # binds the checkpoint to the arrivals it was cut at
        for run in (push, resumed):
            run.feed_plan(arrivals[3:])
            run.drain(BUDGET)
        assert _comparable(resumed.results()) == _comparable(push.results()), name
    assert seen == SNAPSHOT_CLASSES


def test_a_class_outside_the_allow_list_is_refused():
    snapshot = dataclasses.replace(_tenant_snapshot(), horizon=GroundTruth())
    with pytest.raises(ValueError, match="GroundTruth is not a snapshot class"):
        TenantSnapshot.from_bytes(snapshot.to_bytes())


def test_an_unenveloped_blob_is_refused_naming_the_version():
    """Snapshots written before the envelope existed no longer restore."""
    legacy = pickle.dumps(_tenant_snapshot(), protocol=pickle.HIGHEST_PROTOCOL)
    with pytest.raises(ValueError, match=f"expected version {SNAPSHOT_VERSION}"):
        TenantSnapshot.from_bytes(legacy)
    newer = SNAPSHOT_MAGIC + (SNAPSHOT_VERSION + 1).to_bytes(2, "big") + legacy
    with pytest.raises(ValueError, match=f"expected version {SNAPSHOT_VERSION}"):
        TenantSnapshot.from_bytes(newer)
    with _ServerThread() as server:
        with ServiceClient("127.0.0.1", server.port) as client:
            with pytest.raises(ServiceError) as exc:
                client.restore("t", legacy)
            assert exc.value.code == "bad-request"
            assert f"expected version {SNAPSHOT_VERSION}" in str(exc.value)
            client.shutdown()


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7])
def test_an_old_envelope_is_refused_naming_its_version(version):
    """Version 1 checkpoints carried the progress recorder's own executed
    set, version 2 a blocker object per incremental system, version 3 the
    collection's interned block ids and a cost table per batch system,
    version 4 a quarantine and the last drain horizon as the budget,
    version 5 PPS-LOCAL's blocking configuration, version 6 I-PBS's pair
    queue, version 7 the block collection's per-profile key sets; an
    envelope that says any of them is refused, and the refusal names it."""
    payload = pickle.dumps(_tenant_snapshot(), protocol=pickle.HIGHEST_PROTOCOL)
    blob = SNAPSHOT_MAGIC + version.to_bytes(2, "big") + payload
    with pytest.raises(ValueError, match=f"snapshot version {version} cannot be restored"):
        TenantSnapshot.from_bytes(blob)


@pytest.mark.parametrize(
    "bad_bit", [lambda keys: 2**33, lambda keys: len(keys)], ids=["huge", "past-the-keys"]
)
def test_a_block_mask_naming_no_live_block_is_refused(monkeypatch, bad_bit):
    """The block collection pickles each profile's mask as bit indexes.  An
    index that names no live block — one as large as ``2**33``, whose mask
    alone would be a 1 GiB int, or one just past the key list — is refused
    on decode before any mask is built, and over a live connection as one
    ``bad-request``."""
    genuine = BlockCollection.__getstate__

    def hostile(collection):
        state = genuine(collection)
        pid = next(iter(state["_mask_of"]))
        state["_mask_of"] = {**state["_mask_of"], pid: (bad_bit(state["_keys"]),)}
        return state

    monkeypatch.setattr(BlockCollection, "__getstate__", hostile)
    blob = _tenant_snapshot().to_bytes()
    monkeypatch.setattr(BlockCollection, "__getstate__", genuine)
    with pytest.raises(ValueError, match="no live block"):
        TenantSnapshot.from_bytes(blob)
    with _ServerThread() as server:
        with ServiceClient("127.0.0.1", server.port) as client:
            with pytest.raises(ServiceError) as exc:
                client.restore("t", blob)
            assert exc.value.code == "bad-request"
            assert client.ping()["tenants"] == 0
            client.shutdown()


def test_a_snapshot_with_an_invalid_config_is_refused():
    """Unpickling a frozen dataclass skips ``__post_init__``: a genuine
    snapshot whose config was altered past its validation is refused on
    decode, and over a live connection, as one ``bad-request``."""
    snapshot = _tenant_snapshot()
    object.__setattr__(snapshot.config, "kind", "nonsense")
    blob = snapshot.to_bytes()
    with pytest.raises(ValueError, match="kind must be"):
        TenantSnapshot.from_bytes(blob)
    with _ServerThread() as server:
        with ServiceClient("127.0.0.1", server.port) as client:
            with pytest.raises(ServiceError) as exc:
                client.restore("t", blob)
            assert exc.value.code == "bad-request"
            assert client.ping()["tenants"] == 0
            client.shutdown()


def test_a_snapshot_with_a_forged_budget_is_refused():
    """A checkpoint records the tenant's budget, whatever the drain
    horizon, so one that differs from the config's was written by hand: it
    is refused on decode, and over a live connection, as one
    ``bad-request`` rather than an internal restore failure."""
    snapshot = _tenant_snapshot()
    assert snapshot.checkpoint.budget == snapshot.config.budget == BUDGET
    assert snapshot.horizon < BUDGET
    forged = dataclasses.replace(
        snapshot, checkpoint=dataclasses.replace(snapshot.checkpoint, budget=snapshot.horizon)
    )
    blob = forged.to_bytes()
    with pytest.raises(ValueError, match="does not match the tenant budget"):
        TenantSnapshot.from_bytes(blob)
    with _ServerThread() as server:
        with ServiceClient("127.0.0.1", server.port) as client:
            with pytest.raises(ServiceError) as exc:
                client.restore("t", blob)
            assert exc.value.code == "bad-request"
            assert client.ping()["tenants"] == 0
            client.shutdown()


@pytest.fixture(scope="module")
def live_client():
    with _ServerThread() as server:
        with ServiceClient("127.0.0.1", server.port) as client:
            yield client
            client.shutdown()


@pytest.fixture(scope="module")
def valid_blob() -> bytes:
    return _tenant_snapshot().to_bytes()


def _flip(blob: bytes, bit: int) -> bytes:
    damaged = bytearray(blob)
    damaged[bit // 8] ^= 1 << (bit % 8)
    return bytes(damaged)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_hostile_bytes_get_a_refusal_on_a_live_connection(live_client, valid_blob, data):
    """Arbitrary, truncated and bit-flipped snapshot blobs, restored as a
    tenant the genuine snapshot does not belong to: each gets one
    ``bad-request`` reply — never an escaping exception, a dropped
    connection or a hang — and the connection still answers ``ping``."""
    blob = data.draw(
        st.one_of(
            st.binary(max_size=512),
            st.integers(0, len(valid_blob) - 1).map(lambda size: valid_blob[:size]),
            st.integers(0, 8 * len(valid_blob) - 1).map(lambda bit: _flip(valid_blob, bit)),
        )
    )
    with pytest.raises(ServiceError) as exc:
        live_client.restore("fuzz", blob)
    assert exc.value.code == "bad-request"
    assert live_client.ping()["tenants"] == 0
