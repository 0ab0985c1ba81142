"""The ER service: an asyncio line-protocol server multiplexing tenants.

Architecture — three moving parts, one per concern:

* **Connection handlers** (one coroutine per client socket) parse JSON-line
  requests and *admit* them: tenant-table admission for ``open``/
  ``restore``, queue admission for engine ops.  They never touch an
  engine.
* **Tenant workers** (one coroutine per tenant) drain their tenant's FIFO
  op queue.  The queue is the determinism boundary: results depend only on
  the *accepted* op sequence, never on socket interleaving — replaying a
  tenant's accepted log through a standalone session is bit-identical,
  which the service benchmark verifies per tenant.
* **The event loop itself** runs every engine-touching call, one op at a
  time, and yields after each op so the other tenants and every socket
  get a turn.  Engines hold the GIL, so a second thread would only add a
  cross-thread hand-off per op; one thread also serializes access to the
  shared Tier A :class:`WorkerPool`, whose cache-epoch handshake
  (``begin_run(owner=...)``) assumes one run speaks to the fleet at a
  time.  The price: a request that arrives during an op is read when that
  op ends.

Backpressure and shedding are two-level, mirroring the engine's own
resilience design: the server sheds ingest *requests* when a tenant's op
queue is full (the client sees ``error: "shed"`` plus the queue depth and
may retry later), and each tenant may additionally configure the engine's
``shed_watermark`` to drop *due increments* under virtual-time backlog.
Overload degrades throughput, never correctness of what was accepted.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib

from repro.observability.metrics import MetricsRegistry
from repro.service import protocol
from repro.service.tenant import TenantConfig, TenantSession, TenantSnapshot

__all__ = ["ERServer"]

#: Ops a tenant worker executes (everything that touches the engine).
_ENGINE_OPS = frozenset(
    {"ingest", "drain", "matches", "results", "snapshot", "close"}
)

#: Per-line frame ceiling.  Snapshot blobs (base64 envelopes of a tenant's
#: full engine state) travel as one line and routinely exceed asyncio's
#: 64 KiB default stream limit, which kills the connection mid-read.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class _Tenant:
    """Server-side record of one live tenant."""

    __slots__ = ("session", "queue", "worker", "closing")

    def __init__(self, session: TenantSession, queue_limit: int) -> None:
        self.session = session
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_limit)
        self.worker: asyncio.Task | None = None
        self.closing = False


class ERServer:
    """A multi-tenant progressive-ER service over a line-protocol socket.

    Parameters
    ----------
    host / port:
        Bind address; port ``0`` picks a free port (see :attr:`port` after
        :meth:`start`).
    workers:
        Tier A fleet size shared by *all* tenants (``1``: in-process
        scoring, no fleet).
    max_tenants:
        Admission ceiling: ``open``/``restore`` beyond this are rejected.
    queue_limit:
        Per-tenant op-queue depth; a full queue sheds ingest requests.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 1,
        max_tenants: int = 64,
        queue_limit: int = 32,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_tenants < 1:
            raise ValueError(f"max_tenants must be >= 1, got {max_tenants}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.host = host
        self._requested_port = port
        self.workers = workers
        self.max_tenants = max_tenants
        self.queue_limit = queue_limit
        self.metrics = MetricsRegistry()
        self._tenants: dict[str, _Tenant] = {}
        self._pools: dict[str, object] = {}
        self._connections: set[asyncio.StreamWriter] = set()
        self._server: asyncio.AbstractServer | None = None
        self._stopping: asyncio.Event | None = None
        self._stop_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not running")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("server already started")
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self._requested_port,
            limit=MAX_FRAME_BYTES,
        )

    async def stop(self) -> None:
        """Stop accepting, drain tenant workers, shut fleets down.

        Idempotent and race-free: concurrent callers (a ``shutdown`` op and
        a context-manager exit, say) all await the one teardown task.
        """
        if self._stopping is None:
            return
        if self._stop_task is None:
            self._stop_task = asyncio.get_running_loop().create_task(self._do_stop())
        await asyncio.shield(self._stop_task)

    async def _do_stop(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        # Close established connections too (Server.close only stops
        # accepting); their handlers then see EOF and exit on their own
        # instead of being cancelled at event-loop teardown.
        for writer in list(self._connections):
            with contextlib.suppress(Exception):
                writer.close()
        for tenant in list(self._tenants.values()):
            tenant.closing = True
            if tenant.worker is not None:
                tenant.worker.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await tenant.worker
        for name, tenant in list(self._tenants.items()):
            tenant.session.close()
            self.metrics.count("service.tenant.closed")
            self._tenants.pop(name, None)
        for pool in self._pools.values():
            pool.close()
        self._pools.clear()
        self.metrics.gauge("service.tenants_active", 0.0)
        if self._stopping is not None:
            self._stopping.set()

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`stop` completes (for ``python -m`` serving)."""
        if self._stopping is None:
            raise RuntimeError("server is not running")
        await self._stopping.wait()

    async def __aenter__(self) -> "ERServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # The line overran the stream limit.  Its tail may still
                    # be in flight, so the stream cannot be re-synchronised:
                    # answer once and hang up.
                    self._reply(
                        writer,
                        protocol.error_response(
                            None,
                            protocol.ERR_BAD_REQUEST,
                            f"frame exceeds {MAX_FRAME_BYTES} bytes",
                        ),
                    )
                    with contextlib.suppress(ConnectionError):
                        await writer.drain()
                    break
                if not line:
                    break
                try:
                    request = protocol.decode_line(line)
                except ValueError as exc:
                    self._reply(
                        writer,
                        protocol.error_response(
                            None, protocol.ERR_BAD_REQUEST, str(exc)
                        ),
                    )
                    continue
                await self._dispatch(request, writer)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    def _reply(self, writer: asyncio.StreamWriter, response: dict) -> None:
        # One write() per line keeps concurrent repliers (tenant workers,
        # the connection handler) from interleaving partial frames.
        if not writer.is_closing():
            writer.write(protocol.encode_line(response))

    async def _dispatch(self, request: dict, writer: asyncio.StreamWriter) -> None:
        op = request.get("op")
        request_id = request.get("id")
        if op == "ping":
            self._reply(
                writer,
                protocol.ok_response(
                    request_id, version=protocol.PROTOCOL_VERSION, tenants=len(self._tenants)
                ),
            )
        elif op == "stats":
            self._reply(
                writer,
                protocol.ok_response(
                    request_id,
                    tenants=sorted(self._tenants),
                    metrics=self.metrics.snapshot(include_wall=False),
                ),
            )
        elif op == "open":
            self._reply(writer, self._open_tenant(request))
        elif op == "restore":
            self._reply(writer, self._restore_tenant(request))
        elif op == "shutdown":
            self._reply(writer, protocol.ok_response(request_id))
            with contextlib.suppress(Exception):
                await writer.drain()
            asyncio.get_running_loop().create_task(self.stop())
        elif op in _ENGINE_OPS:
            await self._enqueue(request, writer)
        else:
            self._reply(
                writer,
                protocol.error_response(
                    request_id, protocol.ERR_BAD_REQUEST, f"unknown op {op!r}"
                ),
            )

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit(self, tenant_id: object) -> str | None:
        """Reason the tenant cannot be admitted, or ``None`` if it can."""
        if not isinstance(tenant_id, str) or not tenant_id:
            return "tenant must be a non-empty string"
        if tenant_id in self._tenants:
            return f"tenant {tenant_id!r} already exists"
        if len(self._tenants) >= self.max_tenants:
            return f"tenant table full ({self.max_tenants})"
        return None

    def _open_tenant(self, request: dict) -> dict:
        request_id = request.get("id")
        tenant_id = request.get("tenant")
        refusal = self._admit(tenant_id)
        if refusal is not None:
            self.metrics.count("service.tenant.rejected")
            return protocol.error_response(
                request_id, protocol.ERR_ADMISSION, refusal
            )
        try:
            config = TenantConfig(
                tenant_id=tenant_id,
                system=request.get("system", "I-PES"),
                matcher=request.get("matcher", "JS"),
                budget=float(request.get("budget", 300.0)),
                kind=request.get("kind", "dirty"),
                pipelined=request.get("pipelined", False),
                shed_watermark=request.get("shed_watermark"),
                checkpoint_every=request.get("checkpoint_every"),
            )
            session = TenantSession(
                config, workers=self.workers, pool=self._pool_for(config)
            )
        except (TypeError, ValueError) as exc:
            self.metrics.count("service.tenant.rejected")
            return protocol.error_response(
                request_id, protocol.ERR_BAD_REQUEST, str(exc)
            )
        self._register(tenant_id, session)
        self.metrics.count("service.tenant.opened")
        return protocol.ok_response(
            request_id, tenant=tenant_id, budget=config.budget
        )

    def _restore_tenant(self, request: dict) -> dict:
        request_id = request.get("id")
        tenant_id = request.get("tenant")
        refusal = self._admit(tenant_id)
        if refusal is not None:
            self.metrics.count("service.tenant.rejected")
            return protocol.error_response(
                request_id, protocol.ERR_ADMISSION, refusal
            )
        try:
            blob = base64.b64decode(request["snapshot"])
            snapshot = TenantSnapshot.from_bytes(blob)
        except (KeyError, ValueError, TypeError) as exc:
            return protocol.error_response(
                request_id, protocol.ERR_BAD_REQUEST, f"bad snapshot: {exc}"
            )
        if snapshot.config.tenant_id != tenant_id:
            return protocol.error_response(
                request_id,
                protocol.ERR_BAD_REQUEST,
                f"snapshot belongs to tenant {snapshot.config.tenant_id!r}",
            )
        # Restoring replays the fed arrivals and re-drains to the snapshot
        # horizon: real engine work, run inline like any other op.
        try:
            session = TenantSession(
                snapshot.config,
                workers=self.workers,
                pool=self._pool_for(snapshot.config),
                snapshot=snapshot,
            )
        except Exception as exc:
            return protocol.error_response(
                request_id, protocol.ERR_INTERNAL, f"restore failed: {exc}"
            )
        self._register(tenant_id, session)
        self.metrics.count("service.tenant.restores")
        return protocol.ok_response(
            request_id,
            tenant=tenant_id,
            clock=session.clock,
            ingested=session.ingests_accepted,
        )

    def _register(self, tenant_id: str, session: TenantSession) -> None:
        tenant = _Tenant(session, self.queue_limit)
        tenant.worker = asyncio.get_running_loop().create_task(
            self._tenant_worker(tenant_id, tenant)
        )
        self._tenants[tenant_id] = tenant
        self.metrics.gauge("service.tenants_active", float(len(self._tenants)))

    def _pool_for(self, config: TenantConfig) -> object | None:
        """The shared Tier A fleet for this matcher config (lazily spawned).

        A pool that broke is replaced here, at the next ``open`` or
        ``restore``: it has already killed its workers, and the tenants
        still holding it score in-process, bit-identically.
        """
        if self.workers <= 1:
            return None
        key = config.matcher.upper()
        pool = self._pools.get(key)
        if pool is None or not pool.healthy:
            from repro.evaluation.experiments import _build_matcher
            from repro.parallel.pool import WorkerPool

            pool = WorkerPool.create(self.workers, _build_matcher(key))
            if pool is None:
                return None
            self._pools[key] = pool
        return pool

    # ------------------------------------------------------------------
    # Engine ops: queue admission + the tenant worker
    # ------------------------------------------------------------------
    async def _enqueue(self, request: dict, writer: asyncio.StreamWriter) -> None:
        request_id = request.get("id")
        tenant_id = request.get("tenant")
        tenant = self._tenants.get(tenant_id) if isinstance(tenant_id, str) else None
        if tenant is None or tenant.closing:
            self._reply(
                writer,
                protocol.error_response(
                    request_id, protocol.ERR_UNKNOWN_TENANT, f"no tenant {tenant_id!r}"
                ),
            )
            return
        if request.get("op") == "ingest":
            # Sheddable: a full queue answers *now* with the depth, instead
            # of stalling the connection — the client may retry or back off.
            try:
                tenant.queue.put_nowait((request, writer))
            except asyncio.QueueFull:
                tenant.session.ingests_shed += 1
                self.metrics.count("service.tenant.shed")
                self._reply(
                    writer,
                    protocol.error_response(
                        request_id,
                        protocol.ERR_SHED,
                        "ingest queue full",
                        queue_depth=tenant.queue.qsize(),
                    ),
                )
            return
        # Control ops are never shed; a full queue backpressures the
        # connection instead (the reader pauses until space frees).
        await tenant.queue.put((request, writer))

    async def _tenant_worker(self, tenant_id: str, tenant: _Tenant) -> None:
        while True:
            request, writer = await tenant.queue.get()
            request_id = request.get("id")
            op = request.get("op")
            try:
                response = self._engine_op(op, tenant_id, tenant, request)
            except ValueError as exc:
                code = (
                    protocol.ERR_BUDGET
                    if "budget" in str(exc)
                    else protocol.ERR_BAD_REQUEST
                )
                response = protocol.error_response(request_id, code, str(exc))
            except RuntimeError as exc:
                response = protocol.error_response(
                    request_id, protocol.ERR_BAD_REQUEST, str(exc)
                )
            except Exception as exc:  # pragma: no cover - defensive
                response = protocol.error_response(
                    request_id, protocol.ERR_INTERNAL, f"{type(exc).__name__}: {exc}"
                )
            self._reply(writer, response)
            tenant.queue.task_done()
            if op == "close":
                break
            # ``get()`` on a non-empty queue does not suspend: without this
            # yield a tenant with a deep queue would starve the other
            # tenants and every socket.
            await asyncio.sleep(0)

    def _engine_op(
        self, op: str, tenant_id: str, tenant: _Tenant, request: dict
    ) -> dict:
        """Run one queued engine op on the loop thread; returns its reply."""
        request_id = request.get("id")
        session = tenant.session
        metrics = self.metrics

        if op == "ingest":
            profiles = protocol.decode_profiles(request.get("profiles", ()))
            at = request.get("at")
            recorded = session.ingest(profiles, at=None if at is None else float(at))
            metrics.count("service.tenant.ingests")
            metrics.count("service.tenant.profiles", len(profiles))
            return protocol.ok_response(
                request_id,
                at=recorded,
                clock=session.clock,
                matches=session.match_count,
                comparisons=session.comparisons_executed,
            )
        if op == "drain":
            clock = session.drain(float(request["until"]))
            metrics.count("service.tenant.drains")
            return protocol.ok_response(
                request_id,
                clock=clock,
                matches=session.match_count,
                comparisons=session.comparisons_executed,
            )
        if op == "matches":
            return protocol.ok_response(
                request_id,
                matches=sorted(map(list, session.matches())),
                clock=session.clock,
                comparisons=session.comparisons_executed,
            )
        if op == "results":
            result = session.results()
            metrics.count("service.tenant.results")
            return protocol.ok_response(
                request_id,
                result=protocol.result_payload(result),
                fingerprint=protocol.result_fingerprint(result),
            )
        if op == "snapshot":
            snapshot = session.snapshot()
            metrics.count("service.tenant.snapshots")
            return protocol.ok_response(
                request_id,
                snapshot=base64.b64encode(snapshot.to_bytes()).decode("ascii"),
                clock=session.clock,
            )
        if op == "close":
            tenant.closing = True
            session.close()
            metrics.count("service.tenant.closed")
            self._tenants.pop(tenant_id, None)
            metrics.gauge("service.tenants_active", float(len(self._tenants)))
            return protocol.ok_response(request_id, tenant=tenant_id)
        # Unreachable while ``_ENGINE_OPS`` gates the dispatch.
        return protocol.error_response(
            request_id, protocol.ERR_BAD_REQUEST, f"unknown op {op!r}"
        )
