"""A small synchronous client for the ER service.

Blocking socket + JSON lines: the mirror image of the server's protocol,
deliberately dependency-free so benchmarks, CI smoke tests and notebooks
can drive a server without an async runtime.

Two calling styles:

* **Call-response** — :meth:`ServiceClient.call` (and the named
  conveniences) send one request and block for its reply.
* **Pipelined** — :meth:`ServiceClient.send` returns the request id
  immediately; :meth:`ServiceClient.wait` collects a specific reply later
  (out-of-order arrivals are buffered).  Pipelining is how a client
  saturates a tenant's ingest queue and actually observes shedding — a
  strict call-response loop self-throttles and never backs the server up.
"""

from __future__ import annotations

import base64
import socket
from typing import Iterable, Sequence

from repro.core.profile import EntityProfile
from repro.service import protocol

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """An error response from the server, as an exception.

    ``code`` is the stable protocol error code (``"shed"``,
    ``"admission"``, ``"budget"``, ...); the full response dict is on
    ``response``.
    """

    def __init__(self, response: dict) -> None:
        code = response.get("error", "unknown")
        super().__init__(f"{code}: {response.get('detail', '')}")
        self.code = code
        self.response = response


class ServiceClient:
    """One connection to an :class:`~repro.service.server.ERServer`."""

    def __init__(self, host: str, port: int, timeout: float | None = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._next_id = 0
        self._pending: dict[object, dict] = {}

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def send(self, op: str, **fields: object) -> int:
        """Send one request without waiting; returns its request id."""
        self._next_id += 1
        request_id = self._next_id
        self._file.write(protocol.encode_line({"op": op, "id": request_id, **fields}))
        self._file.flush()
        return request_id

    def wait(self, request_id: int, *, check: bool = True) -> dict:
        """Block for the reply to ``request_id`` (buffering others).

        With ``check`` (default), an error reply raises
        :class:`ServiceError`; pass ``check=False`` to receive shed/budget
        refusals as plain dicts (the overload benchmark counts them).
        """
        while request_id not in self._pending:
            line = self._file.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            response = protocol.decode_line(line)
            self._pending[response.get("id")] = response
        response = self._pending.pop(request_id)
        if check and not response.get("ok", False):
            raise ServiceError(response)
        return response

    def call(self, op: str, *, check: bool = True, **fields: object) -> dict:
        """Send one request and block for its reply."""
        return self.wait(self.send(op, **fields), check=check)

    # ------------------------------------------------------------------
    # Conveniences (call-response)
    # ------------------------------------------------------------------
    def ping(self) -> dict:
        return self.call("ping")

    def stats(self) -> dict:
        return self.call("stats")

    def open(self, tenant: str, **config: object) -> dict:
        """Open a tenant (``system=``, ``matcher=``, ``budget=``, ...)."""
        return self.call("open", tenant=tenant, **config)

    def ingest(
        self,
        tenant: str,
        profiles: Iterable[EntityProfile] | Sequence[dict],
        at: float | None = None,
        *,
        check: bool = True,
    ) -> dict:
        return self.wait(self.send_ingest(tenant, profiles, at), check=check)

    def send_ingest(
        self,
        tenant: str,
        profiles: Iterable[EntityProfile] | Sequence[dict],
        at: float | None = None,
    ) -> int:
        """Pipelined ingest: send and return the id without waiting."""
        payload = list(profiles)
        if payload and isinstance(payload[0], EntityProfile):
            payload = protocol.encode_profiles(payload)
        return self.send("ingest", tenant=tenant, profiles=payload, at=at)

    def drain(self, tenant: str, until: float) -> dict:
        return self.call("drain", tenant=tenant, until=until)

    def matches(self, tenant: str) -> dict:
        return self.call("matches", tenant=tenant)

    def results(self, tenant: str) -> dict:
        return self.call("results", tenant=tenant)

    def snapshot(self, tenant: str) -> bytes:
        """The tenant's migratable snapshot (``TenantSnapshot.to_bytes``)."""
        response = self.call("snapshot", tenant=tenant)
        return base64.b64decode(response["snapshot"])

    def restore(self, tenant: str, snapshot: bytes) -> dict:
        return self.call(
            "restore",
            tenant=tenant,
            snapshot=base64.b64encode(snapshot).decode("ascii"),
        )

    def close_tenant(self, tenant: str) -> dict:
        return self.call("close", tenant=tenant)

    def shutdown(self) -> dict:
        """Ask the server to stop (replies before stopping)."""
        return self.call("shutdown")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
