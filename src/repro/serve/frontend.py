"""The wire front end both serving tiers share.

:class:`FrontEnd` is what a single
:class:`~repro.serve.server.SchedulingService` and a
:class:`~repro.serve.federation.service.FederationService` have in
common on the wire: the op table :func:`~repro.serve.protocol.serve_connection`
dispatches through, the TCP listener, the idempotent drain latch and the
atomic snapshot write.  ``metrics`` and ``drain`` are registered here
once; a tier adds the ops that differ (``ping``, ``submit``, ``status``,
``wait``, and ``membership`` on the federation) and supplies two hooks,
:meth:`FrontEnd.metrics_snapshot` and :meth:`FrontEnd._drain_backend`.
"""

from __future__ import annotations

import asyncio
import functools
import types
from pathlib import Path
from typing import Any, Awaitable, Callable, ClassVar, Mapping

from repro.ioutil import atomic_write_json
from repro.serve.protocol import OpHandler, ok_response, serve_connection

__all__ = ["FrontEnd"]


class FrontEnd:
    """TCP listener, op table and drain latch of one serving tier."""

    #: op name -> handler (unbound); each tier extends it with its own ops
    OPS: ClassVar[Mapping[str, Callable[[Any, dict[str, Any]], Awaitable[dict[str, Any]]]]]

    def __init__(self) -> None:
        #: the table bound to this instance, as serve_connection takes it
        self.ops: dict[str, OpHandler] = {
            op: types.MethodType(handler, self) for op, handler in self.OPS.items()
        }
        self._server: asyncio.base_events.Server | None = None
        self._drained = asyncio.Event()
        self._drain_started = False

    # ------------------------------------------------------------------
    # hooks a tier supplies
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict[str, Any]:
        raise NotImplementedError

    async def _drain_backend(self) -> None:
        """Stop admission and let every admitted job finish."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # listener lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Open the TCP listener; returns its bound (host, port)."""
        self._server = await asyncio.start_server(
            functools.partial(serve_connection, ops=self.ops), host, port
        )
        addr = self._server.sockets[0].getsockname()
        return addr[0], addr[1]

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError(f"{type(self).__name__} has no TCP listener")
        return self._server.sockets[0].getsockname()[1]

    def _close_listener(self) -> None:
        # close() stops accepting at once; Server.wait_closed() would also
        # wait for every open connection (Python >= 3.12.1), among them
        # the one whose drain request is running this code
        if self._server is not None:
            self._server.close()
            self._server = None

    async def drain(self) -> dict[str, Any]:
        """Graceful shutdown: drain the backend, then close the listener.

        Idempotent — concurrent callers, in-process or over the wire, all
        await the same completion and receive the final snapshot.
        """
        if not self._drain_started:
            self._drain_started = True
            await self._drain_backend()
            self._close_listener()
            self._drained.set()
        await self._drained.wait()
        return self.metrics_snapshot()

    async def wait_drained(self) -> None:
        """Block until a drain, whoever started it, has finished."""
        await self._drained.wait()

    def persist_snapshot(self, path: str | Path) -> Path:
        """Atomically write the current metrics snapshot as JSON.

        Tmp file + fsync + rename: a server killed mid-write leaves
        either the previous snapshot or the new one, never torn JSON.
        """
        return atomic_write_json(Path(path), self.metrics_snapshot())

    # ------------------------------------------------------------------
    # the ops both tiers answer the same way
    # ------------------------------------------------------------------
    async def _op_metrics(self, message: dict[str, Any]) -> dict[str, Any]:
        return ok_response(metrics=self.metrics_snapshot())

    async def _op_drain(self, message: dict[str, Any]) -> dict[str, Any]:
        return ok_response(metrics=await self.drain())

    OPS = {"metrics": _op_metrics, "drain": _op_drain}
