"""The federation's wire front-end: one port, the whole fleet behind it.

:class:`FederationService` is the same :class:`~repro.serve.frontend.FrontEnd`
as a single :class:`~repro.serve.server.SchedulingService` — one op table,
one listener, one drain latch — with the router behind it.  It answers
``ping`` / ``submit`` / ``status`` / ``wait`` for the fleet (``wait``
follows a job across re-placements and keeps the failure detector
pumping while it blocks) and adds exactly one op, ``membership``,
exposing the failure detector's view (member states, epochs, respawns,
warm-migration counters).  So every client built for a single service
(the :class:`~repro.serve.client.ServiceClient`, the load generator, the
smoke scripts) drives a federation unchanged; only the job ids
(``fed-00001``) and the extra ``shard`` / ``placements`` fields betray
the fleet underneath.

Graceful drain drains every live shard (admitted jobs finish, new
submissions bounce with the typed ``draining`` rejection), then closes
the router listener.
"""

from __future__ import annotations

from typing import Any

from repro.serve.federation.router import FederationRouter
from repro.serve.frontend import FrontEnd
from repro.serve.protocol import (
    JobRequest,
    ProtocolError,
    ok_response,
    wait_timeout,
)

__all__ = ["FederationService"]


class FederationService(FrontEnd):
    """TCP listener serving the line protocol from a router."""

    def __init__(self, router: FederationRouter):
        super().__init__()
        self.router = router

    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        expose_shards: bool = False,
    ) -> tuple[str, int]:
        """Start every shard, then the router listener; returns (host, port)."""
        await self.router.start(expose_shards=expose_shards, host=host)
        return await super().start(host, port)

    async def _drain_backend(self) -> None:
        await self.router.drain()

    def metrics_snapshot(self) -> dict[str, Any]:
        return self.router.metrics_snapshot()

    # ------------------------------------------------------------------
    # wire ops (metrics and drain are FrontEnd's)
    # ------------------------------------------------------------------
    async def _op_ping(self, message: dict[str, Any]) -> dict[str, Any]:
        return ok_response(
            pong=True,
            federation=True,
            fleet=[s.describe() for s in self.router.live_shards],
        )

    async def _op_submit(self, message: dict[str, Any]) -> dict[str, Any]:
        job = await self.router.submit(JobRequest.from_wire(message.get("job") or {}))
        local = self.router.status(job.fed_id)
        return ok_response(job_id=job.fed_id, state=local["state"], shard=job.shard_id)

    async def _op_status(self, message: dict[str, Any]) -> dict[str, Any]:
        # status traffic pumps detection: closed-loop clients polling
        # stranded jobs would otherwise freeze the placement clock and
        # the death would never confirm
        await self.router.pump_detection()
        return ok_response(job=self.router.status(message.get("job_id", "")))

    async def _op_wait(self, message: dict[str, Any]) -> dict[str, Any]:
        timeout = wait_timeout(message)
        return ok_response(job=await self.router.wait(message.get("job_id", ""), timeout))

    async def _op_membership(self, message: dict[str, Any]) -> dict[str, Any]:
        snapshot = self.router.membership_snapshot()
        if snapshot is None:
            raise ProtocolError("this federation runs without a membership layer")
        return ok_response(membership=snapshot)

    OPS = {**FrontEnd.OPS, "ping": _op_ping, "submit": _op_submit,
           "status": _op_status, "wait": _op_wait, "membership": _op_membership}
