"""Load generation: closed-loop clients and an open-loop schedule.

Both drive the service through the public ``ServiceClient`` from one
process, one coroutine per connection and no threads; each connection is
used by exactly one coroutine, because a client is not safe for
concurrent use.  Clocks and sleeps are injectable so tests can run the
due-time accounting on virtual time.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Iterator, Sequence

TERMINAL = ("completed", "failed")
#: The open-loop tracker polls each pending job on the schedule
#: ``ServiceClient.wait`` uses: 20 ms, doubling up to 0.5 s.
TRACK_POLL_S = 0.02
TRACK_POLL_MAX_S = 0.5
#: Closed-loop clients poll at this fixed interval (see ``closed_loop``).
WAIT_POLL_S = 0.02

Clock = Callable[[], float]
Sleep = Callable[[float], Awaitable[Any]]


@dataclass
class Sample:
    """One attempted job as the load generator saw it."""

    job: dict[str, Any]
    due: float  # when the job was due to be sent
    sent: float = 0.0  # when the submit call started
    acked: float | None = None  # when the submit call returned
    seen: float | None = None  # when the client held the terminal record
    job_id: str | None = None
    record: dict[str, Any] | None = None
    error: str | None = None  # rejection or client-side failure

    @property
    def completed(self) -> bool:
        return self.record is not None and self.record["state"] == "completed"

    @property
    def send_lag(self) -> float:
        return self.sent - self.due


async def closed_loop(
    clients: Sequence[Any],
    jobs: Iterator[dict[str, Any]],
    *,
    until: float,
    make_request: Callable[[dict[str, Any]], Any],
    client_errors: tuple[type[BaseException], ...],
    clock: Clock,
) -> list[Sample]:
    """Each client submits its next job as soon as it holds the previous
    one's terminal record, until ``until``; jobs are dealt in sequence
    order to whichever client asks first.

    Clients wait with ``ServiceClient.wait`` at a fixed ``WAIT_POLL_S``
    interval.  Its default doubling backoff would see a job only at poll
    points 0.14, 0.30, 0.62, 1.12 s... after submit, so a job's observed
    latency, and the median of a run, would jump between those points.
    """
    samples: list[Sample] = []

    async def drive(client: Any) -> None:
        due = clock()
        while clock() < until:
            sample = Sample(job=next(jobs), due=due, sent=clock())
            samples.append(sample)
            try:
                sample.job_id = await client.submit(make_request(sample.job))
                sample.acked = clock()
                sample.record = await client.wait(
                    sample.job_id, poll_interval=WAIT_POLL_S, max_poll_interval=WAIT_POLL_S
                )
                sample.seen = clock()
            except client_errors as exc:
                sample.error = f"{type(exc).__name__}: {exc}"
            due = clock()

    await asyncio.gather(*(drive(c) for c in clients))
    return samples


async def open_loop(
    offsets: Sequence[float],
    jobs: Iterator[dict[str, Any]],
    *,
    start: float,
    submit: Callable[[dict[str, Any]], Awaitable[str]],
    status: Callable[[str], Awaitable[dict[str, Any]]],
    client_errors: tuple[type[BaseException], ...],
    clock: Clock,
    sleep: Sleep = asyncio.sleep,
    poll_s: float = TRACK_POLL_S,
    poll_max_s: float = TRACK_POLL_MAX_S,
) -> list[Sample]:
    """Send job ``i`` at ``start + offsets[i]`` whatever the service does,
    and track completions on a second connection, polling each pending
    job with the same backoff as ``ServiceClient.wait``.

    A job's due time is fixed by the schedule, so a stalled submit makes
    every later job late and that lateness counts in their latency
    (measured from ``due``); ``Sample.send_lag`` is how late it was sent.
    """
    samples: list[Sample] = []
    #: job id -> (sample, next poll time, current poll interval)
    pending: dict[str, tuple[Sample, float, float]] = {}
    sending_done = False
    wake = asyncio.Event()  # a new job to track, or sending finished

    async def send() -> None:
        nonlocal sending_done
        try:
            for offset in offsets:
                due = start + offset
                now = clock()
                if now < due:
                    await sleep(due - now)
                sample = Sample(job=next(jobs), due=due, sent=clock())
                samples.append(sample)
                try:
                    sample.job_id = await submit(sample.job)
                except client_errors as exc:
                    sample.error = f"{type(exc).__name__}: {exc}"
                    continue
                sample.acked = clock()
                pending[sample.job_id] = (sample, sample.acked, poll_s)
                wake.set()
        finally:
            sending_done = True
            wake.set()

    async def track() -> None:
        while not (sending_done and not pending):
            now = clock()
            for job_id, (sample, due_poll, interval) in list(pending.items()):
                if due_poll > now:
                    continue
                try:
                    record = await status(job_id)
                except client_errors as exc:
                    sample.error = f"{type(exc).__name__}: {exc}"
                    del pending[job_id]
                    continue
                if record["state"] in TERMINAL:
                    sample.record = record
                    sample.seen = clock()
                    del pending[job_id]
                else:
                    pending[job_id] = (sample, clock() + interval, min(interval * 2.0, poll_max_s))
            if not pending:
                wake.clear()
                if not sending_done:
                    await wake.wait()
                continue
            await sleep(max(0.0, min(p[1] for p in pending.values()) - clock()))

    await asyncio.gather(send(), track())
    return samples
