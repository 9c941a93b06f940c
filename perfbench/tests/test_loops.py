import asyncio
import heapq
import itertools

import pytest

from servebench.loops import WAIT_POLL_S, closed_loop, open_loop


class VirtualTime:
    """Discrete-event time: a sleeper wakes when every runnable coroutine
    has yielded and its wake-up is the earliest pending one."""

    def __init__(self):
        self.now = 100.0
        self._sleepers = []
        self._seq = 0

    def clock(self):
        return self.now

    async def sleep(self, seconds):
        future = asyncio.get_running_loop().create_future()
        self._seq += 1
        heapq.heappush(self._sleepers, (self.now + max(seconds, 0.0), self._seq, future))
        await future

    def run(self, coro):
        async def drive():
            task = asyncio.ensure_future(coro)
            while not task.done():
                for _ in range(20):  # let every runnable coroutine reach a sleep
                    await asyncio.sleep(0)
                if task.done() or not self._sleepers:
                    break
                wake, _, future = heapq.heappop(self._sleepers)
                self.now = max(self.now, wake)
                future.set_result(None)
            return await task

        return asyncio.run(drive())


def test_due_times_survive_an_injected_stall():
    vt = VirtualTime()
    offsets = [0.0, 0.1, 0.2, 0.3, 2.0]
    finished = {}

    async def submit(job):
        if job["i"] == 1:
            vt.now += 1.0  # the service stalls this submit for a second
        job_id = f"job-{job['i']}"
        finished[job_id] = vt.now + 0.05
        return job_id

    async def status(job_id):
        done = vt.now >= finished[job_id]
        return {"state": "completed" if done else "running", "finished_at": finished[job_id]}

    jobs = iter({"i": i} for i in range(len(offsets)))
    samples = vt.run(open_loop(
        offsets, jobs, start=vt.now, submit=submit, status=status,
        client_errors=(), clock=vt.clock, sleep=vt.sleep,
    ))
    start = 100.0
    assert [s.due - start for s in samples] == pytest.approx(offsets)
    # jobs 2 and 3 were due during the stall and went out right after it
    lags = [s.send_lag for s in samples]
    assert lags[0] == pytest.approx(0.0)
    assert lags[1] == pytest.approx(0.0)
    assert lags[2] == pytest.approx(1.1 - 0.2)
    assert lags[3] == pytest.approx(1.1 - 0.3)
    assert lags[4] == pytest.approx(0.0)
    # latency counts from the due time, so the stall shows in later jobs
    latencies = [s.record["finished_at"] - s.due for s in samples]
    assert latencies[2] == pytest.approx(0.9 + 0.05)
    assert latencies[4] == pytest.approx(0.05)
    assert all(s.completed and s.seen >= s.record["finished_at"] for s in samples)


def test_rejected_submissions_are_attempts_without_a_record():
    vt = VirtualTime()

    class Rejected(Exception):
        pass

    async def submit(job):
        raise Rejected("queue_full")

    async def status(job_id):  # pragma: no cover - nothing is ever admitted
        raise AssertionError

    samples = vt.run(open_loop(
        [0.0, 0.5], iter([{}, {}]), start=vt.now, submit=submit, status=status,
        client_errors=(Rejected,), clock=vt.clock, sleep=vt.sleep,
    ))
    assert len(samples) == 2
    assert all(not s.completed and "queue_full" in s.error for s in samples)


def test_closed_loop_waits_at_a_fixed_poll_interval():
    waits = []

    class Client:
        async def submit(self, request):
            return f"job-{request['i']}"

        async def wait(self, job_id, **kwargs):
            waits.append(kwargs)
            return {"state": "completed"}

    ticks = itertools.count()
    samples = asyncio.run(closed_loop(
        [Client(), Client()], iter({"i": i} for i in range(100)), until=20,
        make_request=lambda job: job, client_errors=(), clock=lambda: next(ticks),
    ))
    assert samples and all(s.completed for s in samples)
    assert waits == [{"poll_interval": WAIT_POLL_S, "max_poll_interval": WAIT_POLL_S}] * len(samples)
