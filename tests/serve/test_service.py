"""End-to-end tests of the multi-tenant scheduling service.

Covers the PR's acceptance scenario: three concurrent clients submit four
jobs each over the wire; every job completes; jobs whose lease-held
periods overlap in time hold pairwise-disjoint NUMA-node leases; a
saturated admission queue rejects with the typed error (and never
deadlocks); the metrics snapshot accounts for every submitted job; and a
graceful drain leaves zero pending jobs.
"""

import asyncio
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

from repro.exp.runner import ExperimentConfig
from repro.serve.client import ServiceClient
from repro.serve.protocol import AdmissionRejected, JobRequest, JobState, ProtocolError
from repro.serve.server import SchedulingService
from repro.topology.presets import dual_socket_small

TIMEOUT = 60  # generous hang guard; the whole module runs in seconds


def _fast_config(**overrides):
    base = dict(seeds=1, timesteps=3, with_noise=False, jobs=1, cache_dir=None)
    base.update(overrides)
    return ExperimentConfig(**base)


def _service(**kwargs):
    kwargs.setdefault("config", _fast_config())
    return SchedulingService(dual_socket_small(), **kwargs)


def _spy_on_leases(service):
    """Record every (held-from, held-until, nodes) lease interval.

    The recorded interval is a subset of the real held period (recorded
    after the grant, before the release), so any overlap between recorded
    intervals is a true concurrency witness.
    """
    intervals = []
    held = {}
    real_acquire, real_release = service.arbiter.acquire, service.arbiter.release

    async def acquire(job_id, nodes_wanted, preferred=None):
        mask = await real_acquire(job_id, nodes_wanted, preferred=preferred)
        held[job_id] = (time.monotonic(), mask.indices())
        return mask

    async def release(job_id):
        t0, nodes = held.pop(job_id)
        intervals.append({"job_id": job_id, "start": t0,
                          "end": time.monotonic(), "nodes": nodes})
        return await real_release(job_id)

    service.arbiter.acquire = acquire
    service.arbiter.release = release
    return intervals


# ----------------------------------------------------------------------
# the acceptance scenario, over TCP
# ----------------------------------------------------------------------
def test_three_clients_four_jobs_each_all_complete_with_disjoint_leases():
    async def run():
        service = _service(workers=4)
        intervals = _spy_on_leases(service)
        host, port = await service.start("127.0.0.1", 0)

        async def client(tenant):
            jobs = []
            async with await ServiceClient.connect(host, port) as cli:
                for _ in range(4):
                    job_id = await cli.submit(
                        JobRequest(benchmark="matmul", seeds=1, timesteps=3,
                                   nodes=2, tenant=tenant)
                    )
                    jobs.append(await cli.wait(job_id, timeout=TIMEOUT))
            return jobs

        per_client = await asyncio.wait_for(
            asyncio.gather(*(client(f"tenant-{i}") for i in range(3))),
            timeout=TIMEOUT,
        )
        jobs = [job for batch in per_client for job in batch]

        # every one of the 12 jobs completed, on a 2-node lease
        assert len(jobs) == 12
        assert all(job["state"] == "completed" for job in jobs)
        assert all(len(job["lease_nodes"]) == 2 for job in jobs)
        machine_nodes = set(range(service.topology.num_nodes))
        assert all(set(job["lease_nodes"]) <= machine_nodes for job in jobs)

        # time-overlapping lease holds are pairwise node-disjoint
        overlaps = 0
        for i, a in enumerate(intervals):
            for b in intervals[i + 1:]:
                if a["start"] < b["end"] and b["start"] < a["end"]:
                    overlaps += 1
                    assert not (set(a["nodes"]) & set(b["nodes"])), (
                        f"overlapping jobs {a['job_id']} and {b['job_id']} "
                        f"share nodes"
                    )
        # with 4 workers on a 4-node machine and 2-node jobs, at least two
        # jobs must actually have run concurrently
        assert overlaps > 0

        # graceful drain over the wire: zero pending jobs afterwards
        async with await ServiceClient.connect(host, port) as cli:
            snapshot = await asyncio.wait_for(cli.drain(), timeout=TIMEOUT)
        jobs_m = snapshot["jobs"]
        assert jobs_m["submitted"] == 12
        assert jobs_m["completed"] == 12
        assert jobs_m["failed"] == 0
        assert (jobs_m["active"], jobs_m["queued"]) == (0, 0)
        # conservation: every submitted job is accounted for
        assert jobs_m["submitted"] == (jobs_m["completed"] + jobs_m["failed"]
                                       + jobs_m["active"] + jobs_m["queued"])
        assert snapshot["queue"]["depth"] == 0
        assert snapshot["per_job"].keys() == {job["job_id"] for job in jobs}
        assert all(v is None for v in snapshot["nodes"]["leases"].values())
        assert snapshot["nodes"]["waiting_for_lease"] == []

    asyncio.run(run())


# ----------------------------------------------------------------------
# saturation and drain backpressure
# ----------------------------------------------------------------------
def test_saturated_queue_rejects_typed_and_never_deadlocks():
    async def run():
        service = _service(queue_capacity=2, workers=1)
        req = JobRequest(benchmark="matmul", seeds=1, timesteps=3, nodes=1)
        # workers not started yet: submissions pile up in the bounded queue
        admitted = [service.submit(req), service.submit(req)]
        with pytest.raises(AdmissionRejected) as exc_info:
            service.submit(req)
        exc = exc_info.value
        assert exc.code == "queue_full"
        assert (exc.depth, exc.capacity) == (2, 2)
        # the rejection is accounted, separately from admissions
        assert service.metrics.rejected == {"queue_full": 1}
        assert service.metrics.submitted == 2

        # the saturated service is not wedged: workers drain it completely
        service.start_workers()
        snapshot = await asyncio.wait_for(service.drain(), timeout=TIMEOUT)
        assert snapshot["jobs"]["completed"] == 2
        assert snapshot["queue"]["depth"] == 0
        assert {r.state for r in (service.records[a.job_id] for a in admitted)} == {
            JobState.COMPLETED
        }

    asyncio.run(run())


def test_draining_service_rejects_new_submissions():
    async def run():
        service = _service(workers=1)
        service.start_workers()
        await asyncio.wait_for(service.drain(), timeout=TIMEOUT)
        with pytest.raises(AdmissionRejected) as exc_info:
            service.submit(JobRequest(benchmark="matmul", timesteps=3))
        assert exc_info.value.code == "draining"
        # drain is idempotent: a second call returns another snapshot
        again = await asyncio.wait_for(service.drain(), timeout=TIMEOUT)
        assert again["service"]["draining"] is True

    asyncio.run(run())


# ----------------------------------------------------------------------
# submission validation
# ----------------------------------------------------------------------
def test_submit_validates_against_the_machine():
    service = _service()
    with pytest.raises(ProtocolError, match="unknown benchmark"):
        service.submit(JobRequest(benchmark="nosuch"))
    with pytest.raises(ProtocolError, match="NUMA node"):
        service.submit(JobRequest(benchmark="matmul", nodes=5))
    with pytest.raises(ProtocolError, match="unknown scheduler"):
        service.submit(JobRequest(benchmark="matmul", scheduler="nosuch"))
    # non-leasable schedulers must take the whole machine...
    with pytest.raises(ProtocolError, match="cannot be confined"):
        service.submit(JobRequest(benchmark="matmul", scheduler="baseline", nodes=1))
    assert service.metrics.submitted == 0  # nothing was admitted


def test_non_leasable_scheduler_runs_exclusively():
    async def run():
        service = _service(workers=2)
        service.start_workers()
        record = service.submit(
            JobRequest(benchmark="matmul", scheduler="baseline", nodes=4,
                       timesteps=3)
        )
        while not record.state.terminal:
            await asyncio.sleep(0.01)
        assert record.state is JobState.COMPLETED
        assert record.lease_nodes == [0, 1, 2, 3]
        await asyncio.wait_for(service.drain(), timeout=TIMEOUT)

    asyncio.run(run())


# ----------------------------------------------------------------------
# failure isolation, PTT seeding, caching
# ----------------------------------------------------------------------
def test_failed_job_does_not_kill_its_worker():
    async def run():
        service = _service(workers=1)
        real_run_specs = service.runner.run_specs
        calls = {"n": 0}

        def flaky(specs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected simulation failure")
            return real_run_specs(specs)

        service.runner.run_specs = flaky
        service.start_workers()
        bad = service.submit(JobRequest(benchmark="matmul", timesteps=3))
        good = service.submit(JobRequest(benchmark="matmul", timesteps=3))
        snapshot = await asyncio.wait_for(service.drain(), timeout=TIMEOUT)

        assert bad.state is JobState.FAILED
        assert "injected simulation failure" in bad.error
        assert good.state is JobState.COMPLETED
        assert snapshot["jobs"]["failed"] == 1
        assert snapshot["jobs"]["completed"] == 1
        # the failed job's lease was released
        assert all(v is None for v in snapshot["nodes"]["leases"].values())

    asyncio.run(run())


def test_completed_job_seeds_the_tenants_next_lease():
    async def run():
        service = _service(workers=1)
        service.start_workers()
        first = service.submit(
            JobRequest(benchmark="matmul", timesteps=3, nodes=2, tenant="alice")
        )
        while not first.state.terminal:
            await asyncio.sleep(0.01)
        hint = service.tenant_state.hint("alice", "matmul")
        assert hint in first.lease_nodes  # learned from the job's own PTT
        second = service.submit(
            JobRequest(benchmark="matmul", timesteps=3, nodes=2, tenant="alice")
        )
        while not second.state.terminal:
            await asyncio.sleep(0.01)
        # the whole machine was free, so the preferred seed was honoured
        assert hint in second.lease_nodes
        await asyncio.wait_for(service.drain(), timeout=TIMEOUT)

    asyncio.run(run())


def test_repeated_job_is_served_from_the_run_cache(tmp_path):
    async def run():
        service = _service(
            workers=1, config=_fast_config(cache_dir=str(tmp_path / "cache"))
        )
        service.start_workers()
        req = JobRequest(benchmark="matmul", timesteps=3, nodes=2, tenant="alice")
        for _ in range(2):
            record = service.submit(req)
            while not record.state.terminal:
                await asyncio.sleep(0.01)
            assert record.state is JobState.COMPLETED
        stats = service.runner.cache.stats
        assert stats.stores >= 1
        assert stats.hits >= 1  # the second submission resimulated nothing
        await asyncio.wait_for(service.drain(), timeout=TIMEOUT)

    asyncio.run(run())


# ----------------------------------------------------------------------
# wire-level edges
# ----------------------------------------------------------------------
def test_wire_ping_status_and_errors():
    async def run():
        service = _service(workers=1)
        host, port = await service.start("127.0.0.1", 0)
        async with await ServiceClient.connect(host, port) as cli:
            pong = await cli.ping()
            assert pong["ok"] is True

            with pytest.raises(ProtocolError, match="unknown job"):
                await cli.status("job-99999")

            with pytest.raises(ProtocolError):
                await cli.request({"op": "nosuch"})

            with pytest.raises(ProtocolError):  # malformed submit payload
                await cli.request({"op": "submit", "job": {"benchmark": "ft",
                                                           "bogus": 1}})

            job_id = await cli.submit(JobRequest(benchmark="matmul", timesteps=3))
            job = await cli.wait(job_id, timeout=TIMEOUT)
            assert job["state"] == "completed"
            assert job["result"]["runs"] == 1

            metrics = await cli.metrics()
            assert metrics["jobs"]["submitted"] == 1
        async with await ServiceClient.connect(host, port) as cli:
            await asyncio.wait_for(cli.drain(), timeout=TIMEOUT)

    asyncio.run(run())


def test_drain_during_faults_accounts_for_every_admitted_job():
    """Drain issued while a crash plan is biting mid-flight: every admitted
    job must still reach a terminal state, with nothing lost to the crash
    window between lease reclamation and requeue."""
    from repro.serve.faults import FaultKind, FaultPlan

    async def run():
        plan = FaultPlan({FaultKind.WORKER_CRASH: 1.0}, seed=0, fault_attempts=1)
        service = _service(workers=2, fault_plan=plan, max_attempts=3)
        service.start_workers()
        records = [
            service.submit(JobRequest(benchmark="matmul", timesteps=3, nodes=1))
            for _ in range(4)
        ]
        # drain immediately: the crashes (and their requeues) happen while
        # the service is already refusing new work
        snapshot = await asyncio.wait_for(service.drain(), timeout=60)

        assert all(r.state is JobState.COMPLETED for r in records)
        jobs = snapshot["jobs"]
        assert jobs["submitted"] == 4
        assert jobs["completed"] == 4
        assert jobs["active"] == 0 and jobs["queued"] == 0
        assert jobs["submitted"] == (
            jobs["completed"] + jobs["failed"] + jobs["active"] + jobs["queued"]
        )
        assert snapshot["recovery"]["requeued"] == 4
        assert snapshot["recovery"]["leases_reclaimed"] == 4
        assert all(o is None for o in snapshot["nodes"]["leases"].values())
        # drained for real: new submissions still get the typed rejection
        with pytest.raises(AdmissionRejected, match="drain"):
            service.submit(JobRequest(benchmark="matmul"))

    asyncio.run(run())


def test_importing_the_service_leaves_scipy_unloaded():
    """scipy is an optional extra used only by the offline t-test; the
    service (and every shard respawn) must start without paying for it."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.serve, repro.serve.federation, repro.exp; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert probe.stdout.strip() == "[]"
