"""Set-up, timed phases and correctness checks of the three workloads.

Everything here reaches the program only through its public API: the
service or fleet is built in-process and driven over loopback TCP with
``ServiceClient``; results are re-derived with ``Runner.job_specs`` and
``execute_spec`` on the reference engine.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.errors import ServeError
from repro.exp.runner import LEASE_SCHEDULERS, ExperimentConfig, Runner, execute_spec
from repro.serve import JobRequest, LeaseLedger, SchedulingService, ServiceClient
from repro.serve.federation import FederationRouter, FederationService, Membership, build_shards
from repro.topology.affinity import NodeMask
from repro.topology.presets import default_distances, zen4_9354

from . import mixes
from .loops import Sample, closed_loop, open_loop
from .tracing import Recorder

CLOCK = time.monotonic  # the service's default clock
CONNECTIONS = 2  # = nproc of the reference box; also the closed-loop client count
CLIENT_ERRORS = (ServeError, ConnectionError, asyncio.IncompleteReadError)


@dataclass(frozen=True)
class Workload:
    name: str
    slo_s: float  # latency limit behind slo_met_frac
    rate: float | None = None  # open-loop arrivals per second; None = closed loop
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serve-mixed",
            slo_s=3.0,
            why="closed loop, 2 clients, 1 service on zen4_9354, no cache: every job simulates, "
            "so the sim layers dominate; latency limit 3 s",
        ),
        Workload(
            "serve-hot",
            slo_s=0.1,
            why="closed loop, 2 clients, 1 service whose run cache set-up fills: every job is a "
            "verified cache hit, so only wire, queue, lease and notify; latency limit 0.1 s",
        ),
        Workload(
            "fed-open",
            slo_s=2.0,
            rate=3.2,
            why="open loop, 3.2 jobs/s (0.38 of an 8.4 jobs/s capacity), one send at a seeded time "
            "in each 1/rate slot, 2 shards with membership: router, admission and lease waits; "
            "latency limit 2 s",
        ),
    )
}


def make_request(job: dict[str, Any]) -> JobRequest:
    return JobRequest.from_wire(job)


def job_sequence(workload: str, seed: int) -> Iterator[dict[str, Any]]:
    return {
        "serve-mixed": mixes.serve_mixed_jobs,
        "serve-hot": mixes.serve_hot_jobs,
        "fed-open": mixes.fed_open_jobs,
    }[workload](seed)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
@dataclass
class Deployment:
    """A started service or fleet plus the benchmark's connections."""

    clients: list[ServiceClient]
    drain: Callable[[], Any]  # coroutine function returning the final snapshot
    services: dict[str, SchedulingService]  # label -> service (shard instance id)
    router: FederationRouter | None = None
    cache_dir: Path | None = None  # removed on close

    async def close(self) -> dict[str, Any]:
        # hang up first, and give the server-side connection handlers a
        # moment to see EOF and return: a handler still running when the
        # event loop closes is cancelled with a traceback
        for client in self.clients:
            await client.close()
        snapshot = await self.drain()
        await asyncio.sleep(0.01)
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        return snapshot

    def label(self, recorder: Recorder) -> None:
        for name, svc in self.services.items():
            recorder.labels[id(svc.arbiter)] = name
            recorder.labels[id(svc.admission)] = name


def grantable_leases(topology: Any, nodes_wanted: int, holders: int) -> set[tuple[int, ...]]:
    """Every lease the service's arbiter can grant a ``nodes_wanted`` job
    while up to ``holders`` such jobs hold leases at once.

    A search over grant/release sequences, each replayed on a fresh
    ``LeaseLedger`` built like the service's own, for every preferred
    (warm-start) node.  What a grant returns depends only on which leases
    are held, so held sets already explored are skipped.
    """
    distances = default_distances(topology)

    def replay(ops: tuple) -> LeaseLedger:
        ledger = LeaseLedger(topology, distances)
        for op, job, seed in ops:
            if op == "grant":
                ledger.grant(job, nodes_wanted, preferred=seed)
            else:
                ledger.release(job)
        return ledger

    found: set[tuple[int, ...]] = set()
    explored: set[frozenset] = set()
    frontier: list[tuple] = [()]
    while frontier:
        ops = frontier.pop()
        held = replay(ops).leases()
        state = frozenset(tuple(lease.nodes) for lease in held.values())
        if state in explored:
            continue
        explored.add(state)
        frontier.extend(ops + (("release", job, None),) for job in held)
        if len(held) >= holders:
            continue
        job = f"job-{len(ops)}"
        for seed in range(topology.num_nodes):
            mask = replay(ops).grant(job, nodes_wanted, preferred=seed)
            if mask is not None:
                found.add(tuple(mask.indices()))
                frontier.append(ops + (("grant", job, seed),))
    return found


def fill_hot_cache(cache_dir: Path, shapes: list[dict[str, Any]]) -> int:
    """Cache every shape under every lease it can be granted."""
    runner = Runner(ExperimentConfig(cache_dir=str(cache_dir)), topology=zen4_9354())
    assert runner.cache is not None
    topology = runner.topology
    stored = 0
    for shape in shapes:
        for lease in sorted(grantable_leases(topology, shape["nodes"], CONNECTIONS)):
            bits = NodeMask.from_indices(list(lease), topology.num_nodes).bits
            for spec in runner.job_specs(
                shape["benchmark"], shape["scheduler"], seeds=shape["seeds"],
                timesteps=shape["timesteps"], lease_bits=bits,
            ):
                runner.cache.put(spec.key(runner.topology_fp), execute_spec(spec))
                stored += 1
    return stored


async def deploy(workload: str, seed: int, work_dir: Path) -> Deployment:
    """Build, start and warm up the system under test for ``workload``."""
    if workload == "fed-open":
        shards = build_shards(2, zen4_9354, config=ExperimentConfig())
        router = FederationRouter(shards, membership=Membership())
        fed = FederationService(router)
        host, port = await fed.start()
        clients = [await ServiceClient.connect(host, port) for _ in range(CONNECTIONS)]
        services = {s.instance_id: s.service for s in shards}
        dep = Deployment(clients, fed.drain, services, router=router)
        await warm_every_shard(dep.clients[0], len(shards))
        return dep
    else:
        cache_dir = None
        config = ExperimentConfig()
        warmup = [mixes.job_dict("matmul", "ilan", 1, 1, "warmup")]
        if workload == "serve-hot":
            work_dir.mkdir(parents=True, exist_ok=True)
            cache_dir = Path(tempfile.mkdtemp(prefix="hot-cache-", dir=work_dir))
            shapes = mixes.serve_hot_shapes(seed)
            fill_hot_cache(cache_dir, shapes)
            config = ExperimentConfig(cache_dir=str(cache_dir))
            warmup = shapes
        svc = SchedulingService(zen4_9354(), config=config)
        host, port = await svc.start()
        clients = [await ServiceClient.connect(host, port) for _ in range(CONNECTIONS)]
        dep = Deployment(clients, svc.drain, {"svc": svc}, cache_dir=cache_dir)
    for job in warmup:
        await dep.clients[0].wait(await dep.clients[0].submit(make_request(job)))
    return dep


async def warm_every_shard(client: ServiceClient, shards: int) -> None:
    """Run one small job on every shard; the router places by tenant, so
    try warm-up tenants until each shard has served one."""
    warmed: set[str] = set()
    for i in range(16 * shards):
        if len(warmed) == shards:
            return
        job = mixes.job_dict("matmul", "ilan", 1, 2, f"warmup-{i}")
        record = await client.wait(await client.submit(make_request(job)))
        warmed.add(record["shard"])
    raise RuntimeError(f"warm-up reached only shards {sorted(warmed)}")


# ----------------------------------------------------------------------
# timed phases
# ----------------------------------------------------------------------
async def run_phase(
    dep: Deployment, spec: Workload, jobs: Any, seconds: float, seed: int
) -> tuple[list[Sample], float]:
    """Drive one timed phase; returns the samples and the phase start."""
    start = CLOCK()
    if spec.rate is None:
        samples = await closed_loop(
            dep.clients, jobs, until=start + seconds, make_request=make_request,
            client_errors=CLIENT_ERRORS, clock=CLOCK,
        )
    else:
        submitter, tracker = dep.clients

        async def submit(job: dict[str, Any]) -> str:
            return await submitter.submit(make_request(job))

        samples = await open_loop(
            mixes.jittered_offsets(seed, spec.rate, seconds), jobs, start=start,
            submit=submit, status=tracker.status, client_errors=CLIENT_ERRORS, clock=CLOCK,
        )
    return samples, start


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def summarize_runs(runs: list[Any]) -> dict[str, Any]:
    """The service's per-job ``result`` document, re-derived here rather
    than taken from the server, so the check does not trust the code it
    checks."""
    times = [r.total_time for r in runs]
    return {
        "runs": len(runs),
        "total_time_mean_s": sum(times) / len(times),
        "total_time_min_s": min(times),
        "total_time_max_s": max(times),
        "weighted_avg_threads": sum(r.weighted_avg_threads for r in runs) / len(runs),
    }


def check_results(samples: list[Sample], workload: str, seed: int) -> list[str]:
    """Re-simulate a seeded sample of the served (spec, lease) pairs on the
    reference engine and require bit-identical results; at least one per
    benchmark.  Identical pairs must also have been served identically."""
    problems: list[str] = []
    served: dict[tuple, dict[str, Any]] = {}
    for s in samples:
        if not s.completed:
            continue
        req = s.record["request"]
        key = (req["benchmark"], req["scheduler"], req["seeds"], req["timesteps"],
               tuple(s.record["lease_nodes"] or ()))
        if key in served and served[key] != s.record["result"]:
            problems.append(f"{key} was served two different results")
        served.setdefault(key, s.record["result"])
    rng = mixes.rng_for(workload, seed, "check")
    by_bench: dict[str, list[tuple]] = {}
    for key in sorted(served):
        by_bench.setdefault(key[0], []).append(key)
    runner = Runner(ExperimentConfig(engine="reference"), topology=zen4_9354())
    nodes = runner.topology.num_nodes
    for bench in sorted(by_bench):
        key = rng.choice(by_bench[bench])
        benchmark, scheduler, seeds, timesteps, lease = key
        bits = (
            NodeMask.from_indices(list(lease), nodes).bits
            if scheduler in LEASE_SCHEDULERS and lease else None
        )
        specs = runner.job_specs(benchmark, scheduler, seeds=seeds, timesteps=timesteps, lease_bits=bits)
        expected = summarize_runs([execute_spec(spec) for spec in specs])
        if expected != served[key]:
            problems.append(f"{key}: served {served[key]} but the reference engine gives {expected}")
    return problems


def check_all_hits(before: dict[str, int], after: dict[str, int], samples: list[Sample]) -> list[str]:
    """serve-hot: every run served in the timed phases was a verified hit."""
    served = sum(s.record["request"]["seeds"] for s in samples if s.completed)
    hits = after["hits"] - before["hits"]
    if after["misses"] == before["misses"] and after["stores"] == before["stores"] and hits == served:
        return []
    return [f"serve-hot: not every job was a verified cache hit ({before} -> {after}, {served} runs served)"]


def check_snapshot(dep: Deployment, snapshot: dict[str, Any]) -> list[str]:
    """Conservation of every admitted job and no lease left after drain."""
    problems: list[str] = []
    shard_snaps = snapshot["shards"] if dep.router is not None else {"svc": snapshot}
    for label, snap in shard_snaps.items():
        jobs = snap["jobs"]
        accounted = jobs["completed"] + jobs["failed"] + jobs["active"] + jobs["queued"] + jobs["evicted"]
        if jobs["submitted"] != accounted:
            problems.append(f"{label}: submitted {jobs['submitted']} != accounted {accounted}")
        if jobs["active"] or jobs["queued"]:
            problems.append(f"{label}: {jobs['active']} active / {jobs['queued']} queued after drain")
        held = {n: o for n, o in snap["nodes"]["leases"].items() if o is not None}
        if held or snap["nodes"]["waiting_for_lease"]:
            problems.append(f"{label}: leases still held after drain: {held}")
    if dep.router is not None:
        router = snapshot["router"]
        if sum(router["job_states"].values()) != router["submitted"]:
            problems.append(f"router: job states {router['job_states']} != submitted {router['submitted']}")
    return problems
