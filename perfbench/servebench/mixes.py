"""Seeded job sequences and arrival schedules of the three workloads.

Every generator takes the workload seed and yields an endless sequence of
plain job dictionaries (the fields of ``repro.serve.protocol.JobRequest``), so the
program under test receives only the generated jobs.  Mixes are
*stratified*: jobs are dealt in rounds, each round a seeded permutation of
one fixed multiset of shapes.  Whatever prefix of the sequence a run gets
through, its composition stays close to the design, so two seeds differ in
order and interleaving, not in how much work they ask for.
"""

from __future__ import annotations

import random
from typing import Any, Iterator

#: The seven paper benchmarks (hard-coded: a registry change must not
#: silently change the workload).
PAPER_BENCHMARKS = ("ft", "bt", "cg", "lu", "sp", "matmul", "lulesh")
MIXED_SCHEDULERS = ("ilan", "ilan-adaptive", "baseline")
#: Each benchmark deals its timesteps from cycles of five, alternating
#: these two multisets: mostly short jobs with a tail of long ones.
MIXED_TIMESTEP_CYCLES = ((1, 1, 1, 2, 3), (1, 1, 1, 2, 4))
MIXED_TENANTS = 8
#: Node counts a leasable job asks for, dealt per benchmark in shuffled cycles.
MIXED_LEASE_NODES = (1, 2, 3, 4)
#: ``baseline`` cannot be confined to a lease, so it asks for the whole
#: machine (the default ``zen4_9354`` has 8 NUMA nodes).
WHOLE_MACHINE_NODES = 8

HOT_BENCHMARKS = ("matmul", "ft", "cg", "lu")
#: serve-hot jobs lease half the machine; with two clients only a few
#: distinct leases can ever be granted, and set-up caches all of them.
HOT_NODES = 4

FED_BENCHMARKS = ("matmul", "cg", "ft", "lu")
#: One timestep: with 2-timestep jobs the few long ones that overlapped
#: other jobs set the p90 on their own (see README.md).
FED_TIMESTEPS = 1
FED_NODES = (2, 3, 4)
FED_TENANTS = 16


def rng_for(workload: str, seed: int, purpose: str) -> random.Random:
    """An independent, reproducible RNG per (workload, seed, purpose)."""
    return random.Random(f"perfbench:{workload}:{seed}:{purpose}")


def job_dict(benchmark: str, scheduler: str, timesteps: int, nodes: int, tenant: str) -> dict[str, Any]:
    return {
        "benchmark": benchmark,
        "scheduler": scheduler,
        "seeds": 1,
        "timesteps": timesteps,
        "nodes": nodes,
        "tenant": tenant,
    }


def serve_mixed_jobs(seed: int) -> Iterator[dict[str, Any]]:
    """Blocks of the seven benchmarks in seeded order; each benchmark draws
    its scheduler and timesteps from its own shuffled cycles, so every
    prefix of the sequence asks for nearly the same work."""
    rng = rng_for("serve-mixed", seed, "jobs")
    steps: dict[str, list[int]] = {b: [] for b in PAPER_BENCHMARKS}
    scheds: dict[str, list[str]] = {b: [] for b in PAPER_BENCHMARKS}
    leases: dict[str, list[int]] = {b: [] for b in PAPER_BENCHMARKS}
    cycles: dict[str, int] = {b: 0 for b in PAPER_BENCHMARKS}
    while True:
        block = list(PAPER_BENCHMARKS)
        rng.shuffle(block)
        for bench in block:
            if not steps[bench]:
                steps[bench] = list(MIXED_TIMESTEP_CYCLES[cycles[bench] % 2])
                cycles[bench] += 1
                rng.shuffle(steps[bench])
            if not scheds[bench]:
                scheds[bench] = list(MIXED_SCHEDULERS)
                rng.shuffle(scheds[bench])
            sched = scheds[bench].pop()
            if sched == "baseline":
                nodes = WHOLE_MACHINE_NODES
            else:
                if not leases[bench]:
                    leases[bench] = list(MIXED_LEASE_NODES)
                    rng.shuffle(leases[bench])
                nodes = leases[bench].pop()
            tenant = f"tenant-{rng.randrange(MIXED_TENANTS)}"
            yield job_dict(bench, sched, steps[bench].pop(), nodes, tenant)


def serve_hot_shapes(seed: int) -> list[dict[str, Any]]:
    """The handful of shapes set-up caches; one tenant per shape."""
    rng = rng_for("serve-hot", seed, "shapes")
    return [
        job_dict(bench, rng.choice(("ilan", "ilan-adaptive")), 1, HOT_NODES, f"hot-{i}")
        for i, bench in enumerate(HOT_BENCHMARKS)
    ]


def serve_hot_jobs(seed: int) -> Iterator[dict[str, Any]]:
    shapes = serve_hot_shapes(seed)
    rng = rng_for("serve-hot", seed, "jobs")
    while True:
        block = list(shapes)
        rng.shuffle(block)
        yield from (dict(j) for j in block)


def fed_open_jobs(seed: int) -> Iterator[dict[str, Any]]:
    rng = rng_for("fed-open", seed, "jobs")
    while True:
        cells = [(b, n) for b in FED_BENCHMARKS for n in FED_NODES]
        rng.shuffle(cells)
        for bench, nodes in cells:
            tenant = f"fed-tenant-{rng.randrange(FED_TENANTS):02d}"
            yield job_dict(bench, "ilan", FED_TIMESTEPS, nodes, tenant)


def jittered_offsets(seed: int, rate: float, seconds: float) -> list[float]:
    """Send offsets at ``rate`` over ``[0, seconds)``: ``round(rate *
    seconds)`` equal slots, each holding one send at a seeded uniform time.

    The offered load is the same for every seed, and two sends come close
    only from the facing ends of neighbouring slots.  Poisson arrivals,
    even with their count fixed per second, drop a few random bursts of
    overlapping jobs into a 34-second run, and those bursts alone set its
    p90: over ten seeds its quartiles spread by 46% of the median.
    """
    if rate <= 0 or seconds <= 0:
        raise ValueError("rate and seconds must be positive")
    rng = rng_for("fed-open", seed, "arrivals")
    count = max(1, round(rate * seconds))
    width = seconds / count
    return [(i + rng.random()) * width for i in range(count)]
