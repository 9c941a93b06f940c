"""Served-path benchmark of the ILAN scheduling service.

Run one workload at one seed from the root of a checkout::

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 30 --trace 0

It builds the service (or a two-shard federation) in this process, drives
it over loopback TCP with ``ServiceClient``, checks the served results
against the reference engine, prints every metric with its unit and
sample count, and ends with one JSON line.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs half the time untraced and half
with spans around every layer's public calls and reports the per-layer
metrics.  See README.md next to this file.
"""

from __future__ import annotations

import time

T_START = time.monotonic()  # set-up is measured from here

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
#: set-up is repeated this many times per run and its median reported:
#: the import in fresh interpreters, the build in this one
SETUP_REPEATS = 3

WORKLOAD_NAMES = ("serve-mixed", "serve-hot", "fed-open")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import repro.serve  # noqa: F401  (the import is part of set-up)
    imports = _import_times(time.monotonic() - T_START)
    return asyncio.run(_run(args, imports))


def _import_times(first: float) -> list[float]:
    """This run's own import time plus ``SETUP_REPEATS - 1`` fresh ones."""
    times = [first]
    for _ in range(SETUP_REPEATS - 1):
        probe = subprocess.run(
            [sys.executable, str(HERE / "import_probe.py")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(probe.stdout.strip().splitlines()[-1]))
    return times


def _environment() -> dict[str, object]:
    import numpy

    from repro.exp.runner import ExperimentConfig

    return {
        "sched_getaffinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "default_engine": ExperimentConfig().engine,
    }


def _heartbeats(dep) -> int:
    if dep.router is None:
        return 0
    return dep.router.membership_snapshot()["heartbeats"]


async def _run(args: argparse.Namespace, imports: list[float]) -> int:
    from servebench import harness, metrics
    from servebench.tracing import Recorder

    spec = harness.WORKLOADS[args.workload]
    open_loop = spec.rate is not None
    print(f"workload {spec.name}: {spec.why}")
    print(f"environment {json.dumps(_environment(), sort_keys=True)}")

    builds = []
    for attempt in range(SETUP_REPEATS):
        t0 = time.monotonic()
        dep = await harness.deploy(args.workload, args.seed, OUT_DIR)
        builds.append(time.monotonic() - t0)
        if attempt < SETUP_REPEATS - 1:
            await dep.close()
    setup_s = statistics.median(imports) + statistics.median(builds)

    jobs = harness.job_sequence(args.workload, args.seed)
    cache = dep.services["svc"].runner.cache if args.workload == "serve-hot" else None
    cache_before = cache.stats.as_dict() if cache is not None else None
    recorder = None
    try:
        if not args.trace:
            samples, start = await harness.run_phase(dep, spec, jobs, args.seconds, args.seed)
            checked = samples
        else:
            half = args.seconds / 2.0
            base, _ = await harness.run_phase(dep, spec, jobs, half, args.seed)
            recorder = Recorder(clock=harness.CLOCK)
            dep.label(recorder)
            beats = _heartbeats(dep)
            recorder.install()
            try:
                samples, start = await harness.run_phase(dep, spec, jobs, half, args.seed)
            finally:
                recorder.uninstall()
            beats = _heartbeats(dep) - beats
            checked = base + samples
    finally:
        snapshot = await dep.close()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = harness.check_snapshot(dep, snapshot)
    if cache is not None:
        problems += harness.check_all_hits(cache_before, cache.stats.as_dict(), checked)
    problems += harness.check_results(checked, args.workload, args.seed)

    e2e, evidence = metrics.end_to_end(samples, open_loop=open_loop, slo_s=spec.slo_s, phase_start=start)
    print(
        f"jobs: attempted {evidence['attempted']}, completed {evidence['completed']}, "
        f"failed {evidence['failed']} (rejected {evidence['rejected']}) in {evidence['wall_s']:.2f} s; "
        f"latency limit {spec.slo_s} s"
    )
    if args.trace:
        base_p50 = metrics.end_to_end(base, open_loop=open_loop, slo_s=spec.slo_s, phase_start=0.0)[0]["latency_p50_s"]
        values, stages = metrics.per_layer(
            recorder, samples, federated=open_loop, heartbeats=beats,
            overhead_frac=e2e["latency_p50_s"] / base_p50 - 1.0,
        )
        _print_trace(recorder, stages)
        out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        recorder.write(out)
        print(f"{len(recorder.spans)} spans written to {out.relative_to(ROOT)}")
        reported = {k: {"value": v, "unit": metrics.layer_unit(k)} for k, v in values.items()}
    else:
        reported = {k: {"value": v, "unit": u} for k, v, u in (
            ("latency_p50_s", e2e["latency_p50_s"], "s"),
            ("latency_p90_s", e2e["latency_p90_s"], "s"),
            ("jobs_per_s", e2e["jobs_per_s"], "jobs/s"),
            ("slo_met_frac", e2e["slo_met_frac"], "frac"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mib", peak_rss_mib, "MiB"),
        )}
        print(f"failed_frac = {e2e['failed_frac']:.4f} frac (n={evidence['attempted']} attempted)")
        print(f"setup: median of imports {[round(t, 3) for t in imports]} "
              f"+ median of builds {[round(b, 3) for b in builds]}")
    n = evidence["completed"]
    default_note = f"traced phase, {n} jobs" if args.trace else f"n={n} jobs"
    notes = {"latency_p90_s": evidence["p90"].describe(), "setup_s": f"median of {SETUP_REPEATS} set-ups"}
    for name, entry in reported.items():
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name} = {shown} {entry['unit']} ({notes.get(name, default_note)})")

    correct = not problems
    for problem in problems:
        print(f"CORRECTNESS FAILURE: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(checked),
        "failed": sum(1 for s in checked if not s.completed),
        "metrics": reported,
    }))
    return 0 if correct else 1


def _print_trace(recorder, stages) -> None:
    print("span                                     calls    total_s     self_s")
    for name, (calls, total, self_s) in recorder.self_times().items():
        print(f"  {name:38s} {calls:7d} {total:10.4f} {self_s:10.4f}")
    if stages:
        keys = ("submit", "admission", "lease", "handoff", "run", "notify", "sum", "latency")
        med = {k: statistics.median(r[k] for r in stages) for k in keys}
        print(f"job stages, median over {len(stages)} jobs: "
              + ", ".join(f"{k} {med[k] * 1e3:.2f} ms" for k in keys))


if __name__ == "__main__":
    sys.exit(main())
