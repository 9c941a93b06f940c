"""End-to-end metrics from untraced phases, per-layer metrics from spans."""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Sequence

from .loops import Sample
from .stats import Tail, median_or_zero, p90_or_zero, percentile, tail_percentile
from .tracing import Recorder


def latencies(samples: Sequence[Sample], open_loop: bool) -> list[float]:
    out = []
    for s in samples:
        if s.completed:
            out.append(s.record["finished_at"] - s.due if open_loop else s.seen - s.sent)
    return out


def end_to_end(
    samples: Sequence[Sample], *, open_loop: bool, slo_s: float, phase_start: float
) -> tuple[dict[str, float], dict[str, Any]]:
    """The user-visible metrics of one timed phase, plus their evidence."""
    lat = latencies(samples, open_loop)
    if not lat:
        raise RuntimeError("no job completed in the timed phase")
    attempted = len(samples)
    completed = [s for s in samples if s.completed]
    ends = [s.record["finished_at"] if open_loop else s.seen for s in completed]
    wall = max(ends) - phase_start
    p90: Tail = tail_percentile(lat, 90.0)
    met = sum(1 for v in lat if v <= slo_s)
    failed = attempted - len(completed)
    metrics = {
        "latency_p50_s": percentile(lat, 50.0),
        "latency_p90_s": p90.value,
        "jobs_per_s": len(completed) / wall,
        "slo_met_frac": met / attempted,
        "failed_frac": failed / attempted,
    }
    evidence = {
        "attempted": attempted,
        "completed": len(completed),
        "failed": failed,
        "rejected": sum(1 for s in samples if s.error and "AdmissionRejected" in s.error),
        "p90": p90,
        "wall_s": wall,
    }
    return metrics, evidence


# ----------------------------------------------------------------------
# per-layer
# ----------------------------------------------------------------------
#: metric -> span names it is computed from (None when any is missing)
LAYER_SOURCES: dict[str, tuple[str, ...]] = {
    "client.submit_p50_s": ("client.submit",),
    "client.status_p50_s": ("client.status",),
    "client.status_calls_per_job": ("client.status",),
    "client.notify_delay_p50_s": (),
    "admission.wait_p50_s": ("admission.take",),
    "admission.wait_p90_s": ("admission.take",),
    "admission.rejected": ("admission.offer",),
    "arbiter.lease_wait_p50_s": ("arbiter.acquire",),
    "arbiter.lease_wait_p90_s": ("arbiter.acquire",),
    "server.handoff_p50_s": ("arbiter.acquire", "runner.job_specs", "runner.run_specs"),
    "server.run_p50_s": (),
    "router.submit_p50_s": ("router.submit",),
    "router.status_p50_s": ("router.status",),
    "router.heartbeats": (),
    "runner.run_specs_p50_s": ("runner.run_specs",),
    "cache.get_p50_s": ("cache.get",),
    "cache.hit_frac": ("cache.get",),
    "runtime.host_s_per_job_p50": ("runtime.run_application", "runner.run_specs"),
    "runtime.tasks_per_host_s": ("runtime.run_application", "executor.run"),
    "executor.taskloops": ("executor.run",),
    "core.plan_s_total": ("core.plan",),
    "core.record_s_total": ("core.record",),
    "core.plan_calls": ("core.plan",),
    "interference.slowdowns_s_total": ("interference.slowdowns", "interference.slowdowns_and_saturation"),
    "interference.slowdowns_calls": ("interference.slowdowns", "interference.slowdowns_and_saturation"),
    "incremental.refresh_s_total": ("incremental.refresh",),
    "incremental.refresh_calls": ("incremental.refresh",),
    "progress.advance_s_total": ("progress.advance",),
    "progress.steps": ("progress.advance",),
    "memory.chunk_access_s_total": ("memory.chunk_access",),
    "memory.commit_s_total": ("memory.commit",),
    "memory.chunks": ("memory.chunk_access",),
    "loadgen.send_lag_p90_s": (),
    "trace.overhead_frac": (),
    "stages.sum_over_latency_p50": ("client.submit", "admission.take", "arbiter.acquire", "runner.run_specs"),
}


def job_stages(
    recorder: Recorder, samples: Sequence[Sample], *, federated: bool
) -> list[dict[str, float]]:
    """Per completed job: submit round trip + admission wait + lease wait +
    handoff + run + notify delay, against its client-observed latency."""
    acquire = {s[5]: s for s in recorder.spans if s[1] == "arbiter.acquire"}
    run_start = {s[5]: s[2] for s in recorder.spans if s[1] == "runner.run_specs" and s[5]}
    rows = []
    for s in samples:
        if not s.completed:
            continue
        key = recorder.fed_jobs.get(s.job_id) if federated else f"svc/{s.job_id}"
        if key not in acquire or key not in run_start:
            continue
        rec = s.record
        lease = acquire[key]
        started = run_start[key]
        # a worker already blocked in `take` when tracing began returns
        # through the unwrapped call: its job leaves the queue just before
        # it asks for a lease
        dequeued = recorder.dequeued.get(key, lease[2])
        row = {
            "submit": s.acked - s.sent,
            "admission": dequeued - rec["submitted_at"],
            "lease": lease[3] - lease[2],
            "handoff": started - lease[3],
            "run": rec["finished_at"] - started,
            "notify": s.seen - rec["finished_at"],
            "latency": s.seen - s.sent,
        }
        row["sum"] = sum(row[k] for k in ("submit", "admission", "lease", "handoff", "run", "notify"))
        rows.append(row)
    return rows


def per_layer(
    recorder: Recorder,
    samples: Sequence[Sample],
    *,
    federated: bool,
    heartbeats: int,
    overhead_frac: float,
) -> tuple[dict[str, float | None], list[dict[str, float]]]:
    spans = recorder.by_name()
    dur = {name: [s[3] - s[2] for s in group] for name, group in spans.items()}

    def d(name: str) -> list[float]:
        return dur.get(name, [])

    completed = [s for s in samples if s.completed]
    jobs = max(1, len(completed))
    stages = job_stages(recorder, samples, federated=federated)
    handoffs = [r["handoff"] for r in stages]

    host_per_job: dict[str, float] = defaultdict(float)
    run_job = recorder.job_of_run()
    for sid, _name, start, end, _parent, _job in spans.get("runtime.run_application", ()):
        host_per_job[run_job.get(sid) or f"?{sid}"] += end - start
    host_total = sum(d("runtime.run_application"))
    hits = recorder.values.get("cache.hit", [])
    slowdowns = d("interference.slowdowns") + d("interference.slowdowns_and_saturation")
    admission_waits = recorder.values.get("admission.wait", [])
    lease_waits = d("arbiter.acquire")

    values: dict[str, float | None] = {
        "client.submit_p50_s": median_or_zero(d("client.submit")),
        "client.status_p50_s": median_or_zero(d("client.status")),
        "client.status_calls_per_job": len(d("client.status")) / jobs,
        "client.notify_delay_p50_s": median_or_zero(
            [s.seen - s.record["finished_at"] for s in completed]
        ),
        "admission.wait_p50_s": median_or_zero(admission_waits),
        "admission.wait_p90_s": p90_or_zero(admission_waits),
        "admission.rejected": float(recorder.errors.get("admission.offer", 0)),
        "arbiter.lease_wait_p50_s": median_or_zero(lease_waits),
        "arbiter.lease_wait_p90_s": p90_or_zero(lease_waits),
        "server.handoff_p50_s": median_or_zero(handoffs),
        "server.run_p50_s": median_or_zero(
            [s.record["finished_at"] - s.record["started_at"] for s in completed]
        ),
        "router.submit_p50_s": median_or_zero(d("router.submit")),
        "router.status_p50_s": median_or_zero(d("router.status")),
        "router.heartbeats": float(heartbeats),
        "runner.run_specs_p50_s": median_or_zero(d("runner.run_specs")),
        "cache.get_p50_s": median_or_zero(d("cache.get")),
        "cache.hit_frac": sum(hits) / len(hits) if hits else 0.0,
        "runtime.host_s_per_job_p50": median_or_zero(list(host_per_job.values())),
        "runtime.tasks_per_host_s": (
            sum(recorder.values.get("executor.tasks", [])) / host_total if host_total else 0.0
        ),
        "executor.taskloops": float(len(d("executor.run"))),
        "core.plan_s_total": sum(d("core.plan")),
        "core.record_s_total": sum(d("core.record")),
        "core.plan_calls": float(len(d("core.plan"))),
        "interference.slowdowns_s_total": sum(slowdowns),
        "interference.slowdowns_calls": float(len(slowdowns)),
        "incremental.refresh_s_total": sum(d("incremental.refresh")),
        "incremental.refresh_calls": float(len(d("incremental.refresh"))),
        "progress.advance_s_total": sum(d("progress.advance")),
        "progress.steps": float(len(d("progress.advance"))),
        "memory.chunk_access_s_total": sum(d("memory.chunk_access")),
        "memory.commit_s_total": sum(d("memory.commit")),
        "memory.chunks": float(len(d("memory.chunk_access"))),
        "loadgen.send_lag_p90_s": p90_or_zero([s.send_lag for s in samples]),
        "trace.overhead_frac": overhead_frac,
        "stages.sum_over_latency_p50": median_or_zero([r["sum"] / r["latency"] for r in stages]),
    }
    missing = set(recorder.missing)
    for metric, sources in LAYER_SOURCES.items():
        if missing.intersection(sources):
            values[metric] = None
    return values, stages


def layer_unit(metric: str) -> str:
    if metric == "runtime.tasks_per_host_s":
        return "1/s"
    if metric.endswith(("_frac", "_over_latency_p50")):
        return "frac"
    if metric.endswith(("_s", "_s_total", "_p50")):
        return "s"
    return "count"
