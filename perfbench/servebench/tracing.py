"""Spans around the public calls into each layer, wrapped from outside.

:class:`Recorder` patches the functions named in :data:`HOOKS` (class
attributes or module functions) with wrappers that record one span per
call: ``(id, name, start, end, parent, job)``.  The parent is whatever
span was open in the same task or thread, so simulation spans nest under
``run_specs`` on its executor thread.  Spans stay in memory; the run
writes them out when it ends.

A hook whose target no longer exists is reported, never skipped
silently: :meth:`Recorder.install` warns and the metrics that depend on
it read ``None``, so a renamed function cannot pass for a speed-up.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .stats import self_time


@dataclass(frozen=True)
class Hook:
    name: str  # span name
    target: str  # "module:Qualified.attr"


HOOKS = (
    Hook("client.submit", "repro.serve.client:ServiceClient.submit"),
    Hook("client.status", "repro.serve.client:ServiceClient.status"),
    Hook("router.submit", "repro.serve.federation.router:FederationRouter.submit"),
    Hook("router.status", "repro.serve.federation.router:FederationRouter.status"),
    Hook("admission.offer", "repro.serve.admission:AdmissionQueue.offer"),
    Hook("admission.take", "repro.serve.admission:AdmissionQueue.take"),
    Hook("arbiter.acquire", "repro.serve.arbiter:NodeArbiter.acquire"),
    Hook("runner.job_specs", "repro.exp.runner:Runner.job_specs"),
    Hook("runner.run_specs", "repro.exp.runner:Runner.run_specs"),
    Hook("cache.get", "repro.exp.cache:ResultCache.get"),
    Hook("runtime.run_application", "repro.runtime.runtime:OpenMPRuntime.run_application"),
    Hook("executor.run", "repro.runtime.executor:TaskloopExecutor.run"),
    Hook("core.plan", "repro.core.scheduler:IlanScheduler.plan"),
    Hook("core.record", "repro.core.scheduler:IlanScheduler.record"),
    Hook("interference.slowdowns", "repro.interference.model:InterferenceModel.slowdowns"),
    Hook(
        "interference.slowdowns_and_saturation",
        "repro.interference.model:InterferenceModel.slowdowns_and_saturation",
    ),
    Hook("incremental.refresh", "repro.sim.incremental:IncrementalInterference.refresh"),
    Hook("progress.advance", "repro.sim.progress:CoreStates.advance"),
    Hook("memory.chunk_access", "repro.memory.access:chunk_access"),
    Hook("memory.commit", "repro.memory.access:ChunkAccess.commit"),
)

Span = tuple  # (sid, name, start, end, parent, job)


def resolve(target: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, current value)`` of a hook target; raises
    ``ImportError``/``AttributeError`` when it no longer exists."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    # look in the owner's own namespace first so a subclass never patches
    # an inherited attribute onto itself
    value = owner.__dict__[attr] if attr in getattr(owner, "__dict__", {}) else getattr(owner, attr)
    return owner, attr, value


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self.spans: list[Span] = []
        self.errors: Counter[str] = Counter()
        self.missing: list[str] = []
        #: id(service-side object) -> label used in job keys ("svc", "shard-0")
        self.labels: dict[int, str] = {}
        #: per-call observations: admission waits, cache hits, task counts
        self.values: dict[str, list[float]] = defaultdict(list)
        #: job key -> time it left the admission queue
        self.dequeued: dict[str, float] = {}
        #: federated id -> shard-local job key
        self.fed_jobs: dict[str, str] = {}
        self._ids = itertools.count(1)
        self._parent: contextvars.ContextVar[int] = contextvars.ContextVar("perfbench_span", default=0)
        self._job: contextvars.ContextVar[str | None] = contextvars.ContextVar("perfbench_job", default=None)
        self._spec_jobs: dict[int, tuple[Any, str | None]] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def job_key(self, owner: Any, job_id: str) -> str:
        return f"{self.labels.get(id(owner), '?')}/{job_id}"

    def _after(self, name: str) -> Callable[..., str | None] | None:
        """Per-hook bookkeeping run after a call; returns the span's job."""
        if name == "client.submit":
            return lambda args, kwargs, result, end: result
        if name in ("client.status", "router.status"):
            return lambda args, kwargs, result, end: args[1]

        if name == "router.submit":
            def after(args: tuple, kwargs: dict, job: Any, end: float) -> str:
                handle = args[0].instances[job.shard_id]
                self.fed_jobs[job.fed_id] = self.job_key(handle.service.arbiter, job.local_job_id)
                return job.fed_id
            return after

        if name == "admission.take":
            def after(args: tuple, kwargs: dict, record: Any, end: float) -> str | None:
                if record is None:
                    return None
                key = self.job_key(args[0], record.job_id)
                self.dequeued[key] = end
                self.values["admission.wait"].append(end - record.submitted_at)
                return key
            return after

        if name == "arbiter.acquire":
            def after(args: tuple, kwargs: dict, mask: Any, end: float) -> str:
                job_id = args[1] if len(args) > 1 else kwargs["job_id"]
                key = self.job_key(args[0], job_id)
                self._job.set(key)  # the worker task's later run_specs call
                return key
            return after

        if name == "runner.job_specs":
            def after(args: tuple, kwargs: dict, specs: Any, end: float) -> str | None:
                job = self._job.get()
                self._spec_jobs[id(specs)] = (specs, job)
                return job
            return after

        if name == "runner.run_specs":
            def after(args: tuple, kwargs: dict, result: Any, end: float) -> str | None:
                specs = args[1] if len(args) > 1 else kwargs["specs"]
                entry = self._spec_jobs.pop(id(specs), None)
                return entry[1] if entry is not None and entry[0] is specs else None
            return after

        if name == "cache.get":
            def after(args: tuple, kwargs: dict, result: Any, end: float) -> None:
                self.values["cache.hit"].append(1.0 if result is not None else 0.0)
            return after

        if name == "executor.run":
            def after(args: tuple, kwargs: dict, result: Any, end: float) -> None:
                self.values["executor.tasks"].append(result.tasks_executed)
            return after
        return None

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, ids, clock, parent_var = self.spans, self._ids, self.clock, self._parent
        errors, after = self.errors, self._after(name)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                sid = next(ids)
                parent = parent_var.get()
                token = parent_var.set(sid)
                start = clock()
                try:
                    result = await fn(*args, **kwargs)
                except BaseException:
                    spans.append((sid, name, start, clock(), parent, None))
                    errors[name] += 1
                    raise
                finally:
                    parent_var.reset(token)
                end = clock()
                job = after(args, kwargs, result, end) if after is not None else None
                spans.append((sid, name, start, end, parent, job))
                return result
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = next(ids)
            parent = parent_var.get()
            token = parent_var.set(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, name, start, clock(), parent, None))
                errors[name] += 1
                raise
            finally:
                parent_var.reset(token)
            end = clock()
            job = after(args, kwargs, result, end) if after is not None else None
            spans.append((sid, name, start, end, parent, job))
            return result
        return wrapper

    # ------------------------------------------------------------------
    def install(self, hooks: tuple[Hook, ...] = HOOKS) -> None:
        for hook in hooks:
            try:
                owner, attr, original = resolve(hook.target)
            except (ImportError, AttributeError, KeyError) as exc:
                self.missing.append(hook.name)
                print(
                    f"WARNING: hook {hook.name} ({hook.target}) is gone: {exc!r}; "
                    "its layer metrics read null",
                    file=sys.stderr,
                )
                continue
            wrapper = self._wrap(hook.name, original)
            self._patch(owner, attr, original, wrapper)
            if inspect.ismodule(owner):
                # rebind `from module import fn` aliases inside the package
                for module in list(sys.modules.values()):
                    if module is owner or not getattr(module, "__name__", "").startswith("repro."):
                        continue
                    if getattr(module, attr, None) is original:
                        self._patch(module, attr, original, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def by_name(self) -> dict[str, list[Span]]:
        grouped: dict[str, list[Span]] = defaultdict(list)
        for span in self.spans:
            grouped[span[1]].append(span)
        return grouped

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: calls, total duration, total self time."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _sid, _name, start, end, parent, _job in self.spans:
            if parent:
                children[parent].append((start, end))
        table: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, name, start, end, _parent, _job in self.spans:
            row = table[name]
            row[0] += 1
            row[1] += end - start
            row[2] += self_time(start, end, children.get(sid, ()))
        return {name: (int(r[0]), r[1], r[2]) for name, r in sorted(table.items())}

    def job_of_run(self) -> dict[int, str | None]:
        """Span id -> job of its nearest ``runner.run_specs`` ancestor."""
        parent_of = {s[0]: s[4] for s in self.spans}
        run_jobs = {s[0]: s[5] for s in self.spans if s[1] == "runner.run_specs"}
        resolved: dict[int, str | None] = {}
        for sid in parent_of:
            node, trail = sid, []
            while node and node not in run_jobs and node not in resolved:
                trail.append(node)
                node = parent_of.get(node, 0)
            job = run_jobs.get(node) if node in run_jobs else resolved.get(node)
            for n in trail:
                resolved[n] = job
        return resolved

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            for sid, name, start, end, parent, job in sorted(self.spans):
                out.write(json.dumps([sid, name, start, end, parent, job]) + "\n")
