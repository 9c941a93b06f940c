import asyncio
import sys
import types

from servebench.metrics import LAYER_SOURCES, per_layer
from servebench.tracing import Hook, Recorder


def _toy_module():
    mod = types.ModuleType("repro_toy_for_tracing")

    class Engine:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

        async def ask(self):
            return self.inner()

    mod.Engine = Engine
    sys.modules[mod.__name__] = mod
    return mod


def test_spans_nest_and_uninstall_restores():
    mod = _toy_module()
    original = mod.Engine.inner
    rec = Recorder()
    rec.install((
        Hook("toy.outer", f"{mod.__name__}:Engine.outer"),
        Hook("toy.inner", f"{mod.__name__}:Engine.inner"),
        Hook("toy.ask", f"{mod.__name__}:Engine.ask"),
    ))
    engine = mod.Engine()
    assert engine.outer() == 2
    assert asyncio.run(engine.ask()) == 1
    rec.uninstall()
    assert mod.Engine.inner is original
    by = rec.by_name()
    (outer,) = by["toy.outer"]
    (ask,) = by["toy.ask"]
    inner_parents = sorted(s[4] for s in by["toy.inner"])
    assert inner_parents == sorted([outer[0], outer[0], ask[0]])
    assert outer[4] == 0
    calls, total, self_s = rec.self_times()["toy.outer"]
    assert calls == 1 and 0.0 <= self_s <= total


def test_a_vanished_hook_reads_null_never_zero(capsys):
    rec = Recorder()
    rec.install((Hook("progress.advance", "repro_toy_for_tracing:Gone.advance"),))
    assert rec.missing == ["progress.advance"]
    assert "WARNING" in capsys.readouterr().err
    values, _ = per_layer(rec, [], federated=False, heartbeats=0, overhead_frac=0.0)
    dependent = [m for m, src in LAYER_SOURCES.items() if "progress.advance" in src]
    assert dependent == ["progress.advance_s_total", "progress.steps"]
    assert all(values[m] is None for m in dependent)
    assert values["memory.chunks"] == 0.0
