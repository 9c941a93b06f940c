"""BENCHMARK.json must describe what run.py actually reports."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from servebench.metrics import LAYER_SOURCES, layer_unit

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"

pytestmark = pytest.mark.skipif(not SPEC_PATH.exists(), reason="no BENCHMARK.json")


def _spec():
    return json.loads(SPEC_PATH.read_text())


def test_workloads_match_the_harness():
    harness = pytest.importorskip("servebench.harness")
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    run = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(run)
    run.loader.exec_module(module)
    assert module.WORKLOAD_NAMES == tuple(harness.WORKLOADS)
    for entry in spec["workloads"]:
        workload = harness.WORKLOADS[entry["name"]]
        # the recorded latency limit and arrival rate are the ones in use
        assert entry["why"] == workload.why
        assert f"latency limit {workload.slo_s:g} s" in workload.why
        if workload.rate is not None:
            assert f"open loop, {workload.rate:g} jobs/s" in workload.why


def test_per_layer_metrics_match_the_traced_report():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: layer_unit(name) for name in LAYER_SOURCES
    }


def test_end_to_end_metrics_and_bounds():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"]]
    assert names == ["latency_p50_s", "latency_p90_s", "jobs_per_s", "slo_met_frac", "setup_s", "peak_rss_mib"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    for entry in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", entry["name"])
