"""Signal-driven shutdown: drain, then a final atomic metrics snapshot.

The contract under test (see ``repro.serve.__main__``): SIGTERM (and
SIGINT) drain the service — admitted jobs finish, new submissions are
rejected — and ``--snapshot-out`` then persists one final JSON snapshot
via an atomic tmp-file + rename write.  The snapshot must *conserve*:
every submitted job is accounted as completed or failed, with nothing
left active or queued after a drain.  A client's wire ``drain`` op ends
the process the same way.  All of it holds for one machine and for a
federation (``--shards N``) alike.
"""

import asyncio
import contextlib
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.exp.runner import ExperimentConfig
from repro.serve.__main__ import main as serve_main
from repro.serve.client import ServiceClient
from repro.serve.protocol import JobRequest, decode_message, encode_message
from repro.serve.server import SchedulingService
from repro.topology.presets import dual_socket_small

TIMEOUT = 60


def _service(**kwargs):
    kwargs.setdefault(
        "config",
        ExperimentConfig(seeds=1, timesteps=3, with_noise=False, jobs=1, cache_dir=None),
    )
    return SchedulingService(dual_socket_small(), **kwargs)


def assert_conserves(snapshot: dict) -> None:
    """The snapshot's job ledger balances and nothing is in flight."""
    jobs = snapshot["jobs"]
    assert jobs["submitted"] == (
        jobs["completed"] + jobs["failed"] + jobs["active"] + jobs["queued"]
        + jobs["evicted"]
    )
    assert jobs["active"] == 0
    assert jobs["queued"] == 0


def machine_snapshots(snapshot: dict) -> list[dict]:
    """One snapshot per machine: the service's own, or every shard's."""
    return list(snapshot["shards"].values()) if "shards" in snapshot else [snapshot]


class TestPersistSnapshot:
    def test_drained_snapshot_conserves_job_counts(self, tmp_path):
        async def scenario():
            service = _service()
            await service.start()
            for _ in range(4):
                service.submit(JobRequest(benchmark="matmul", timesteps=3, nodes=1))
            await service.drain()
            return service.persist_snapshot(tmp_path / "metrics.json")

        out = asyncio.run(scenario())
        snapshot = json.loads(out.read_text())
        assert_conserves(snapshot)
        assert snapshot["jobs"]["submitted"] == 4
        assert snapshot["jobs"]["completed"] == 4
        assert snapshot["service"]["draining"] is True

    def test_persist_is_atomic_no_temp_debris(self, tmp_path):
        async def scenario():
            service = _service()
            await service.start()
            await service.drain()
            return service.persist_snapshot(tmp_path / "metrics.json")

        out = asyncio.run(scenario())
        assert json.loads(out.read_text())  # parseable, non-empty
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]


STANDALONE = pytest.param([], id="standalone")
FEDERATION = pytest.param(["--shards", "2"], id="shards-2")


@contextlib.contextmanager
def serve_process(*flags):
    """A live ``python -m repro.serve`` process and its (host, port),
    yielded once the readiness line is out; killed if still running."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--machine", "tiny",
         "--port", "0", "--no-noise", "--no-cache", "--timesteps", "2", *flags],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env,
    )
    try:
        deadline = time.monotonic() + TIMEOUT
        for line in proc.stdout:
            if line.startswith("listening on"):
                host, port = line.split()[2].rstrip(";").rsplit(":", 1)
                break
            assert time.monotonic() < deadline, "server never came up"
        else:
            raise AssertionError(f"server exited before listening: {proc.wait()}")
        yield proc, host, int(port)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


async def submit_jobs(host: str, port: int, count: int) -> list[str]:
    async with await ServiceClient.connect(host, port) as cli:
        return [
            await cli.submit(JobRequest(benchmark="matmul", timesteps=2,
                                        tenant=f"tenant-{i}"))
            for i in range(count)
        ]


class TestSigterm:
    @pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
    @pytest.mark.parametrize("flags", [STANDALONE, FEDERATION])
    def test_sigterm_drains_and_persists_snapshot(self, tmp_path, flags):
        """A live ``python -m repro.serve`` process — one machine or a
        two-shard federation — SIGTERMed with jobs in flight, exits 0
        after writing a snapshot that conserves jobs on every machine."""
        snap = tmp_path / "final.json"
        with serve_process("--snapshot-out", str(snap), *flags) as (proc, host, port):
            assert len(asyncio.run(submit_jobs(host, port, 2))) == 2
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=TIMEOUT)
        assert proc.returncode == 0, out
        assert "draining" in out
        assert snap.exists(), out
        machines = machine_snapshots(json.loads(snap.read_text()))
        assert len(machines) == (2 if flags else 1)
        for machine in machines:
            assert_conserves(machine)
        assert sum(m["jobs"]["completed"] for m in machines) == 2


class TestWireDrain:
    @pytest.mark.parametrize("flags", [STANDALONE, FEDERATION])
    def test_wire_drain_ends_the_process(self, flags):
        """A client's ``drain`` op, not only a signal, ends the CLI: the
        federation once kept running, its listener closed, until a
        signal came."""
        with serve_process(*flags) as (proc, host, port):
            async def drain():
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_message({"op": "drain"}))
                response = decode_message(await reader.readline())
                writer.close()
                return response

            assert asyncio.run(drain())["ok"] is True
            out, _ = proc.communicate(timeout=10)
        assert proc.returncode == 0, out
        assert "drained:" in out


class TestStartupErrors:
    @pytest.mark.parametrize("flag", [
        ["--expose-shards"], ["--high-water", "4"], ["--vnodes", "64"],
        ["--ring-seed", "1"], ["--shard-crash", "0.5"], ["--crash-after", "1", "2"],
        ["--membership"], ["--heartbeat-every", "5"], ["--suspect-after", "1"],
        ["--confirm-after", "4"], ["--respawn", "1"],
    ], ids=lambda flag: flag[0])
    def test_federation_flag_without_shards_is_a_usage_error(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            serve_main(flag)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flag[0] in err and "--shards" in err

    @pytest.mark.parametrize("argv, message", [
        (["--shards", "0"], "--shards must be >= 1"),
        (["--shards", "2", "--suspect-after", "3", "--confirm-after", "3"],
         "must exceed --suspect-after"),
    ], ids=["zero-shards", "confirm-not-after-suspect"])
    def test_bad_federation_shape_is_refused(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            serve_main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
