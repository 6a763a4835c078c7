"""Localhost simulated fleet: real subprocess daemons, end to end.

The acceptance harness: ``repro cache-server`` + two ``repro worker``
daemons spawned as subprocesses through the CLI, driven by an in-process
:class:`~repro.api.Engine` — remote execution agrees with serial to
1e-9 on every backend, results keep input order when a worker is
*actually killed* (``os._exit``) mid-batch, warm runs hit the shared
remote cache, and SIGTERM drains every daemon cleanly.
"""

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import CheckRequest, CircuitSpec, Engine, NoiseSpec
from repro.circuits import qasm
from repro.cli import main
from repro.library import qft

from cluster_helpers import BACKENDS

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Slicing bound small enough that qft(3) checks fan out many chunks
#: (of the unshrunk miter: a shrunk qft(3) miter may not slice at all).
SLICING = {"max_intermediate_size": 16, "use_local_optimisations": False}


def daemon_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


class Daemon:
    """One CLI daemon subprocess with its parsed JSON ready line."""

    def __init__(self, command, *args, **extra_env):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", command, "--port", "0", *args],
            env=daemon_env(**extra_env),
            stderr=subprocess.PIPE,
            text=True,
        )
        self.ready = json.loads(self.proc.stderr.readline())
        assert self.ready["event"] == "ready"
        self.url = f"127.0.0.1:{self.ready['port']}"

    def drain(self):
        """SIGTERM (if still alive) → (returncode, stderr tail)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        _, err = self.proc.communicate(timeout=30)
        return self.proc.returncode, err


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fleet-cache")
    cache = Daemon("cache-server", "--cache-dir", str(directory))
    workers = [Daemon("worker"), Daemon("worker")]
    try:
        yield {
            "cache_url": cache.url,
            "workers": ",".join(w.url for w in workers),
        }
    finally:
        for daemon in (cache, *workers):
            code, err = daemon.drain()
            assert code == 0, err
            assert '"event": "shutdown"' in err


def library_request(seed=0, **config):
    merged = dict(SLICING)
    merged.update(config)
    return CheckRequest(
        ideal=CircuitSpec.from_library("qft", num_qubits=3),
        noise=NoiseSpec(noises=2, seed=seed),
        epsilon=0.05,
        config=merged,
    )


class TestFleetAgreement:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_remote_execution_matches_serial(self, fleet, backend_name):
        request = library_request(backend=backend_name)
        serial = Engine()
        remote = Engine(workers=fleet["workers"])
        try:
            expected = serial.check(request)
            observed = remote.check(request)
        finally:
            remote.close()
            serial.close()
        assert observed.ok and expected.ok
        assert observed.equivalent == expected.equivalent
        assert abs(observed.fidelity - expected.fidelity) < 1e-9


class TestWorkerDeathMidBatch:
    def test_killed_worker_keeps_results_ordered_and_correct(self):
        """One worker ``os._exit``s after its first chunk; the batch
        still returns every result, in input order, agreeing with a
        serial engine."""
        dying = Daemon("worker", REPRO_WORKER_EXIT_AFTER="1")
        healthy = Daemon("worker")
        requests = [library_request(seed=seed) for seed in (0, 1, 2)]
        serial = Engine()
        remote = Engine(workers=f"{dying.url},{healthy.url}")
        try:
            expected = [serial.check(req) for req in requests]
            observed = list(remote.check_iter(requests))
        finally:
            remote.close()
            serial.close()
            code, err = dying.drain()
            assert code == 17, err  # the scripted fail-injection exit
            assert '"event": "fail-injection-exit"' in err
            code, err = healthy.drain()
            assert code == 0, err

        assert len(observed) == len(expected)
        for want, got in zip(expected, observed):
            assert got.ok
            assert got.equivalent == want.equivalent
            assert abs(got.fidelity - want.fidelity) < 1e-9


class TestSharedCacheTier:
    def test_warm_batch_reports_remote_hits(self, fleet, tmp_path, capsys):
        path = tmp_path / "qft3.qasm"
        qasm.dump(qft(3), path)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"{path}\n{path}\n")

        def run_batch(cache_dir):
            code = main([
                "batch", str(manifest), "--noises", "2", "--seed", "7",
                "--epsilon", "0.05", "--max-intermediate", "16",
                "--cache", "--cache-dir", str(tmp_path / cache_dir),
                "--cache-url", fleet["cache_url"],
            ])
            captured = capsys.readouterr()
            match = re.search(r"remote hits (\d+)", captured.err)
            assert match, captured.err
            return code, int(match.group(1)), captured.out

        cold_code, cold_hits, cold_out = run_batch("host-a")
        assert cold_code == 0
        assert cold_hits == 0
        # a different machine's local cache, the same shared server
        warm_code, warm_hits, warm_out = run_batch("host-b")
        assert warm_code == 0
        assert warm_hits > 0
        cold_records = [json.loads(line) for line in cold_out.splitlines()]
        warm_records = [json.loads(line) for line in warm_out.splitlines()]
        assert [r["verdict"] for r in warm_records] == [
            r["verdict"] for r in cold_records
        ]
        assert [r["fidelity"] for r in warm_records] == [
            r["fidelity"] for r in cold_records
        ]


class TestDrain:
    def test_sigterm_drains_both_daemon_kinds(self, tmp_path):
        cache = Daemon("cache-server", "--cache-dir", str(tmp_path / "c"))
        worker = Daemon("worker")
        for daemon, kind in ((cache, "cache-server"), (worker, "worker")):
            code, err = daemon.drain()
            assert code == 0, err
            events = [json.loads(line) for line in err.splitlines()]
            assert events[-1]["event"] == "shutdown"
            assert events[-1]["kind"] == kind
