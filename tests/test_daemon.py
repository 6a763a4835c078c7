"""The lifecycle the three daemons share (:mod:`repro.daemon`).

Every test runs once per daemon — the HTTP service, the cache server
and the slice worker — so a daemon cannot drift from the shared
ready/drain/shutdown contract.
"""

import asyncio
import io
import json
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.api import Engine
from repro.cluster import CacheServer, ServerThread, WorkerServer
from repro.daemon import run_until_signalled
from repro.service import ReproService

#: daemon → (ready-record keys, shutdown-record keys), in record order
RECORD_KEYS = {
    "service": (
        ["event", "host", "port", "max_inflight", "request_timeout"],
        ["event", "drained"],
    ),
    "cache-server": (
        ["event", "kind", "host", "port", "directory"],
        ["event", "kind", "requests"],
    ),
    "worker": (
        ["event", "kind", "host", "port", "pid"],
        ["event", "kind", "chunks"],
    ),
}


@pytest.fixture(params=sorted(RECORD_KEYS))
def make_daemon(request, tmp_path):
    """``make_daemon(port=0, log_stream=...)`` builds one daemon kind."""
    kind = request.param
    engines = []

    def make(**kwargs):
        if kind == "service":
            engine = Engine()
            engines.append(engine)
            return ReproService(engine, **kwargs)
        if kind == "cache-server":
            return CacheServer(cache_dir=tmp_path / "tier", **kwargs)
        return WorkerServer(**kwargs)

    make.kind = kind
    yield make
    for engine in engines:
        engine.close()


def records(stream: io.StringIO) -> list:
    return [json.loads(line) for line in stream.getvalue().splitlines()]


class _ReadyProbe(io.StringIO):
    """A log stream that, on the ``ready`` record, notes the installed
    SIGTERM handler and then asks its daemon to shut down — a
    supervisor that signals the moment it reads ``ready``."""

    daemon = None
    sigterm_handler = None

    def write(self, text):
        if text.startswith("{") and json.loads(text)["event"] == "ready":
            self.sigterm_handler = signal.getsignal(signal.SIGTERM)
            self.daemon.request_shutdown()
        return super().write(text)


class TestSignalRunner:
    def test_signal_handlers_are_armed_before_ready(self, make_daemon):
        assert threading.current_thread() is threading.main_thread()
        saved = {s: signal.getsignal(s) for s in (signal.SIGTERM,
                                                   signal.SIGINT)}
        probe = _ReadyProbe()
        probe.daemon = make_daemon(port=0, log_stream=probe)
        try:
            asyncio.run(run_until_signalled(probe.daemon))
        finally:
            for signum, handler in saved.items():
                signal.signal(signum, handler)
        assert probe.sigterm_handler is not None
        assert probe.sigterm_handler is not signal.SIG_DFL
        events = [record["event"] for record in records(probe)]
        assert events == ["ready", "shutdown"]


class TestLifecycle:
    def test_record_fields_are_pinned(self, make_daemon):
        ready_keys, shutdown_keys = RECORD_KEYS[make_daemon.kind]
        log = io.StringIO()
        with ServerThread(make_daemon(port=0, log_stream=log)) as handle:
            port = handle.port
        ready, shutdown = records(log)
        assert list(ready) == ready_keys
        assert ready["event"] == "ready" and ready["port"] == port
        assert list(shutdown) == shutdown_keys
        assert shutdown["event"] == "shutdown"

    def test_occupied_port_fails_start_with_the_bind_error(
        self, make_daemon
    ):
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            daemon = make_daemon(port=port, log_stream=io.StringIO())
            with pytest.raises(RuntimeError, match="failed to start") as info:
                ServerThread(daemon).start()
        assert isinstance(info.value.__cause__, OSError)
        with pytest.raises(RuntimeError, match="not started"):
            daemon.port

    def test_request_shutdown_before_start_is_a_no_op(self, make_daemon):
        log = io.StringIO()
        daemon = make_daemon(port=0, log_stream=log)
        daemon.request_shutdown()
        with ServerThread(daemon) as handle:
            # still serving: the early request did not pre-arm shutdown,
            # so a connection is handled (and closed on our EOF)
            with socket.create_connection(
                ("127.0.0.1", handle.port), timeout=10
            ) as conn:
                conn.shutdown(socket.SHUT_WR)
                assert conn.recv(1) == b""
        events = [record["event"] for record in records(log)]
        assert events == ["ready", "shutdown"]


def test_import_repro_loads_no_daemon_code():
    root = str(Path(repro.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {root!r}); import repro; "
        "loaded = [m for m in ('asyncio', 'repro.daemon', "
        "'repro.service', 'repro.cluster') if m in sys.modules]; "
        "assert not loaded, loaded"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
