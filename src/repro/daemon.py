"""One lifecycle for the three daemons: ``repro serve``, ``repro
cache-server`` and ``repro worker``.

:class:`Daemon` owns everything they share: bind (``port=0`` picks an
ephemeral port), log a JSON ``ready`` record, wait for
:meth:`~Daemon.request_shutdown`, close the listener, drain, log a JSON
``shutdown`` record.  A subclass supplies only what differs — its
connection handler, its drain step and the extra fields of the two
records.

Two runners host a daemon:

* :func:`run_until_signalled` — the foreground body of the CLI
  commands: serve until ``SIGTERM``/``SIGINT``.  The handlers are armed
  *before* ``ready`` is logged, so a supervisor may signal as soon as it
  reads that record.
* :class:`ServerThread` — a background event loop on a daemon thread,
  for tests, benchmarks and examples: no subprocess management,
  deterministic teardown.

Only :mod:`repro.service` and :mod:`repro.cluster` load this module;
``import repro`` stays free of ``asyncio``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
from typing import Optional


class Daemon:
    """An asyncio TCP server with the shared ready/drain/shutdown lifecycle.

    Construction is cheap; :meth:`start` binds the socket.
    """

    #: ``kind`` field of the ready/shutdown records (omitted when None)
    kind: Optional[str] = None

    def __init__(self, host: str, port: int, log_stream=None):
        self.host = host
        self.config_port = port
        self.log_stream = log_stream if log_stream is not None else sys.stderr
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._port: Optional[int] = None
        self._shutdown = asyncio.Event()

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` ephemeral binds; keeps
        answering after shutdown so late callers see a refused connect
        rather than a missing attribute)."""
        if self._port is None:
            raise RuntimeError(f"{type(self).__name__} is not started")
        return self._port

    def _log(self, record: dict) -> None:
        try:
            print(json.dumps(record), file=self.log_stream, flush=True)
        except (ValueError, OSError):
            pass  # closed stream during teardown; logging must not raise

    def _log_event(self, event: str, **fields) -> None:
        head = {"event": event}
        if self.kind is not None:
            head["kind"] = self.kind
        self._log({**head, **fields})

    # --- what a daemon supplies ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        raise NotImplementedError

    def _ready_fields(self) -> dict:
        """Extra fields of the ``ready`` record, after host and port."""
        return {}

    async def _drain(self) -> dict:
        """Finish in-flight work once the listener is closed; returns the
        extra fields of the ``shutdown`` record."""
        return {}

    # --- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Bind, start accepting connections and log ``ready``."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.config_port
        )
        self._port = self._server.sockets[0].getsockname()[1]
        self._log_event(
            "ready", host=self.host, port=self._port, **self._ready_fields()
        )

    def request_shutdown(self) -> None:
        """Begin a graceful shutdown (idempotent, signal-handler and
        thread safe; a no-op before :meth:`start`)."""
        if self._loop is None:
            return
        self._loop.call_soon_threadsafe(self._shutdown.set)

    async def wait_closed(self) -> None:
        """Block until a requested shutdown has closed the listener,
        drained and logged ``shutdown``."""
        await self._shutdown.wait()
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        fields = await self._drain()
        self._log_event("shutdown", **fields)

    async def run(self) -> None:
        """:meth:`start` + serve until :meth:`request_shutdown`."""
        await self.start()
        await self.wait_closed()


async def run_until_signalled(
    server: Daemon, *, install_signal_handlers: bool = True
) -> None:
    """Run ``server`` until ``SIGTERM``/``SIGINT`` — the blocking body
    of ``repro serve``, ``repro cache-server`` and ``repro worker``.

    The handlers are installed before :meth:`Daemon.start` binds and
    logs ``ready``.  A signal that lands while the socket binds runs on
    the loop once :meth:`Daemon.start` has begun, so the daemon logs
    ``ready`` and then shuts straight down instead of dying with the
    default handler.
    """
    if install_signal_handlers:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # platforms without loop signal support
    await server.run()


class ServerThread:
    """Run one :class:`Daemon` on a background event loop.

    Context manager: entering starts the loop thread and blocks until
    the socket is bound (re-raising any bind failure as
    :class:`RuntimeError`); exiting requests a graceful shutdown and
    joins.  ``port`` resolves ephemeral (``port=0``) binds; ``url`` is
    the ``host:port`` clients dial.

    >>> with ServerThread(CacheServer(port=0)) as handle:  # doctest: +SKIP
    ...     store = RemoteStore(handle.url)
    """

    def __init__(self, server: Daemon):
        self.server = server
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._main, name="repro-daemon-loop", daemon=True
        )

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def url(self) -> str:
        return f"{self.host}:{self.port}"

    def _main(self) -> None:
        async def body():
            try:
                await self.server.start()
            except Exception as exc:  # surfaced by start()
                self._startup_error = exc
                return
            finally:
                self._ready.set()
            await self.server.wait_closed()

        asyncio.run(body())

    def start(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise RuntimeError(
                f"{type(self.server).__name__} failed to start"
            ) from self._startup_error
        return self

    def stop(self) -> None:
        if self._thread.is_alive():
            self.server.request_shutdown()
            self._thread.join()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
