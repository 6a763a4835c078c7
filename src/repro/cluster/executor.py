""":class:`RemoteSliceExecutor` — slice chunks across ``repro worker`` daemons.

The distributed sibling of
:class:`~repro.parallel.executors.ProcessSliceExecutor`: both run on
:class:`~repro.parallel.executors.ChunkedSliceExecutor`, so the chunked
dispatch (batch-aligned chunks, payload pickled once and keyed by its
sha1 digest) and the deterministic chunk-order reduce are one piece of
code, and this class only adds the transport.  Its workers are sockets
instead of forked processes — so they can live on other machines, and
so they can *die*.

The failure model is therefore the core of this class:

* Every chunk exchange runs under a heartbeat grace (a worker that goes
  silent — no ``HEARTBEAT``, no ``RESULT`` — is dead) and a per-chunk
  deadline (a worker that heartbeats forever without finishing is a
  straggler; its chunk is taken away).
* A dead or straggling worker's chunk goes back on the queue and is
  re-dispatched to any surviving worker; the worker is dropped from the
  pool for the rest of the contraction.
* When the pool empties, the remaining chunks run locally on the
  dispatching backend — a fleet of zero workers degrades to
  :class:`~repro.parallel.executors.SerialExecutor` semantics, never to
  an error (``local_fallback=False`` opts administrative callers out,
  surfacing :class:`~repro.api.errors.WorkerLostError` instead).

Determinism: partial sums are reduced in chunk index order whatever
worker produced them and however often they were re-dispatched, so the
scalar is bit-identical to a single-host
:class:`~repro.parallel.executors.ProcessSliceExecutor` run with the
same chunking, and agrees with ``SerialExecutor`` to the suite's 1e-9
bound.
"""

from __future__ import annotations

import pickle
import queue
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..parallel.executors import ChunkedSliceExecutor
from . import metrics as _metrics
from .protocol import (
    OP_ERR,
    OP_EXEC,
    OP_HEARTBEAT,
    OP_INSTALL,
    OP_NEED_BLOB,
    OP_OK,
    OP_PING,
    OP_PONG,
    OP_RESULT,
    ProtocolError,
    connect,
    pack_kv,
    parse_address,
    recv_frame,
    send_frame,
)
from .worker_server import DEFAULT_HEARTBEAT_INTERVAL

#: Environment variable naming the worker fleet (comma-separated
#: ``host:port`` list), the executor-side sibling of ``REPRO_CACHE_URL``.
WORKERS_ENV = "REPRO_WORKERS"

#: Default TCP connect timeout per worker (seconds).
DEFAULT_CONNECT_TIMEOUT = 1.0

#: Grace multiplier: a worker is declared dead after
#: ``heartbeat_interval * DEFAULT_GRACE_FACTOR`` silent seconds.
DEFAULT_GRACE_FACTOR = 6.0

#: Default hard per-chunk wall-clock bound (seconds).  Generous — the
#: deadline exists to unstick a batch from a pathological straggler,
#: not to police normal variance.
DEFAULT_CHUNK_DEADLINE = 300.0


def resolve_workers(
    workers: Union[None, str, Sequence[str]] = None,
) -> Optional[Tuple[str, ...]]:
    """Normalise a worker-fleet spec to a tuple of ``host:port`` strings.

    Accepts a comma-separated string (the CLI/env form), any sequence of
    address strings, or ``None`` — which consults ``$REPRO_WORKERS``.
    Empty specs resolve to ``None`` ("no fleet").  Every address is
    validated eagerly so a typo fails at configuration time, not in the
    middle of a batch.
    """
    import os

    if workers is None:
        workers = os.environ.get(WORKERS_ENV)
    if workers is None:
        return None
    if isinstance(workers, str):
        workers = [part for part in workers.split(",")]
    addresses = tuple(part.strip() for part in workers if part.strip())
    if not addresses:
        return None
    for address in addresses:
        parse_address(address)
    return addresses


class WorkerClient:
    """One persistent connection to a ``repro worker`` daemon.

    Not thread-safe by design: the executor gives each worker exactly
    one dispatch thread.  All faults — dial failure, silence past the
    heartbeat grace, protocol damage, a worker-side error reply — raise
    :class:`~repro.api.errors.WorkerLostError`; the caller owns requeue
    policy.
    """

    def __init__(
        self,
        url: str,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        heartbeat_grace: float = (
            DEFAULT_HEARTBEAT_INTERVAL * DEFAULT_GRACE_FACTOR
        ),
        chunk_deadline: Optional[float] = DEFAULT_CHUNK_DEADLINE,
    ):
        self.url = url
        self.host, self.port = parse_address(url)
        self.connect_timeout = connect_timeout
        self.heartbeat_grace = heartbeat_grace
        self.chunk_deadline = chunk_deadline
        self._sock: Optional[socket.socket] = None
        #: digests this worker confirmed installing over this connection
        self._installed: set = set()

    def _lost(self, why: str, cause: Optional[BaseException] = None):
        from ..api.errors import WorkerLostError

        self.close()
        error = WorkerLostError(
            f"worker {self.url} lost: {why}",
            details={"worker": self.url},
        )
        if cause is not None:
            raise error from cause
        raise error

    def _connection(self) -> socket.socket:
        if self._sock is None:
            try:
                sock = connect(self.host, self.port, self.connect_timeout)
            except OSError as exc:
                self._lost(f"connect failed: {exc}", exc)
            sock.settimeout(self.heartbeat_grace)
            self._sock = sock
            self._installed = set()  # a fresh process knows nothing
        return self._sock

    def close(self) -> None:
        sock, self._sock = self._sock, None
        self._installed = set()
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass

    def ping(self) -> bool:
        """Liveness probe; never raises."""
        try:
            sock = self._connection()
            send_frame(sock, OP_PING)
            op, _ = recv_frame(sock)
            return op == OP_PONG
        except Exception:
            self.close()
            return False

    def _install(self, digest: str, blob: bytes) -> None:
        sock = self._connection()
        send_frame(sock, OP_INSTALL, pack_kv(digest, blob))
        op, payload = recv_frame(sock)
        if op != OP_OK:
            self._lost(
                f"install of payload {digest[:12]} rejected: "
                f"{payload[:200]!r}"
            )
        self._installed.add(digest)

    def run_chunk(
        self,
        spec: Dict[str, object],
        digest: str,
        blob: bytes,
        assignments: Sequence[Dict[str, int]],
        tracing: bool,
    ):
        """Execute one chunk remotely → ``(value, stats)``.

        Ships the payload blob first if this connection has not
        installed ``digest`` yet (or the worker asks via ``NEED_BLOB`` —
        a restarted worker forgets, and the executor must not care).
        """
        try:
            sock = self._connection()
            if digest not in self._installed:
                self._install(digest, blob)
            request = pickle.dumps(
                (spec, digest, assignments, tracing),
                pickle.HIGHEST_PROTOCOL,
            )
            send_frame(sock, OP_EXEC, request)
            started = time.monotonic()
            while True:
                if (
                    self.chunk_deadline is not None
                    and time.monotonic() - started > self.chunk_deadline
                ):
                    self._lost(
                        f"chunk exceeded the {self.chunk_deadline:g}s "
                        f"deadline"
                    )
                try:
                    op, payload = recv_frame(sock)
                except socket.timeout as exc:
                    self._lost(
                        f"no heartbeat for {self.heartbeat_grace:g}s", exc
                    )
                if op == OP_HEARTBEAT:
                    continue
                if op == OP_NEED_BLOB:
                    # restarted worker: install and re-dispatch in place
                    self._install(digest, blob)
                    send_frame(sock, OP_EXEC, request)
                    started = time.monotonic()
                    continue
                if op == OP_RESULT:
                    return pickle.loads(payload)
                if op == OP_ERR:
                    self._lost(
                        f"chunk failed remotely: "
                        f"{payload.decode('utf-8', errors='replace')[:500]}"
                    )
                self._lost(f"unexpected reply opcode {op:#x}")
        except (OSError, ProtocolError, pickle.PickleError, EOFError) as exc:
            self._lost(f"{type(exc).__name__}: {exc}", exc)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WorkerClient({self.url!r})"


class RemoteSliceExecutor(ChunkedSliceExecutor):
    """Dispatch slice chunks to a fleet of ``repro worker`` daemons.

    Parameters
    ----------
    workers:
        Worker addresses — comma-separated string, sequence, or ``None``
        to read ``$REPRO_WORKERS``.
    chunk_size:
        Assignments per dispatched chunk; ``None`` auto-sizes like
        :class:`~repro.parallel.executors.ProcessSliceExecutor`.
    connect_timeout / heartbeat_grace / chunk_deadline:
        Per-worker fault bounds, passed to :class:`WorkerClient`.
    local_fallback:
        ``True`` (default): chunks left when every worker is dead run
        on the dispatching backend in-process.  ``False``: raise
        :class:`~repro.api.errors.WorkerLostError` instead.
    """

    dispatch_span = "slices.remote.dispatch"

    def __init__(
        self,
        workers: Union[None, str, Sequence[str]] = None,
        chunk_size: Optional[int] = None,
        *,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        heartbeat_grace: float = (
            DEFAULT_HEARTBEAT_INTERVAL * DEFAULT_GRACE_FACTOR
        ),
        chunk_deadline: Optional[float] = DEFAULT_CHUNK_DEADLINE,
        local_fallback: bool = True,
    ):
        addresses = resolve_workers(workers)
        if not addresses:
            raise ValueError(
                "RemoteSliceExecutor needs at least one worker address "
                "(argument or $REPRO_WORKERS)"
            )
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        self.addresses = addresses
        self.chunk_size = chunk_size
        self.local_fallback = local_fallback
        self._clients = [
            WorkerClient(
                url,
                connect_timeout=connect_timeout,
                heartbeat_grace=heartbeat_grace,
                chunk_deadline=chunk_deadline,
            )
            for url in addresses
        ]

    @property
    def jobs(self) -> int:
        """Fleet size — the parallelism the chunker plans for."""
        return len(self._clients)

    def close(self) -> None:
        for client in self._clients:
            client.close()

    # --- dispatch ------------------------------------------------------------

    def _run_chunks(
        self, backend, network, plan, stats, chunks, payload, dispatch_span
    ):
        dispatch_span.set(
            chunks=len(chunks), workers=self.jobs,
            digest=payload.digest[:12],
        )
        pending: "queue.Queue" = queue.Queue()
        for item in enumerate(chunks):
            pending.put(item)
        results: Dict[int, tuple] = {}
        remaining = [len(chunks)]
        lock = threading.Lock()

        def dispatch_loop(client: WorkerClient) -> None:
            while True:
                with lock:
                    if remaining[0] == 0:
                        return
                try:
                    index, chunk = pending.get(timeout=0.05)
                except queue.Empty:
                    continue
                try:
                    value, chunk_stats = client.run_chunk(
                        payload.spec, payload.digest, payload.blob, chunk,
                        payload.tracing,
                    )
                except BaseException:
                    # dead or straggling worker: its chunk goes back on
                    # the queue for the survivors, the worker is out for
                    # the rest of this contraction
                    pending.put((index, chunk))
                    _metrics.increment("remote_redispatches")
                    _metrics.increment("remote_workers_lost")
                    return
                with lock:
                    results[index] = (client.url, value, chunk_stats)
                    remaining[0] -= 1
                _metrics.increment("remote_chunks")

        threads = [
            threading.Thread(
                target=dispatch_loop,
                args=(client,),
                name=f"repro-remote-{client.url}",
                daemon=True,
            )
            for client in self._clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # every thread has returned: either all chunks landed, or the
        # surviving queue is work the dead pool never finished
        leftovers = []
        while True:
            try:
                leftovers.append(pending.get_nowait())
            except queue.Empty:
                break
        leftovers = [item for item in leftovers if item[0] not in results]
        if leftovers and not self.local_fallback:
            from ..api.errors import WorkerLostError

            raise WorkerLostError(
                f"{len(leftovers)} chunk(s) undispatchable: every "
                f"worker in {list(self.addresses)} is lost",
                details={"workers": list(self.addresses)},
            )
        for index, chunk in leftovers:
            chunk_stats = type(stats)() if stats is not None else None
            value = backend.contract_scalar(
                network, stats=chunk_stats, plan=plan, assignments=chunk,
            )
            results[index] = (None, value, chunk_stats)
            _metrics.increment("remote_fallback_chunks")
        # chunk-index-order reduce: bit-identical however the fleet
        # scheduled, re-dispatched or dropped the work
        for index in range(len(chunks)):
            origin, value, chunk_stats = results[index]
            yield value, chunk_stats, {
                "chunk": index, "worker": origin or "local",
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RemoteSliceExecutor(workers={list(self.addresses)!r}, "
            f"chunk_size={self.chunk_size})"
        )
