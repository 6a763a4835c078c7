"""``repro worker`` — one remote slice-execution daemon.

A worker owns the same per-process warm state a
:class:`~concurrent.futures.ProcessPoolExecutor` worker does — cached
backend instances and a digest-keyed ``(network, plan)`` payload — and
exposes it over cluster frames instead of pipe-based IPC:

``PING``
    liveness probe → ``PONG``.
``INSTALL``
    ``digest`` + pickled ``(network, plan)`` blob (``pack_kv`` body) →
    ``OK``.  Ships once per contraction per worker; every subsequent
    chunk of that contraction names only the digest.
``EXEC``
    pickled ``(spec, digest, assignments, trace_spans)`` → ``RESULT``
    (pickled ``(value, stats)``), after ``HEARTBEAT`` frames every
    ``heartbeat_interval`` seconds while the chunk computes.  Naming a
    digest this worker has never seen → ``NEED_BLOB``, telling the
    dispatcher to ``INSTALL`` and retry.  A failing contraction →
    ``ERR`` with the message; the dispatcher decides whether that is a
    lost worker or a poisoned chunk.

Chunks execute on a single-thread pool (a worker is one core's worth of
compute — run several daemons for more), with the asyncio loop free to
tick heartbeats, so a dispatcher can tell "slow chunk, alive worker"
from "dead worker" without guessing.

``EXEC``/``INSTALL`` payloads are unpickled, which is remote code
execution by design — identical to the trust model of the process pool
it mirrors.  Bind workers to loopback or a private network only; see
``docs/cluster.md``.

``fail_after_chunks`` hard-exits the process the moment the N+1-th
``EXEC`` arrives — the deterministic "worker dies mid-batch" every
re-dispatch test needs, instead of a timing-dependent kill.
"""

from __future__ import annotations

import asyncio
import os
import pickle
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional

from ..parallel.worker import run_slice_chunk_blob
from .protocol import (
    OP_ERR,
    OP_EXEC,
    OP_HEARTBEAT,
    OP_INSTALL,
    OP_NAMES,
    OP_NEED_BLOB,
    OP_OK,
    OP_PING,
    OP_PONG,
    OP_RESULT,
    FrameServer,
    ProtocolError,
    unpack_kv,
    write_frame_async,
)

#: Seconds between HEARTBEAT frames while a chunk computes.
DEFAULT_HEARTBEAT_INTERVAL = 0.5

#: Environment knob the CLI wires to ``fail_after_chunks`` — lets the
#: simulated-fleet tests spawn a worker that deterministically dies
#: before its N+1-th chunk.
EXIT_AFTER_ENV = "REPRO_WORKER_EXIT_AFTER"


class WorkerServer(FrameServer):
    """One remote slice worker: warm caches behind an asyncio socket."""

    kind = "worker"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        fail_after_chunks: Optional[int] = None,
        log_stream=None,
    ):
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        super().__init__(host, port, log_stream)
        self.heartbeat_interval = heartbeat_interval
        self.fail_after_chunks = fail_after_chunks
        #: digest → pickled (network, plan) blob; single entry, like the
        #: process-pool worker's payload cache — one contraction at a time
        self._blobs: Dict[str, bytes] = {}
        self.chunks_done = 0
        self._compute = ThreadPoolExecutor(max_workers=1)

    def _ready_fields(self) -> dict:
        return {"pid": os.getpid()}

    async def _drain(self) -> dict:
        self._compute.shutdown(wait=False)
        return {"chunks": self.chunks_done}

    # --- request handling ----------------------------------------------------

    async def _dispatch(
        self, writer: asyncio.StreamWriter, op: int, payload: bytes
    ) -> None:
        if op == OP_PING:
            await write_frame_async(writer, OP_PONG)
            return
        if op == OP_INSTALL:
            try:
                digest, blob = unpack_kv(payload)
            except ProtocolError as exc:
                await write_frame_async(writer, OP_ERR, str(exc).encode())
                return
            # one contraction at a time: the new payload replaces the old
            self._blobs.clear()
            self._blobs[digest] = blob
            await write_frame_async(writer, OP_OK)
            return
        if op == OP_EXEC:
            await self._exec_chunk(writer, payload)
            return
        name = OP_NAMES.get(op, hex(op))
        await write_frame_async(
            writer, OP_ERR,
            f"worker does not speak opcode {name}".encode(),
        )

    async def _exec_chunk(
        self, writer: asyncio.StreamWriter, payload: bytes
    ) -> None:
        try:
            spec, digest, assignments, tracing = pickle.loads(payload)
        except Exception as exc:
            await write_frame_async(
                writer, OP_ERR, f"undecodable exec request: {exc}".encode()
            )
            return
        blob = self._blobs.get(digest)
        if blob is None:
            await write_frame_async(writer, OP_NEED_BLOB, digest.encode())
            return
        if (
            self.fail_after_chunks is not None
            and self.chunks_done >= self.fail_after_chunks
        ):
            # the deterministic mid-batch death the fleet tests script:
            # drop the process on the floor, mid-conversation
            self._log_event("fail-injection-exit", chunks=self.chunks_done)
            os._exit(17)
        future = asyncio.get_running_loop().run_in_executor(
            self._compute,
            run_slice_chunk_blob,
            spec, digest, blob, assignments, tracing,
        )
        # heartbeat while the chunk computes, so the dispatcher can tell
        # a slow chunk from a dead worker
        while True:
            done, _ = await asyncio.wait(
                [future], timeout=self.heartbeat_interval
            )
            if done:
                break
            await write_frame_async(writer, OP_HEARTBEAT)
        try:
            value, stats = future.result()
        except Exception as exc:
            await write_frame_async(
                writer, OP_ERR,
                f"{type(exc).__name__}: {exc}".encode(),
            )
            return
        self.chunks_done += 1
        await write_frame_async(
            writer, OP_RESULT,
            pickle.dumps((value, stats), pickle.HIGHEST_PROTOCOL),
        )
