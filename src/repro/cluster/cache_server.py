"""``repro cache-server`` — the shared remote cache tier, as a daemon.

One asyncio TCP server exposing a :class:`~repro.cache.store.CacheStore`
over the cluster protocol: ``GET``/``PUT``/``STATS``/``PRUNE``/``PING``
frames in, ``HIT``/``MISS``/``OK``/``JSON``/``PONG`` frames out.  The
backing store is the same memory-LRU-over-disk chain a local session
uses, so the server is nothing but a network face on the existing
tiers — one more place the "cache can only cause recomputes" contract
holds.

Robustness mirrors :class:`~repro.cache.store.DiskStore`'s posture: a
client sending garbage magic, a truncated frame or an unknown opcode
gets an ``ERR`` reply where a reply is still possible and its
connection closed otherwise; the server itself never stops serving the
other connections.  Keys are validated against the content-addressed
alphabet before touching the filesystem, so a malicious key cannot
escape the cache directory.

The lifecycle is the one all daemons share (:mod:`repro.daemon`):
construction is cheap, :meth:`CacheServer.start` binds (``port=0``
picks an ephemeral port, announced in the JSON ready line),
``SIGTERM``/``SIGINT`` drain and exit.  ``repro cache-server`` is the
CLI front end.
"""

from __future__ import annotations

import asyncio
import json
import string
from typing import Optional

from ..cache.store import (
    DEFAULT_MEMORY_ENTRIES,
    CacheStore,
    DiskStore,
    MemoryStore,
    TieredStore,
)
from .protocol import (
    OP_ERR,
    OP_GET,
    OP_HIT,
    OP_JSON,
    OP_MISS,
    OP_NAMES,
    OP_OK,
    OP_PING,
    OP_PONG,
    OP_PRUNE,
    OP_PUT,
    OP_STATS,
    FrameServer,
    ProtocolError,
    unpack_kv,
    write_frame_async,
)

#: Characters a cache key may contain (content-addressed hex digests
#: plus the ``plan-``/``result-`` kind prefixes).
_KEY_ALPHABET = frozenset(string.ascii_lowercase + string.digits + "-")

#: Upper bound on key length; real keys are ``<kind>-<64 hex>``.
_MAX_KEY_LENGTH = 128


def valid_key(key: str) -> bool:
    """Whether ``key`` is shaped like a content-addressed cache key.

    The guard that keeps a hostile peer's ``../../etc/passwd`` out of
    :meth:`DiskStore._path` — defence in depth on top of the trusted-
    network deployment model.
    """
    return (
        0 < len(key) <= _MAX_KEY_LENGTH
        and set(key) <= _KEY_ALPHABET
        and not key.startswith("-")
    )


class CacheServer(FrameServer):
    """One store, served over asyncio TCP cluster frames."""

    kind = "cache-server"

    def __init__(
        self,
        store: Optional[CacheStore] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        cache_dir=None,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
        log_stream=None,
    ):
        super().__init__(host, port, log_stream)
        if store is None:
            store = TieredStore([
                MemoryStore(max_entries=memory_entries),
                DiskStore(cache_dir),
            ])
        self.store = store
        #: request counters by operation name (``stats`` reply, logs)
        self.requests = {
            name: 0 for name in ("get", "put", "stats", "prune", "ping",
                                 "errors")
        }

    def _ready_fields(self) -> dict:
        return {"directory": self.store.directory}

    async def _drain(self) -> dict:
        return {"requests": dict(self.requests)}

    # --- request handling ----------------------------------------------------

    def _protocol_error(self) -> None:
        self.requests["errors"] += 1

    async def _dispatch(
        self, writer: asyncio.StreamWriter, op: int, payload: bytes
    ) -> None:
        if op == OP_PING:
            self.requests["ping"] += 1
            await write_frame_async(writer, OP_PONG)
            return
        if op == OP_GET:
            self.requests["get"] += 1
            key = payload.decode("utf-8", errors="replace")
            entry = self.store.get(key) if valid_key(key) else None
            if entry is None:
                await write_frame_async(writer, OP_MISS)
            else:
                await write_frame_async(writer, OP_HIT, entry)
            return
        if op == OP_PUT:
            self.requests["put"] += 1
            try:
                key, blob = unpack_kv(payload)
            except ProtocolError as exc:
                self.requests["errors"] += 1
                await write_frame_async(writer, OP_ERR, str(exc).encode())
                return
            if not valid_key(key):
                self.requests["errors"] += 1
                await write_frame_async(
                    writer, OP_ERR, f"invalid cache key {key!r}".encode()
                )
                return
            self.store.put(key, blob)
            await write_frame_async(writer, OP_OK)
            return
        if op == OP_STATS:
            self.requests["stats"] += 1
            record = {
                "stats": self.store.stats().to_dict(),
                "requests": dict(self.requests),
            }
            await write_frame_async(
                writer, OP_JSON, json.dumps(record).encode()
            )
            return
        if op == OP_PRUNE:
            self.requests["prune"] += 1
            if len(payload) != 8:
                self.requests["errors"] += 1
                await write_frame_async(
                    writer, OP_ERR, b"prune payload must be 8 bytes"
                )
                return
            max_bytes = int.from_bytes(payload, "big")
            if max_bytes == 0:
                removed = self.store.clear()
            else:
                removed = self.store.prune(max_bytes)
            await write_frame_async(
                writer, OP_JSON,
                json.dumps({"removed": removed}).encode(),
            )
            return
        self.requests["errors"] += 1
        name = OP_NAMES.get(op, hex(op))
        await write_frame_async(
            writer, OP_ERR,
            f"cache server does not speak opcode {name}".encode(),
        )
