"""The cluster wire protocol: length-prefixed binary frames.

One framing for both cluster daemons (``repro cache-server`` and
``repro worker``) and both clients (:class:`~repro.cluster.store.
RemoteStore`, :class:`~repro.cluster.executor.RemoteSliceExecutor`):

.. code-block:: text

    +--------+--------+-----------------+------------------+
    | magic  | opcode | payload length  | payload          |
    | 5 B    | 1 B    | 4 B big-endian  | `length` bytes   |
    +--------+--------+-----------------+------------------+

The magic (``RPCL1``) is a layout version: bump it with the frame
format.  Frames larger than :data:`MAX_FRAME_BYTES` are rejected before
any allocation, so a corrupt length field cannot make a peer swallow
gigabytes.

Damage on the read side — wrong magic, short read, oversize length —
raises :class:`ProtocolError`, a plain internal exception.  Clients map
it to their fail-open policy (a cache read becomes a miss, an executor
chunk is re-dispatched); servers answer :data:`OP_ERR` where they still
can and close the connection otherwise.  Nothing in this module ever
lets a malformed peer crash the process.

Payload conventions per opcode live with the daemons; this module
moves framed bytes, synchronously (blocking sockets, the client side)
and asynchronously (``asyncio`` streams, the server side), and runs the
one per-connection read-dispatch loop both daemons share
(:class:`FrameServer`).
"""

from __future__ import annotations

import asyncio
import socket
import struct
from typing import Optional, Tuple

from ..daemon import Daemon

#: Frame layout version tag; every frame starts with these bytes.
MAGIC = b"RPCL1"

#: Hard bound on one frame's payload (512 MiB): far above any chunk or
#: cache entry this system ships, far below a length field gone wild.
MAX_FRAME_BYTES = 512 * 1024 * 1024

_HEADER = struct.Struct(f">{len(MAGIC)}sBI")

# --- opcodes ----------------------------------------------------------------
# Requests and replies share one numbering; each daemon documents the
# subset it speaks.  Values are stable wire API.

OP_PING = 0x01        #: liveness probe (both daemons)
OP_PONG = 0x02        #: reply to PING
OP_GET = 0x10         #: cache: key in, HIT/MISS out
OP_PUT = 0x11         #: cache: key + payload in, OK out
OP_STATS = 0x12       #: cache: JSON CacheStats out
OP_PRUNE = 0x13       #: cache: 8-byte byte budget in, JSON out
OP_HIT = 0x14         #: cache reply: payload follows
OP_MISS = 0x15        #: cache reply: no entry
OP_OK = 0x16          #: generic success reply
OP_JSON = 0x17        #: reply: UTF-8 JSON payload
OP_INSTALL = 0x20     #: worker: digest + (network, plan) blob in, OK out
OP_EXEC = 0x21        #: worker: pickled chunk request in
OP_RESULT = 0x22      #: worker reply: pickled (value, stats)
OP_NEED_BLOB = 0x23   #: worker reply: EXEC names an uninstalled digest
OP_HEARTBEAT = 0x24   #: worker liveness tick while a chunk computes
OP_ERR = 0x7F         #: reply: UTF-8 error message

#: Opcode → name, for error messages and traces.
OP_NAMES = {
    value: name
    for name, value in globals().items()
    if name.startswith("OP_") and isinstance(value, int)
}


class ProtocolError(Exception):
    """A frame this peer cannot read: bad magic, truncation, oversize.

    Internal signal only — clients translate it into their fail-open
    behaviour; it never propagates out of the cluster subsystem.
    """


def parse_address(url: str) -> Tuple[str, int]:
    """``"host:port"`` (or ``"tcp://host:port"``) → ``(host, port)``.

    The address form every cluster knob accepts: ``--cache-url``,
    ``$REPRO_CACHE_URL``, ``--workers`` and
    :class:`~repro.core.session.CheckConfig` alike.
    """
    if not isinstance(url, str):
        raise TypeError(
            f"cluster address must be a 'host:port' string, got "
            f"{type(url).__name__} {url!r}"
        )
    stripped = url.strip()
    if stripped.startswith("tcp://"):
        stripped = stripped[len("tcp://"):]
    host, sep, port_text = stripped.rpartition(":")
    if not sep or not host or not port_text:
        raise ValueError(
            f"cluster address must look like 'host:port', got {url!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"cluster address has a non-numeric port: {url!r}"
        ) from None
    if not 0 < port < 65536:
        raise ValueError(
            f"cluster address port must be in 1..65535, got {url!r}"
        )
    return host, port


def encode_frame(op: int, payload: bytes = b"") -> bytes:
    """One wire frame: header + payload."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound"
        )
    return _HEADER.pack(MAGIC, op, len(payload)) + payload


def pack_kv(key: str, payload: bytes) -> bytes:
    """Frame body carrying a cache key plus its blob (``OP_PUT``)."""
    raw_key = key.encode()
    return len(raw_key).to_bytes(2, "big") + raw_key + payload


def unpack_kv(body: bytes) -> Tuple[str, bytes]:
    """Inverse of :func:`pack_kv`; raises :class:`ProtocolError` on damage."""
    if len(body) < 2:
        raise ProtocolError("key-value body shorter than its key length")
    key_len = int.from_bytes(body[:2], "big")
    if len(body) < 2 + key_len:
        raise ProtocolError("key-value body truncated inside the key")
    key = body[2:2 + key_len].decode("utf-8", errors="replace")
    return key, body[2 + key_len:]


# --- synchronous (client) side ----------------------------------------------


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise :class:`ProtocolError`.

    A peer closing mid-frame (worker killed, server restarted) surfaces
    as the same error as garbage — callers only need one recovery path.
    """
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except (OSError, ValueError) as exc:
            raise ProtocolError(f"connection failed mid-read: {exc}") from exc
        if not chunk:
            raise ProtocolError(
                f"connection closed with {remaining} of {count} bytes unread"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, op: int, payload: bytes = b"") -> None:
    """Write one frame to a blocking socket."""
    try:
        sock.sendall(encode_frame(op, payload))
    except (OSError, ValueError) as exc:
        raise ProtocolError(f"connection failed mid-write: {exc}") from exc


def recv_frame(sock: socket.socket) -> Tuple[int, bytes]:
    """Read one frame from a blocking socket → ``(opcode, payload)``.

    Honour the socket's timeout: ``socket.timeout`` propagates (the
    caller decides whether a silent peer is dead), everything else that
    is wrong with the bytes raises :class:`ProtocolError`.
    """
    header = _recv_exact(sock, _HEADER.size)
    magic, op, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(
            f"bad frame magic {magic!r} (expected {MAGIC!r})"
        )
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame declares {length} payload bytes, over the "
            f"{MAX_FRAME_BYTES}-byte bound"
        )
    return op, _recv_exact(sock, length)


def connect(
    host: str, port: int, timeout: Optional[float]
) -> socket.socket:
    """A connected TCP socket with ``TCP_NODELAY`` and the timeout set.

    Raises ``OSError`` on refusal/unreachability — the caller's retry
    and fail-open policy lives above this.
    """
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    return sock


# --- asynchronous (server) side ---------------------------------------------


async def read_frame_async(
    reader: asyncio.StreamReader,
) -> Tuple[int, bytes]:
    """Read one frame from an asyncio stream → ``(opcode, payload)``.

    ``asyncio.IncompleteReadError`` (peer went away mid-frame) and bad
    bytes both raise :class:`ProtocolError`; a clean EOF *before* any
    header byte raises ``EOFError`` so connection loops can distinguish
    "done" from "damaged".
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise EOFError("connection closed between frames") from exc
        raise ProtocolError(
            "connection closed inside a frame header"
        ) from exc
    magic, op, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(
            f"bad frame magic {magic!r} (expected {MAGIC!r})"
        )
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame declares {length} payload bytes, over the "
            f"{MAX_FRAME_BYTES}-byte bound"
        )
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            "connection closed inside a frame payload"
        ) from exc
    return op, payload


async def write_frame_async(
    writer: asyncio.StreamWriter, op: int, payload: bytes = b""
) -> None:
    """Write one frame to an asyncio stream and drain."""
    writer.write(encode_frame(op, payload))
    await writer.drain()


class FrameServer(Daemon):
    """A :class:`~repro.daemon.Daemon` speaking cluster frames.

    Each connection is one loop: read a frame, hand it to
    :meth:`_dispatch`, repeat until the peer hangs up.  A peer whose
    bytes cannot be framed gets one best-effort ``ERR`` and is
    disconnected; the server keeps serving every other connection.
    """

    async def _dispatch(
        self, writer: asyncio.StreamWriter, op: int, payload: bytes
    ) -> None:
        raise NotImplementedError

    def _protocol_error(self) -> None:
        """Hook: a peer sent bytes that cannot be framed."""

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    op, payload = await read_frame_async(reader)
                except EOFError:
                    return
                except asyncio.CancelledError:
                    return  # loop teardown with the connection still open
                except ProtocolError as exc:
                    # a peer we cannot frame-sync with anymore: tell it
                    # once (best-effort) and hang up
                    self._protocol_error()
                    try:
                        await write_frame_async(
                            writer, OP_ERR, str(exc).encode()
                        )
                    except (OSError, ConnectionError):
                        pass
                    return
                try:
                    await self._dispatch(writer, op, payload)
                except (OSError, ConnectionError):
                    return  # peer went away mid-reply
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError, asyncio.CancelledError):
                # CancelledError: loop teardown cancelled this handler
                # while the connection was still open — the socket is
                # closed either way, and re-raising would only print a
                # traceback mid-shutdown
                pass
