"""repro.cluster — distributed slice execution and a shared cache tier.

The scale-out subsystem: two small daemons (``repro cache-server``,
``repro worker``), two clients that plug into existing seams
(:class:`RemoteStore` is a :class:`~repro.cache.store.CacheStore` tier,
:class:`RemoteSliceExecutor` is a
:class:`~repro.parallel.executors.SliceExecutor`), and one shared
length-prefixed frame protocol (:mod:`repro.cluster.protocol`) — all
stdlib-only.

Both clients are built to *lose*: a dead cache server degrades every
lookup to a miss, a dead worker hands its chunks to the survivors (or
back to the local backend), and the ``repro_remote_*`` counters in
:mod:`repro.cluster.metrics` are how anyone finds out.  See
``docs/cluster.md`` for the protocol, deployment topology and the full
failure matrix.
"""

from ..daemon import ServerThread
from .cache_server import CacheServer
from .executor import (
    RemoteSliceExecutor,
    WorkerClient,
    WORKERS_ENV,
    resolve_workers,
)
from .metrics import (
    COUNTER_NAMES,
    counters_snapshot,
    metric_counters,
    reset_counters,
)
from .protocol import MAGIC, MAX_FRAME_BYTES, ProtocolError, parse_address
from .store import CACHE_URL_ENV, RemoteStore, resolve_cache_url
from .worker_server import EXIT_AFTER_ENV, WorkerServer

__all__ = [
    "CACHE_URL_ENV",
    "COUNTER_NAMES",
    "CacheServer",
    "EXIT_AFTER_ENV",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "RemoteSliceExecutor",
    "RemoteStore",
    "ServerThread",
    "WORKERS_ENV",
    "WorkerClient",
    "WorkerServer",
    "counters_snapshot",
    "metric_counters",
    "parse_address",
    "reset_counters",
    "resolve_cache_url",
    "resolve_workers",
]
