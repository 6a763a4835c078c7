"""repro.service — the asyncio HTTP service over :class:`repro.Engine`.

Dependency-free (stdlib ``asyncio`` only): one engine, served over
HTTP/1.1 with the versioned wire schema, Prometheus metrics, admission
control and per-request deadlines.  ``repro serve`` is the CLI front
door; :class:`ServiceThread` hosts a server in-process for tests,
benchmarks and examples.
"""

from .http import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    HttpError,
    HttpRequest,
    read_request,
    render_response,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_counter_block,
)
from .server import (
    STATUS_BY_CODE,
    ReproService,
    ServiceConfig,
    ServiceThread,
    http_status_for,
    request_log_fingerprint,
)

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "HttpError",
    "HttpRequest",
    "read_request",
    "render_response",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_counter_block",
    "STATUS_BY_CODE",
    "ReproService",
    "ServiceConfig",
    "ServiceThread",
    "http_status_for",
    "request_log_fingerprint",
]
