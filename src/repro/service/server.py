"""The asyncio HTTP service over :class:`~repro.api.engine.Engine`.

One :class:`ReproService` owns one engine and serves the versioned wire
schema over HTTP/1.1 (stdlib ``asyncio`` streams — no framework):

========================  ==================================================
``POST /v1/check``        one ``CheckRequest`` wire JSON in, one
                          ``CheckResponse`` wire JSON out
``POST /v1/batch``        NDJSON request rows in, order-preserving,
                          error-isolating chunked NDJSON records out
                          (:meth:`Engine.check_iter` semantics)
``POST /v1/jobs``         submit; returns a job id to poll
``GET /v1/jobs/{id}``     poll/collect a submitted job (collectable once)
``GET /metrics``          Prometheus text format: request counters and
                          latency histograms plus the engine's cumulative
                          :class:`~repro.core.stats.StatsAggregator`
                          counters (cache hits, wall vs CPU seconds)
``GET /healthz``          liveness probe
========================  ==================================================

Typed :class:`~repro.api.errors.ReproError` codes map onto HTTP statuses
through :data:`STATUS_BY_CODE` — the body of every failure is the same
error record the wire schema already defines, so HTTP callers and CLI
batch consumers parse one shape.

Blocking engine calls run on a bounded thread pool sized to
``max_inflight``; admission control answers request number
``max_inflight + 1`` with ``503`` + ``Retry-After`` instead of queueing
(the pool can never build a backlog, so the service cannot deadlock
under saturation).  Per-request deadlines come from the
``X-Repro-Timeout`` header (capped by the server default); an expired
deadline answers ``504`` with a ``deadline_exceeded`` record while the
abandoned thread finishes in the background, still holding its
admission slot so capacity accounting stays truthful.  Every request
emits one structured JSON log line.  ``SIGTERM``/``SIGINT`` stop the
listener, drain in-flight requests (grace-bounded) and close the
engine.

Observability: an ``X-Repro-Trace: 1`` header on ``POST /v1/check``
turns on span tracing for that request (the span tree rides back inline
as the result's ``trace`` key), every successful check feeds the
``repro_phase_seconds{phase=...}`` histogram, and the access log's
``trace_id`` field is the same 16-hex :meth:`CheckRequest.trace_id`
that job ids and span traces carry — see ``docs/observability.md``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import AsyncIterator, Dict, Optional, Tuple

from ..api.engine import Engine
from ..api.errors import (
    DeadlineExceededError,
    InvalidRequestError,
    JobNotFoundError,
    OverloadedError,
    ReproError,
)
from ..api.request import CheckRequest
from ..api.response import CheckResponse
from ..core.stats import SCHEMA_VERSION, StatsAggregator
from ..daemon import Daemon, ServerThread
from ..trace import tree_phase_seconds
from .http import (
    LAST_CHUNK,
    HttpError,
    HttpRequest,
    read_request,
    render_chunk,
    render_chunked_head,
    render_response,
)
from .metrics import MetricsRegistry, render_counter_block

#: Error-code → HTTP-status mapping of the service.  Stable API, like
#: the codes themselves: clients branch on these statuses.  Codes
#: absent here (future taxonomy growth) answer 500.
STATUS_BY_CODE: Dict[str, int] = {
    "invalid_request": 400,
    "unknown_field": 400,
    "unsupported_schema_version": 400,
    "invalid_circuit_spec": 400,
    "invalid_noise_spec": 400,
    "invalid_config": 400,
    "circuit_load_failed": 400,
    "job_not_found": 404,
    "check_failed": 500,
    "repro_error": 500,
    "deadline_exceeded": 504,
    "overloaded": 503,
    # cluster peers out of reach: a retryable service-side condition,
    # like overload — though the checking paths are fail-open and only
    # surface these codes from fail-closed administrative calls
    "remote_unavailable": 503,
    "worker_lost": 503,
}


def http_status_for(code: str) -> int:
    """The HTTP status serving a :class:`ReproError` machine code."""
    return STATUS_BY_CODE.get(code, 500)


def request_log_fingerprint(request: CheckRequest) -> str:
    """A cheap, stable identity of a request for log correlation.

    Delegates to :meth:`CheckRequest.trace_id` — the access log, job ids
    and span traces share one 16-hex field, so one ``grep`` follows a
    request across all three.  This is *not* the result-cache key
    (:meth:`Engine.fingerprint` hashes the resolved circuit content,
    which costs a resolution); a log line must never pay
    contraction-scale work.
    """
    return request.trace_id()


def _job_trace_id(job_id: str) -> Optional[str]:
    """The 16-hex trace id embedded in a ``job-<id>-<n>`` job id."""
    parts = job_id.split("-")
    if len(parts) == 3 and parts[0] == "job" and len(parts[1]) == 16:
        return parts[1]
    return None


_TRUTHY_HEADER = ("1", "true", "yes", "on")


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`ReproService`."""

    host: str = "127.0.0.1"
    port: int = 8000
    #: admission-control bound: requests in flight beyond this are
    #: answered 503 + Retry-After instead of queued
    max_inflight: int = 8
    #: default per-request deadline (seconds); the ``X-Repro-Timeout``
    #: header can shorten but never extend it
    request_timeout: float = 30.0
    #: seconds the shutdown path waits for in-flight requests
    drain_grace_seconds: float = 10.0
    #: advisory Retry-After (seconds) on 503 rejections
    retry_after_seconds: int = 1

    def __post_init__(self):
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.drain_grace_seconds < 0:
            raise ValueError("drain_grace_seconds must be non-negative")


@dataclass
class _Outcome:
    """One handler's answer, before HTTP framing."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: Tuple[Tuple[str, str], ...] = ()
    #: NDJSON line stream (chunked response) instead of a fixed body
    stream: Optional[AsyncIterator[bytes]] = None
    #: extra structured-log fields (verdict, error_code, cache hits...)
    log: dict = field(default_factory=dict)


def _json_outcome(status: int, payload: dict, **kwargs) -> _Outcome:
    return _Outcome(
        status=status,
        body=(json.dumps(payload) + "\n").encode(),
        **kwargs,
    )


def _error_outcome(error: ReproError, **kwargs) -> _Outcome:
    outcome = _json_outcome(http_status_for(error.code), error.to_dict(),
                            **kwargs)
    outcome.log["error_code"] = error.code
    return outcome


class ReproService(Daemon):
    """One engine, served over asyncio HTTP/1.1.

    Construction is cheap; :meth:`start` binds the socket.  The service
    assumes exclusive ownership of the engine's lifecycle: shutdown
    closes it.
    """

    def __init__(
        self,
        engine: Engine,
        config: Optional[ServiceConfig] = None,
        *,
        log_stream=None,
        **overrides,
    ):
        if config is None:
            config = ServiceConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a ServiceConfig or overrides")
        super().__init__(config.host, config.port, log_stream)
        self.engine = engine
        self.config = config
        #: cumulative per-check RunStats counters, shared with /metrics
        self.stats = StatsAggregator()
        self._executor = ThreadPoolExecutor(
            max_workers=config.max_inflight,
            thread_name_prefix="repro-service",
        )
        self._inflight = 0  # touched only on the event loop
        self._drained = asyncio.Event()
        self._drained.set()  # no work yet
        self._connections: set = set()

        self.registry = MetricsRegistry()
        self._requests_total = self.registry.counter(
            "repro_requests_total",
            "HTTP requests served, by method, path and status.",
            ("method", "path", "status"),
        )
        self._request_seconds = self.registry.histogram(
            "repro_request_seconds",
            "Wall-clock request latency in seconds, by path.",
            ("path",),
        )
        self._inflight_gauge = self.registry.gauge(
            "repro_inflight",
            "Requests currently admitted and executing.",
        )
        self._batch_rows_total = self.registry.counter(
            "repro_batch_rows_total",
            "NDJSON batch rows streamed, by verdict.",
            ("verdict",),
        )
        self._phase_seconds = self.registry.histogram(
            "repro_phase_seconds",
            "Per-check seconds attributed to each phase "
            "(resolve/cache/build/plan/compile/execute); span-accurate when "
            "the check was traced, coarse RunStats split otherwise.",
            ("phase",),
        )

    # --- lifecycle ------------------------------------------------------------

    def _ready_fields(self) -> dict:
        return {
            "max_inflight": self.config.max_inflight,
            "request_timeout": self.config.request_timeout,
        }

    async def _drain(self) -> dict:
        """Wait up to ``drain_grace_seconds`` for in-flight requests,
        close lingering connections, shut the thread pool down and close
        the engine."""
        try:
            await asyncio.wait_for(
                self._drained.wait(), self.config.drain_grace_seconds
            )
            drained = True
        except asyncio.TimeoutError:
            drained = False
        for writer in list(self._connections):
            writer.close()
        # cancel=True would also abandon queued work; admission control
        # guarantees there is none, so this just stops idle threads.
        self._executor.shutdown(wait=drained)
        self.engine.close()
        return {"drained": drained}

    # --- admission + execution ------------------------------------------------

    def _try_acquire_slot(self) -> bool:
        if self._inflight >= self.config.max_inflight:
            return False
        self._inflight += 1
        self._inflight_gauge.inc()
        self._drained.clear()
        return True

    def _release_slot(self) -> None:
        self._inflight -= 1
        self._inflight_gauge.dec()
        if self._inflight == 0:
            self._drained.set()

    def _release_slot_threadsafe(self, _future) -> None:
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._release_slot)

    def _deadline_for(self, request: HttpRequest) -> float:
        """The request's deadline (seconds): header-capped server default."""
        raw = request.headers.get("x-repro-timeout")
        if raw is None:
            return self.config.request_timeout
        try:
            wanted = float(raw)
        except ValueError:
            raise InvalidRequestError(
                f"X-Repro-Timeout must be a number of seconds, got {raw!r}"
            ) from None
        if not wanted > 0:
            raise InvalidRequestError(
                f"X-Repro-Timeout must be positive, got {raw!r}"
            )
        return min(wanted, self.config.request_timeout)

    async def _run_blocking(self, fn, deadline: float):
        """Run ``fn`` on the pool under ``deadline``.

        The admission slot is released when the *thread* finishes, not
        when the waiter gives up — a timed-out request keeps counting
        against ``max_inflight`` until its work actually ends, so the
        pool can never oversubscribe.
        """
        assert self._loop is not None
        future = self._loop.run_in_executor(self._executor, fn)
        future.add_done_callback(lambda f: f.exception())  # never unobserved
        future.add_done_callback(self._release_slot_threadsafe)
        try:
            return await asyncio.wait_for(asyncio.shield(future), deadline)
        except asyncio.TimeoutError:
            raise DeadlineExceededError(
                f"request exceeded its {deadline:g}s deadline"
            ) from None

    def _overloaded(self) -> _Outcome:
        error = OverloadedError(
            f"{self.config.max_inflight} requests already in flight; "
            "retry shortly"
        )
        outcome = _error_outcome(error)
        outcome.headers = (
            ("Retry-After", str(self.config.retry_after_seconds)),
        )
        return outcome

    # --- connection + dispatch ------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self._connections.add(writer)
        try:
            while not self._shutdown.is_set():
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    error = InvalidRequestError(exc.message)
                    body = (json.dumps(error.to_dict()) + "\n").encode()
                    writer.write(render_response(
                        exc.status, body, keep_alive=False
                    ))
                    await writer.drain()
                    self._observe("?", "?", exc.status, 0.0,
                                  {"error_code": error.code})
                    return
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                if request is None:
                    return

                started = time.perf_counter()
                outcome = await self._dispatch(request)
                keep_alive = (
                    request.keep_alive and not self._shutdown.is_set()
                )
                if outcome.stream is not None:
                    await self._write_stream(writer, outcome, keep_alive)
                else:
                    writer.write(render_response(
                        outcome.status,
                        outcome.body,
                        content_type=outcome.content_type,
                        extra_headers=outcome.headers,
                        keep_alive=keep_alive,
                    ))
                    await writer.drain()
                elapsed = time.perf_counter() - started
                self._observe(
                    request.method, self._route_label(request.path),
                    outcome.status, elapsed, outcome.log,
                )
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _write_stream(
        self, writer, outcome: _Outcome, keep_alive: bool
    ) -> None:
        writer.write(render_chunked_head(
            outcome.status,
            content_type=outcome.content_type,
            keep_alive=keep_alive,
        ))
        async for line in outcome.stream:
            if line:
                writer.write(render_chunk(line))
                await writer.drain()
        writer.write(LAST_CHUNK)
        await writer.drain()

    @staticmethod
    def _route_label(path: str) -> str:
        """Collapse per-id paths so metric label cardinality stays flat."""
        if path.startswith("/v1/jobs/"):
            return "/v1/jobs/{id}"
        return path

    def _observe(
        self, method: str, path: str, status: int, elapsed: float, log: dict
    ) -> None:
        self._requests_total.labels(
            method=method, path=path, status=str(status)
        ).inc()
        self._request_seconds.labels(path=path).observe(elapsed)
        record = {
            "event": "request",
            "ts": time.time(),
            "method": method,
            "path": path,
            "status": status,
            "wall_ms": round(elapsed * 1000.0, 3),
        }
        record.update(log)
        self._log(record)

    async def _dispatch(self, request: HttpRequest) -> _Outcome:
        route = (request.method, self._route_label(request.path))
        if route == ("GET", "/healthz"):
            return _json_outcome(200, {
                "status": "ok", "schema_version": SCHEMA_VERSION,
            })
        if route == ("GET", "/metrics"):
            return self._metrics_outcome()
        try:
            if route == ("POST", "/v1/check"):
                return await self._handle_check(request)
            if route == ("POST", "/v1/batch"):
                return await self._handle_batch(request)
            if route == ("POST", "/v1/jobs"):
                return await self._handle_submit(request)
            if route == ("GET", "/v1/jobs/{id}"):
                return await self._handle_job_poll(request)
        except ReproError as error:
            return _error_outcome(error)
        known_paths = ("/healthz", "/metrics", "/v1/check", "/v1/batch",
                       "/v1/jobs", "/v1/jobs/{id}")
        if self._route_label(request.path) in known_paths:
            outcome = _error_outcome(InvalidRequestError(
                f"{request.method} is not supported on {request.path}"
            ))
            outcome.status = 405
            return outcome
        outcome = _error_outcome(InvalidRequestError(
            f"unknown path {request.path!r}"
        ))
        outcome.status = 404
        return outcome

    # --- endpoints ------------------------------------------------------------

    def _parse_check_request(self, body: bytes) -> CheckRequest:
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidRequestError(
                f"request body is not valid UTF-8: {exc}"
            ) from None
        return CheckRequest.from_json(text)

    def _response_log(self, response: CheckResponse) -> dict:
        log = {"verdict": response.verdict}
        if response.request is not None:
            log["trace_id"] = request_log_fingerprint(response.request)
        if response.ok:
            stats = response.stats
            log["plan_cache_hit"] = stats.plan_cache_hit
            log["result_cache_hit"] = stats.result_cache_hit
        else:
            log["error_code"] = response.error_code
        return log

    def _observe_phases(self, response: CheckResponse) -> None:
        """Feed ``repro_phase_seconds`` from one successful response.

        A traced result carries its span tree, so the per-phase split is
        exact; untraced results fall back to the coarse split RunStats
        already records (cache-hit time, planning vs the rest).
        """
        if not response.ok:
            return
        stats = response.stats
        trace = response.result.trace if response.result is not None else None
        if trace is not None:
            phases = tree_phase_seconds(trace)
        elif stats.result_cache_hit:
            phases = {"cache": stats.time_seconds}
        else:
            planning = min(stats.planning_seconds, stats.time_seconds)
            phases = {
                "plan": planning,
                "execute": stats.time_seconds - planning,
            }
        for phase, seconds in phases.items():
            if seconds > 0.0:
                self._phase_seconds.labels(phase=phase).observe(seconds)

    async def _handle_check(self, request: HttpRequest) -> _Outcome:
        check_request = self._parse_check_request(request.body)
        traced = str(
            request.headers.get("x-repro-trace", "")
        ).strip().lower() in _TRUTHY_HEADER
        if traced:
            # The header is sugar for config.trace=true: the span tree
            # rides back inline as the result's "trace" key.
            check_request = dataclasses.replace(
                check_request,
                config={**dict(check_request.config), "trace": True},
            )
        deadline = self._deadline_for(request)
        if not self._try_acquire_slot():
            return self._overloaded()
        response = await self._run_blocking(
            lambda: self.engine.respond(check_request), deadline
        )
        self.stats.add(response.stats)
        self._observe_phases(response)
        status = 200 if response.ok else http_status_for(response.error_code)
        outcome = _Outcome(
            status=status,
            body=(response.to_json() + "\n").encode(),
            log=self._response_log(response),
        )
        return outcome

    async def _handle_submit(self, request: HttpRequest) -> _Outcome:
        check_request = self._parse_check_request(request.body)
        deadline = self._deadline_for(request)
        if not self._try_acquire_slot():
            return self._overloaded()
        # submit resolves circuits (QASM parse, generator call) — that
        # belongs on the pool, not the event loop
        handle = await self._run_blocking(
            lambda: self.engine.submit(check_request), deadline
        )
        trace_id = request_log_fingerprint(check_request)
        return _json_outcome(202, {
            "schema_version": SCHEMA_VERSION,
            "id": handle.id,
            "state": self.engine.job_state(handle),
            "trace_id": trace_id,
        }, log={"job_id": handle.id, "trace_id": trace_id})

    async def _handle_job_poll(self, request: HttpRequest) -> _Outcome:
        job_id = request.path.rsplit("/", 1)[1]
        state = self.engine.job_state(job_id)
        if state == "unknown":
            raise JobNotFoundError(
                f"unknown, already-collected or evicted job {job_id!r}"
            )
        if state == "running":
            body = {
                "schema_version": SCHEMA_VERSION,
                "id": job_id,
                "state": state,
            }
            trace_id = _job_trace_id(job_id)
            if trace_id is not None:
                body["trace_id"] = trace_id
            return _json_outcome(
                202, body, log={"job_id": job_id, "state": state}
            )
        # done / failed / deferred: collect (deferred jobs run now)
        deadline = self._deadline_for(request)
        if not self._try_acquire_slot():
            return self._overloaded()
        response = await self._run_blocking(
            lambda: self.engine.result(job_id), deadline
        )
        self.stats.add(response.stats)
        self._observe_phases(response)
        status = 200 if response.ok else http_status_for(response.error_code)
        log = self._response_log(response)
        log["job_id"] = job_id
        trace_id = _job_trace_id(job_id)
        if trace_id is not None:
            log.setdefault("trace_id", trace_id)
        return _Outcome(
            status=status,
            body=(response.to_json() + "\n").encode(),
            log=log,
        )

    async def _handle_batch(self, request: HttpRequest) -> _Outcome:
        """NDJSON rows in, chunked NDJSON records out, order preserved.

        Mirrors the CLI batch semantics: a row that fails to parse
        becomes an ``ERROR`` record at its position and the rest still
        run.  The whole batch occupies one admission slot (one pool
        thread walks :meth:`Engine.check_iter`).
        """
        try:
            text = request.body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidRequestError(
                f"request body is not valid UTF-8: {exc}"
            ) from None
        entries = []  # (request-or-None, error-or-None), input order
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                check_request = CheckRequest.from_json(line)
            except ReproError as exc:
                entries.append((None, exc))
                continue
            entries.append((check_request, None))
        if not entries:
            raise InvalidRequestError(
                "batch body is empty: send one request JSON object per line"
            )
        deadline = self._deadline_for(request)
        if not self._try_acquire_slot():
            return self._overloaded()
        outcome = _Outcome(
            status=200,
            content_type="application/x-ndjson",
            stream=self._batch_stream(entries, deadline),
            log={"rows": len(entries)},
        )
        return outcome

    async def _batch_stream(self, entries, deadline: float):
        assert self._loop is not None
        queue: asyncio.Queue = asyncio.Queue()
        loop = self._loop

        def produce() -> None:
            try:
                responses = self.engine.check_iter(
                    req for req, _ in entries if req is not None
                )
                for index, (check_request, error) in enumerate(entries):
                    if error is not None:
                        record = error.to_dict()
                    else:
                        response = next(responses)
                        self.stats.add(response.stats)
                        self._observe_phases(response)
                        record = response.to_dict()
                    record["index"] = index
                    line = (json.dumps(record) + "\n").encode()
                    loop.call_soon_threadsafe(
                        queue.put_nowait, (record["verdict"], line)
                    )
            except BaseException as exc:  # surface as a final ERROR row
                error = ReproError.wrap(exc)
                line = (json.dumps(error.to_dict()) + "\n").encode()
                loop.call_soon_threadsafe(
                    queue.put_nowait, ("ERROR", line)
                )
            finally:
                loop.call_soon_threadsafe(queue.put_nowait, None)

        future = loop.run_in_executor(self._executor, produce)
        future.add_done_callback(lambda f: f.exception())
        future.add_done_callback(self._release_slot_threadsafe)

        remaining = deadline
        started = time.perf_counter()
        while True:
            try:
                item = await asyncio.wait_for(queue.get(), max(
                    0.001, remaining - (time.perf_counter() - started)
                ))
            except asyncio.TimeoutError:
                error = DeadlineExceededError(
                    f"batch exceeded its {deadline:g}s deadline; "
                    "remaining rows were not checked"
                )
                self._batch_rows_total.labels(verdict="ERROR").inc()
                yield (json.dumps(error.to_dict()) + "\n").encode()
                return
            if item is None:
                return
            verdict, line = item
            self._batch_rows_total.labels(verdict=verdict).inc()
            yield line

    def _metrics_outcome(self) -> _Outcome:
        from ..cluster import metrics as _cluster_metrics

        snapshot = self.stats.snapshot()
        counters = {
            "repro_checks_total": snapshot["checks"],
            "repro_check_wall_seconds_total": snapshot["wall_seconds"],
            "repro_check_cpu_seconds_total": snapshot["cpu_seconds"],
            "repro_plan_cache_hits_total": snapshot["plan_cache_hits"],
            "repro_planning_seconds_total": snapshot["planning_seconds"],
            "repro_plan_trials_total": snapshot["plan_trials"],
            "repro_result_cache_hits_total": snapshot["result_cache_hits"],
            "repro_batched_slice_calls_total": snapshot[
                "batched_slice_calls"
            ],
        }
        # fail-open cluster traffic: these counters are the only way a
        # dead cache server or lost worker becomes visible
        counters.update(_cluster_metrics.metric_counters())
        extra = render_counter_block(counters)
        page = self.registry.render(extra=extra)
        return _Outcome(
            status=200,
            body=page.encode(),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )


class ServiceThread(ServerThread):
    """A service on a background thread — tests, benchmarks, examples.

    :class:`~repro.daemon.ServerThread` over a :class:`ReproService`
    built from ``engine`` (``port`` defaults to 0, an ephemeral bind);
    ``base_url`` is the ``http://host:port`` root.

    >>> with ServiceThread(Engine()) as handle:       # doctest: +SKIP
    ...     urllib.request.urlopen(f"{handle.base_url}/healthz")
    """

    def __init__(
        self,
        engine: Engine,
        config: Optional[ServiceConfig] = None,
        *,
        log_stream=None,
        **overrides,
    ):
        if config is None:
            overrides.setdefault("port", 0)
        super().__init__(
            ReproService(engine, config, log_stream=log_stream, **overrides)
        )

    @property
    def service(self) -> ReproService:
        return self.server

    @property
    def base_url(self) -> str:
        return f"http://{self.url}"
