"""The :class:`Engine` facade: one typed front door for every check.

An engine owns everything a checking service needs behind a single
object: the per-config :class:`~repro.core.session.CheckSession` map
(warm backend state), **one** shared
:class:`~repro.cache.CheckCache` (every session and every worker keys
lookups off the request fingerprint), and **one** lazily-created worker
pool reused across calls.  Callers hand it frozen
:class:`~repro.api.request.CheckRequest` objects and get
:class:`~repro.api.response.CheckResponse` objects back:

>>> from repro import CheckRequest, CircuitSpec, Engine, NoiseSpec
>>> engine = Engine(jobs=4, cache=True)
>>> request = CheckRequest(
...     ideal=CircuitSpec.from_library("qft", num_qubits=4),
...     noise=NoiseSpec(noises=2, seed=7),
...     epsilon=0.01,
... )
>>> engine.check(request).equivalent                 # doctest: +SKIP
True
>>> for r in engine.check_iter([request] * 8):       # doctest: +SKIP
...     print(r.verdict)

Three call shapes:

* :meth:`Engine.check` — one request, one response; failures raise
  typed :class:`~repro.api.errors.ReproError` subclasses;
* :meth:`Engine.check_iter` — a request stream in, a response stream
  out: order-preserving, error-isolating (a failed request becomes an
  ``ERROR`` response, the rest still run), fanned out to the shared
  pool when ``jobs > 1``;
* :meth:`Engine.submit` / :meth:`Engine.result` — fire-and-collect job
  handles over the same pool.

``CheckSession`` is the supported lower layer for callers who already
hold circuit objects and want zero request ceremony.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple, Union

from .. import trace as _trace
from ..backends import ContractionBackend, available_backends
from ..cache import CheckCache
from ..cache.fingerprint import request_fingerprint
from ..circuits import QuantumCircuit
from ..core.session import CheckConfig, CheckSession
from ..noise import NoisePlacement
from .errors import (
    CheckFailedError,
    ConfigError,
    JobNotFoundError,
    ReproError,
)
from .request import CheckRequest, CircuitSpec, apply_noise
from .response import CheckResponse

#: Resolved-circuit memo bound: circuits and noise placements of pure
#: specs only (inline QASM and library generators; path specs re-read
#: their file every time, and live circuits may be mutated).
_CIRCUIT_MEMO_ENTRIES = 128

#: Session memo bound.  A long-lived service sweeping epsilons or
#: config overrides must not accumulate warm backend state forever;
#: the least-recently-used (config, session) pair is dropped past this.
_SESSION_MEMO_ENTRIES = 32

#: Default bound on submitted-but-uncollected jobs.  ``result()`` is
#: collectable-once, so a service whose clients abandon handles would
#: otherwise grow ``_jobs_pending`` without limit; past this many, the
#: oldest *finished* jobs are evicted first, then the oldest outright.
_MAX_PENDING_JOBS = 1024


@dataclass(frozen=True)
class JobHandle:
    """Ticket for one submitted request; redeem with :meth:`Engine.result`."""

    id: str
    request: CheckRequest


class Engine:
    """Session, pool and cache owner behind the typed request API.

    ``config`` (or keyword overrides, as with ``CheckSession``) sets the
    *base* configuration; each request's ``config`` overrides layer on
    top.  ``jobs`` sizes the shared worker pool used by
    :meth:`check_iter` and :meth:`submit`; ``cache``/``cache_dir``
    switch on the one shared content-addressed cache (defaulting to the
    base config's own cache knobs).
    """

    def __init__(
        self,
        config: Optional[CheckConfig] = None,
        *,
        jobs: int = 1,
        cache: Optional[bool] = None,
        cache_dir: Optional[str] = None,
        cache_url: Optional[str] = None,
        max_pending_jobs: int = _MAX_PENDING_JOBS,
        job_ttl_seconds: Optional[float] = None,
        **overrides,
    ):
        if config is None:
            config = CheckConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if max_pending_jobs < 1:
            raise ValueError("max_pending_jobs must be at least 1")
        if job_ttl_seconds is not None and job_ttl_seconds <= 0:
            raise ValueError("job_ttl_seconds must be positive")
        if cache is None:
            cache = config.cache
        if cache_dir is None:
            cache_dir = config.cache_dir
        if cache_url is None:
            cache_url = config.cache_url
        self.jobs = jobs
        #: bound on uncollected job handles (oldest evicted past it)
        self.max_pending_jobs = max_pending_jobs
        #: age after which an uncollected job is evicted (None = never)
        self.job_ttl_seconds = job_ttl_seconds
        #: the one shared cache (None when caching is off); every
        #: in-process session attaches this object, and worker configs
        #: carry its resolved directory so the pool shares the disk tier
        self.cache: Optional[CheckCache] = (
            CheckCache.open(cache_dir, cache_url=cache_url)
            if cache
            else None
        )
        self.cache_dir: Optional[str] = (
            self.cache.directory if self.cache is not None else None
        )
        #: resolved remote-cache address the shared cache dials, if any
        self.cache_url: Optional[str] = (
            self.cache.cache_url if self.cache is not None else None
        )
        #: base config with the cache knobs stripped — sessions must not
        #: open private caches; they share the engine's
        self.config = config.replace(
            cache=False, cache_dir=None, cache_url=None
        )
        self._sessions: Dict[CheckConfig, CheckSession] = {}
        #: (epsilon, overrides) -> (config, session): one small-tuple
        #: hash on the hot path instead of re-hashing the full frozen
        #: config every check; LRU-bounded, evictions also retire the
        #: session when no other key still maps to its config
        self._resolved: "OrderedDict[tuple, Tuple[CheckConfig, CheckSession]]" = (
            OrderedDict()
        )
        #: CircuitSpec -> QuantumCircuit, and (base spec, noise spec
        #: fields but ``p``) -> NoisePlacement; one LRU for both
        self._circuits: "OrderedDict[object, object]" = OrderedDict()
        self._pool = None
        self._job_ids = itertools.count(1)
        #: job id -> (request, (kind, payload), submitted_at); ordered
        #: by submission (dicts preserve insertion order), which is
        #: what the TTL / max-count eviction walks
        self._jobs_pending: Dict[str, tuple] = {}
        #: guards every memo (_resolved/_sessions/_circuits), the job
        #: table and pool creation; re-entrant because resolution paths
        #: nest (_config_session_for -> _session)
        self._lock = threading.RLock()
        #: config -> lock serialising checks on that config's session.
        #: Sessions share mutable backend state (TDD computed tables,
        #: plan memos) that is not safe under concurrent contraction;
        #: the per-session lock makes threaded callers correct while
        #: different configs — and pool-backed jobs — still overlap.
        self._session_locks: Dict[CheckConfig, threading.Lock] = {}

    # --- resolution -----------------------------------------------------------

    def _config_for(self, request: CheckRequest) -> CheckConfig:
        return self._config_session_for(request)[0]

    def _config_session_for(
        self, request: CheckRequest
    ) -> Tuple[CheckConfig, CheckSession]:
        key = (request.epsilon, request.config)
        with self._lock:
            entry = self._resolved.get(key)
            if entry is not None:
                self._resolved.move_to_end(key)
                return entry
            config = request.resolve_config(self.config)
            entry = (config, self._session(config))
            self._resolved[key] = entry
            while len(self._resolved) > _SESSION_MEMO_ENTRIES:
                _, (old_config, _) = self._resolved.popitem(last=False)
                if all(
                    cfg != old_config for cfg, _ in self._resolved.values()
                ):
                    self._sessions.pop(old_config, None)
                    self._session_locks.pop(old_config, None)
            return entry

    def _memoised(
        self, key, build: Callable[[], object]
    ) -> Tuple[object, bool]:
        """(``build()`` memoised under ``key`` in the circuit LRU, hit)."""
        with self._lock:
            value = self._circuits.get(key)
            if value is not None:
                self._circuits.move_to_end(key)
                return value, True
        # build outside the lock: QASM parsing, generator calls and noise
        # placement can be slow, and purity makes a duplicate race-build
        # harmless
        value = build()
        with self._lock:
            self._circuits[key] = value
            while len(self._circuits) > _CIRCUIT_MEMO_ENTRIES:
                self._circuits.popitem(last=False)
        return value, False

    def _circuit(self, spec: CircuitSpec) -> QuantumCircuit:
        if spec.circuit is not None:
            return spec.circuit
        if spec.path is not None:  # files mutate; never memoised
            with _trace.span("circuit.load", source="path"):
                return spec.resolve()

        def load() -> QuantumCircuit:
            with _trace.span(
                "circuit.load",
                source="library" if spec.library is not None else "qasm",
            ):
                return spec.resolve()

        # inline-QASM and library specs are pure (specs validate
        # hashability and random generators require a pinned seed)
        return self._memoised(spec, load)[0]

    def _resolve(
        self, request: CheckRequest
    ) -> Tuple[CheckConfig, QuantumCircuit, QuantumCircuit]:
        """Request -> (config, ideal, noisy); failures carry typed codes.

        The noise's placement (where its channels go, which ``p`` does
        not change) is memoised next to the circuits for pure base
        specs, so a request that differs from an earlier one only in
        ``p`` builds one channel and fills its k sites.
        """
        with _trace.span("request.resolve") as span:
            config = self._config_for(request)
            ideal = self._circuit(request.ideal)
            if request.noisy is None:
                spec, base = request.ideal, ideal
            else:
                spec = request.noisy
                base = self._circuit(spec)
            noise = request.noise

            def placement() -> NoisePlacement:
                if spec.circuit is not None or spec.path is not None:
                    placed, hit = noise.placement(base), False
                else:
                    placed, hit = self._memoised(
                        (spec, noise.channel, noise.noises,
                         noise.every_gate, noise.seed),
                        lambda: noise.placement(base),
                    )
                span.set(placement_hit=hit)
                return placed

            return config, ideal, apply_noise(noise, base, placement)

    def _session(self, config: CheckConfig) -> CheckSession:
        with self._lock:
            session = self._sessions.get(config)
            if session is None:
                session = CheckSession(config)
                if self.cache is not None:
                    session.cache = self.cache
                self._sessions[config] = session
                self._session_locks[config] = threading.Lock()
            return session

    def _session_lock(self, config: CheckConfig) -> threading.Lock:
        with self._lock:
            lock = self._session_locks.get(config)
            if lock is None:  # session created before locks existed
                lock = self._session_locks.setdefault(
                    config, threading.Lock()
                )
            return lock

    def _worker_config(self, config: CheckConfig) -> CheckConfig:
        """The config shipped to pool workers (re-opens the disk tier)."""
        if isinstance(config.backend, ContractionBackend):
            raise ConfigError(
                "jobs > 1 cannot ship a live backend instance to worker "
                "processes; configure the backend by registry name "
                f"(available: {', '.join(available_backends())})"
            )
        if self.cache is None:
            return config
        return config.replace(
            cache=True,
            cache_dir=self.cache_dir,
            # "" pins workers to force-local resolution: pool workers
            # must re-open the remote tier (shared warmth), not consult
            # a different environment than the engine did
            cache_url=self.cache_url or "",
        )

    def fingerprint(self, request: CheckRequest) -> str:
        """The request's content fingerprint — its result-cache key.

        Two requests with equal fingerprints are the same query to the
        service: with caching on, the second is answered by lookup.
        """
        config, ideal, noisy = self._resolve(request)
        return request_fingerprint(ideal, noisy, config, request.mode)

    # --- checking -------------------------------------------------------------

    def _execute(
        self, request: CheckRequest, index: Optional[int]
    ) -> CheckResponse:
        """Answer one request, opening a trace when its config asks.

        The recorder is created here — above the session — so the root
        ``engine.request`` span covers resolution (a fresh config's
        session construction included), caching and the check itself;
        the finished span tree lands on ``result.trace``.
        """
        with self._lock:
            entry = self._resolved.get((request.epsilon, request.config))
        try:
            config = entry[0] if entry else request.resolve_config(self.config)
            trace_on = config.trace
        except ReproError:
            # invalid config: the untraced path below resolves again and
            # maps the same failure to a typed ERROR response
            trace_on = False
        if not trace_on or _trace.current_recorder() is not None:
            return self._finish(request, self._start(request, False), index)
        recorder = _trace.TraceRecorder()
        with _trace.recording(recorder):
            with _trace.span(
                "engine.request", trace_id=request.trace_id()
            ):
                response = self._finish(
                    request, self._start(request, False), index
                )
        if response.result is not None:
            response.result.trace = _trace.span_tree(recorder)
        return response

    def check(self, request: CheckRequest) -> CheckResponse:
        """Answer one request in-process; typed errors raise."""
        return self._execute(request, None).raise_for_error()

    def respond(self, request: CheckRequest) -> CheckResponse:
        """Answer one request, never raising: failures come back as an
        ``ERROR`` response carrying the typed error.

        The service entry point — a network layer wants one uniform
        return type to serialise, with the error→status mapping applied
        from the response's ``error_code`` rather than an exception
        handler.  In-process callers who prefer exceptions keep
        :meth:`check`.  Safe to call from multiple threads.
        """
        return self._execute(request, None)

    def fidelity(self, request: CheckRequest) -> float:
        """The request's exact fidelity (forces ``mode="fidelity"``)."""
        from dataclasses import replace

        if request.mode != "fidelity":
            request = replace(request, mode="fidelity")
        return self.check(request).fidelity

    def check_iter(
        self, requests: Iterable[CheckRequest]
    ) -> Iterator[CheckResponse]:
        """Stream responses for a request stream, in input order.

        Error-isolating: a request that fails — unparseable circuit,
        bad config, raising check — yields an ``ERROR`` response at its
        position and the rest still run.  With ``jobs > 1`` requests
        are materialised up front and fan out to the engine's shared
        worker pool; with ``jobs == 1`` the stream is fully lazy.
        """
        if self.jobs == 1:
            return (
                self._execute(request, index)
                for index, request in enumerate(requests)
            )
        return self._drain(list(requests))

    def _drain(self, requests) -> Iterator[CheckResponse]:
        """Start every request on the pool, then finish each in order.

        Closing the stream early cancels the checks that have not
        started, so :meth:`close` does not wait for them.
        """
        states = [self._start(request, True) for request in requests]
        try:
            for index, (request, state) in enumerate(zip(requests, states)):
                yield self._finish(request, state, index)
        finally:
            for kind, payload in states:
                if kind == "future":
                    payload.cancel()

    # --- one dispatch: start a request, finish it into a response ------------

    def _start(
        self, request: CheckRequest, pooled: bool
    ) -> Tuple[str, object]:
        """Resolve ``request`` and start its check.

        Returns the job state ``(kind, payload)``: ``("error", error)``
        when resolution failed, ``("future", future)`` when ``pooled``
        put the check on the pool, else ``("deferred", (config, ideal,
        noisy))`` for :meth:`_finish` to run in-process.
        """
        try:
            config, ideal, noisy = self._resolve(request)
            if not pooled:
                return "deferred", (config, ideal, noisy)
            from ..parallel.worker import run_check_item

            return "future", self._ensure_pool().submit(
                run_check_item,
                self._worker_config(config),
                ideal,
                noisy,
                request.mode,
            )
        except ReproError as error:
            return "error", error

    def _finish(
        self,
        request: CheckRequest,
        state: Tuple[str, object],
        index: Optional[int],
        timeout: Optional[float] = None,
    ) -> CheckResponse:
        """Turn a :meth:`_start` state into the request's response.

        Waits up to ``timeout`` for a pool future; on expiry
        ``TimeoutError`` propagates and the state stays valid.
        """
        kind, payload = state
        if kind == "error":
            return CheckResponse.from_error(
                payload, request=request, index=index
            )
        if kind == "future":
            result, error = payload.result(timeout)
            if error is not None:
                error_type, message = error
                return CheckResponse.from_error(
                    CheckFailedError(message, error_type=error_type),
                    request=request,
                    index=index,
                )
            return CheckResponse.from_result(
                result, request=request, index=index
            )
        config, ideal, noisy = payload
        # one span over the in-process run (session lookup and lock, the
        # check, the response), so a fast check's wall stays covered
        with _trace.span("request.run"):
            session = self._config_session_for(request)[1]
            try:
                # one check at a time per session: warm backend state
                # (TDD tables, plan memos) is not contraction-safe under
                # concurrent mutation.  Other configs overlap.
                with self._session_lock(config):
                    result = session.run(ideal, noisy, request.mode)
            except Exception as exc:
                error = CheckFailedError.wrap(exc)
                if error is not exc:  # check() re-raises it: keep the cause
                    error.__cause__ = exc
                return CheckResponse.from_error(
                    error, request=request, index=index
                )
            return CheckResponse.from_result(
                result, request=request, index=index
            )

    # --- job handles ----------------------------------------------------------

    def submit(self, request: CheckRequest) -> JobHandle:
        """Enqueue one request; collect it later with :meth:`result`.

        With ``jobs > 1`` the check starts immediately on the shared
        pool; with ``jobs == 1`` it is deferred and runs inside
        :meth:`result` (same warm sessions either way).  Resolution
        failures are captured in the handle and surface as an ``ERROR``
        response, never as a raise from ``submit``.

        Every ``submit`` also sweeps abandoned handles: jobs older than
        ``job_ttl_seconds`` are dropped, and past ``max_pending_jobs``
        the oldest finished jobs (then the oldest outright) are evicted
        — so a long-lived service whose clients walk away never leaks.
        Collecting an evicted id raises
        :class:`~repro.api.errors.JobNotFoundError`, same as an unknown
        one.
        """
        try:
            # the job id embeds the request's trace id, so access-log
            # lines, poll responses and span traces join on one field
            job_id = f"job-{request.trace_id()}-{next(self._job_ids)}"
        except ReproError:
            # a circuit-backed spec that cannot serialise has no wire
            # identity; fall back to the bare counter
            job_id = f"job-{next(self._job_ids)}"
        state = self._start(request, self.jobs > 1)
        with self._lock:
            self._jobs_pending[job_id] = (
                request, state, time.monotonic()
            )
            self._evict_jobs()
        return JobHandle(id=job_id, request=request)

    def _evict_jobs(self) -> None:
        """Drop expired / excess uncollected jobs (caller holds lock)."""

        def finished(state) -> bool:
            kind, payload = state
            # error and deferred states have no running work to lose;
            # a pool future counts once it is done
            return kind != "future" or payload.done()

        if self.job_ttl_seconds is not None:
            deadline = time.monotonic() - self.job_ttl_seconds
            for job_id in [
                job_id
                for job_id, (_, _, submitted) in self._jobs_pending.items()
                if submitted < deadline
            ]:
                self._drop_job(job_id)
        excess = len(self._jobs_pending) - self.max_pending_jobs
        if excess <= 0:
            return
        # oldest finished first (their results are sitting idle); only
        # reap still-running work when finished ones cannot cover it
        victims = [
            job_id
            for job_id, (_, state, _) in self._jobs_pending.items()
            if finished(state)
        ][:excess]
        if len(victims) < excess:
            spared = set(victims)
            victims += [
                job_id
                for job_id in self._jobs_pending
                if job_id not in spared
            ][: excess - len(victims)]
        for job_id in victims:
            self._drop_job(job_id)

    def _drop_job(self, job_id: str) -> None:
        entry = self._jobs_pending.pop(job_id, None)
        if entry is None:
            return
        _, (kind, payload), _ = entry
        if kind == "future":
            payload.cancel()  # a no-op once running; best effort

    def job_state(self, handle: Union[JobHandle, str]) -> str:
        """Lifecycle state of a submitted job, without collecting it.

        One of ``"running"`` (pool-backed, still computing),
        ``"done"`` (pool-backed, result ready), ``"deferred"``
        (``jobs == 1`` — the check runs inside :meth:`result`),
        ``"failed"`` (resolution failed at submit; :meth:`result`
        returns the ``ERROR`` response) or ``"unknown"`` (never
        submitted, already collected, or evicted).
        """
        job_id = handle.id if isinstance(handle, JobHandle) else str(handle)
        with self._lock:
            entry = self._jobs_pending.get(job_id)
        if entry is None:
            return "unknown"
        _, (kind, payload), _ = entry
        if kind == "error":
            return "failed"
        if kind == "deferred":
            return "deferred"
        return "done" if payload.done() else "running"

    def result(
        self,
        handle: Union[JobHandle, str],
        timeout: Optional[float] = None,
    ) -> CheckResponse:
        """Collect one submitted job's response (each job, exactly once).

        Failures come back as ``ERROR`` responses; an unknown or
        already-collected id raises
        :class:`~repro.api.errors.JobNotFoundError`.  ``timeout``
        applies to pool-backed jobs; on expiry the job stays pending
        and ``TimeoutError`` propagates.
        """
        job_id = handle.id if isinstance(handle, JobHandle) else str(handle)
        with self._lock:
            entry = self._jobs_pending.pop(job_id, None)
        if entry is None:
            raise JobNotFoundError(
                f"unknown, already-collected or evicted job {job_id!r}"
            )
        request, state, _submitted = entry
        try:
            return self._finish(request, state, None, timeout)
        except (TimeoutError, _FuturesTimeout):
            # concurrent.futures.TimeoutError only became an alias of the
            # builtin in 3.11; catch both for the 3.10 CI leg
            with self._lock:  # still collectable
                self._jobs_pending[job_id] = entry
            raise

    def pending_jobs(self) -> Tuple[str, ...]:
        """Ids of submitted-but-uncollected jobs, oldest first."""
        with self._lock:
            return tuple(self._jobs_pending)

    # --- lifecycle ------------------------------------------------------------

    def _ensure_pool(self):
        with self._lock:
            if self._pool is None:
                from concurrent.futures import ProcessPoolExecutor

                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            return self._pool

    def reset(self) -> None:
        """Drop warm session/backend state (the cache survives).

        Idempotent: resetting an already-reset (or never-used) engine
        is a no-op, and the engine stays fully usable afterwards.
        """
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
            self._session_locks.clear()
            self._resolved.clear()
            self._circuits.clear()
        for session in sessions:
            session.reset()

    def close(self) -> None:
        """Shut the worker pool down and forget pending jobs.

        Idempotent: closing twice (or closing a never-started engine)
        is a no-op.  A later call that needs the pool lazily recreates
        it, so ``close()`` between bursts is also a safe way to release
        worker processes.
        """
        with self._lock:
            pool, self._pool = self._pool, None
            jobs = list(self._jobs_pending.values())
            self._jobs_pending.clear()
            sessions = list(self._sessions.values())
        for _, (kind, payload), _ in jobs:
            if kind == "future":
                payload.cancel()
        if pool is not None:
            pool.shutdown()
        # release cluster connections (worker fleets, the remote cache
        # tier); sessions stay usable and re-dial lazily if used again
        for session in sessions:
            session.close()
        if self.cache is not None:
            remote = self.cache.remote
            if remote is not None:
                remote.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
