"""Batch checking sessions: :class:`CheckConfig` + :class:`CheckSession`.

One :class:`CheckSession` owns a configured contraction backend and reuses
it across many equivalence checks, so batch workloads amortise backend
setup — cached contraction plans and miter templates, warm TDD computed
tables — over every circuit pair.  The backend defaults to
:data:`repro.backends.DEFAULT_BACKEND` (``"einsum"``); pass
``backend="tdd"`` for the paper's decision diagrams and their node
counts (``stats.max_nodes``).

Quick start
-----------
>>> from repro import CheckConfig, CheckSession
>>> session = CheckSession(CheckConfig(epsilon=0.01))
>>> for ideal, noisy in [(ideal_a, noisy_a), (ideal_b, noisy_b)]:
...     result = session.check(ideal, noisy)
...     print(result.verdict, result.fidelity)

Batches of requests — with a worker pool, error isolation and one
shared cache — go through :meth:`repro.api.Engine.check_iter`.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Optional, Union

from ..backends import (
    DEFAULT_BACKEND,
    ContractionBackend,
    available_backends,
    registered_backends,
    resolve_backend,
)
from ..backends.base import missing_dependency, validate_plan_knobs
from ..baseline import PAPER_MEMORY_BYTES, process_fidelity
from ..cache import CheckCache
from ..circuits import QuantumCircuit
from ..tensornet.planner import DEFAULT_ORDER_METHOD
from .. import trace as _trace
from .algorithm1 import fidelity_individual
from .algorithm2 import fidelity_collective
from .stats import CheckResult, FidelityResult, RunStats

#: Noise-site count at or below which 'auto' prefers Algorithm I.  Fig. 7
#: shows the crossover at roughly one noise for small circuits; we keep a
#: small margin because early termination usually needs only one term.
AUTO_ALG1_MAX_NOISES = 2

_ALGORITHMS = ("auto", "alg1", "alg2", "dense")

#: Execution modes of :meth:`CheckSession.run`: an epsilon-equivalence
#: decision, or the exact fidelity (no early termination).
RUN_MODES = ("check", "fidelity")


@dataclass(frozen=True)
class CheckConfig:
    """Frozen configuration of an equivalence-checking run.

    All values are validated at construction, so typos fail immediately
    rather than deep inside a contraction loop.
    """

    #: error threshold of the epsilon-equivalence decision
    epsilon: float = 0.01
    #: 'auto', 'alg1', 'alg2' or 'dense' (the Table I SuperOp baseline)
    algorithm: str = "auto"
    #: registered backend name, or a ready ContractionBackend instance
    #: (default repro.backends.DEFAULT_BACKEND, "einsum")
    backend: Union[str, ContractionBackend] = DEFAULT_BACKEND
    #: how contraction plans are built: the min-fill elimination order
    #: ('min_fill') or a budgeted search ('anneal', see repro.planning)
    order_method: str = DEFAULT_ORDER_METHOD
    #: slice plans so no intermediate exceeds this many elements
    max_intermediate_size: Optional[int] = None
    #: shrink the miter before planning: rotate it to the first noise
    #: site, cancel every inverse gate pair and fuse one-qubit gates into
    #: their neighbours (repro.core.miter)
    use_local_optimisations: bool = True
    #: noise-site count at or below which 'auto' picks Algorithm I
    alg1_max_noises: int = AUTO_ALG1_MAX_NOISES
    #: hard cap on Algorithm I trace terms (None = unlimited)
    alg1_max_terms: Optional[int] = None
    #: Algorithm I wall-clock budget in seconds (None = unlimited)
    alg1_time_budget_seconds: Optional[float] = None
    #: share the backend's computed tables/caches across trace terms
    share_computed_table: bool = True
    #: enumerate Kraus selections largest-norm-first (Algorithm I)
    dominant_first: bool = True
    #: consult the content-addressed plan + result caches (two-tier:
    #: in-memory LRU over a disk store shared across processes)
    cache: bool = False
    #: disk-tier directory (None = $REPRO_CACHE_DIR or ~/.cache/repro);
    #: only consulted when ``cache`` is on
    cache_dir: Optional[str] = None
    #: ``host:port`` of a shared ``repro cache-server`` appended as a
    #: fail-open remote tier behind memory and disk (None = consult
    #: $REPRO_CACHE_URL at open time, "" = force-local); only
    #: consulted when ``cache`` is on
    cache_url: Optional[str] = None
    #: comma-separated ``host:port`` list of ``repro worker`` daemons;
    #: sliced contractions fan out to the fleet through a
    #: :class:`~repro.cluster.executor.RemoteSliceExecutor` (None =
    #: execute locally — the library never reads $REPRO_WORKERS
    #: implicitly; the CLI's ``--workers`` flag does)
    workers: Optional[str] = None
    #: device the backend's numerics run on (None = backend default,
    #: i.e. the host CPU; 'cuda'/'cuda:N' need einsum-torch/einsum-cupy)
    device: Optional[str] = None
    #: slices contracted per batched kernel sweep (None = auto-size
    #: against the memory budget, 1 = per-slice reference loop)
    slice_batch: Optional[int] = None
    #: wall-clock budget for the 'anneal' search (None = its
    #: default; 0 = min_fill baseline only; ignored by min_fill)
    plan_budget_seconds: Optional[float] = None
    #: seed of the search's randomized trials (ignored by
    #: min_fill); fixed seed = reproducible searched plans
    plan_seed: int = 0
    #: record a span trace of the run and attach it to the result
    #: (``CheckResult.trace``); see repro.trace / docs/observability.md
    trace: bool = False

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; "
                f"choose from {list(_ALGORITHMS)}"
            )
        if isinstance(self.backend, str):
            if self.backend not in registered_backends():
                raise ValueError(
                    f"unknown backend {self.backend!r}; "
                    f"available: {', '.join(available_backends())}"
                )
            missing = missing_dependency(self.backend)
            if missing is not None:
                raise ValueError(
                    f"backend {self.backend!r} is registered but "
                    f"unavailable: {missing}"
                )
        elif not isinstance(self.backend, ContractionBackend):
            raise TypeError(
                "backend must be a registered name or a "
                f"ContractionBackend instance, got {type(self.backend)!r}; "
                f"registered names: {', '.join(available_backends())}"
            )
        validate_plan_knobs(
            self.order_method, self.max_intermediate_size,
            self.slice_batch, self.plan_budget_seconds, self.plan_seed,
        )
        if (
            self.device not in (None, "cpu")
            and self.backend_name in ("tdd", "dense", "einsum")
        ):
            # Host-numpy backends fail this anyway at construction; the
            # config-time check turns it into an invalid-config error
            # with the fix in the message.
            raise ValueError(
                f"backend {self.backend_name!r} runs on the host CPU "
                f"only, got device={self.device!r}; use "
                "'einsum-torch'/'einsum-cupy' for accelerator devices"
            )
        if isinstance(self.backend, ContractionBackend):
            # A ready instance keeps its own configuration; non-default
            # plan knobs on the config would be silently ignored, so
            # reject the combination unless they already agree.
            defaults = {
                field.name: field.default
                for field in dataclasses.fields(self)
            }
            for knob in (
                "order_method",
                "share_computed_table",
                "max_intermediate_size",
                "device",
                "slice_batch",
                "plan_budget_seconds",
                "plan_seed",
            ):
                wanted = getattr(self, knob)
                actual = getattr(self.backend, knob)
                if wanted != defaults[knob] and wanted != actual:
                    raise ValueError(
                        f"{knob} is ignored when backend is an instance; "
                        f"construct the backend with {knob}={wanted!r} "
                        "instead"
                    )
        if self.alg1_max_noises < 0:
            raise ValueError("alg1_max_noises must be non-negative")
        if self.cache_url is not None and self.cache_url.strip():
            if not self.cache:
                raise ValueError(
                    "cache_url needs cache=True: the remote tier sits "
                    "behind the local cache chain"
                )
            from ..cluster.protocol import parse_address

            parse_address(self.cache_url)  # fail at config time, not mid-check
        if self.workers is not None:
            from ..cluster.executor import resolve_workers

            if isinstance(self.backend, ContractionBackend):
                raise ValueError(
                    "workers is ignored when backend is an instance; "
                    "attach a RemoteSliceExecutor to the backend instead"
                )
            addresses = resolve_workers(self.workers) or ()
            # normalised comma-joined form keeps the frozen config
            # hashable/picklable (worker session caches key on it);
            # an all-whitespace spec normalises to "no fleet"
            object.__setattr__(
                self, "workers", ",".join(addresses) or None
            )
        if self.cache_dir is not None and not isinstance(
            self.cache_dir, str
        ):
            # Keep the frozen config hashable and picklable (worker
            # session caches key on it): paths normalise to strings.
            object.__setattr__(self, "cache_dir", str(self.cache_dir))

    @property
    def backend_name(self) -> str:
        """Registry name of the configured backend."""
        if isinstance(self.backend, ContractionBackend):
            return self.backend.name
        return self.backend

    def replace(self, **changes) -> "CheckConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-safe; backend reduced to its name).

        Built field-by-field — ``dataclasses.asdict`` would deep-copy a
        live backend instance (manager, caches and all) stored in
        ``backend``.
        """
        out = {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }
        out["backend"] = self.backend_name
        return out


class CheckSession:
    """A reusable checking session with shared backend state.

    The backend instance is created lazily on first use and kept for the
    session's lifetime, so consecutive :meth:`check` calls reuse warm
    contraction state (one :class:`~repro.tdd.TddManager`, cached
    elimination orders, cached einsum paths).

    Accepts a :class:`CheckConfig`, keyword overrides, or both::

        CheckSession(CheckConfig(backend="einsum"))
        CheckSession(epsilon=0.05, backend="dense")
        CheckSession(config, epsilon=0.2)   # config with one override
    """

    def __init__(self, config: Optional[CheckConfig] = None, **overrides):
        if config is None:
            config = CheckConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self.config = config
        self._backend: Optional[ContractionBackend] = None
        self._executor = None
        #: the tiered plan + result cache (None when config.cache off);
        #: gains a fail-open remote tier when cache_url / the env names
        #: a cache server
        self.cache: Optional[CheckCache] = (
            CheckCache.open(config.cache_dir, cache_url=config.cache_url)
            if config.cache
            else None
        )

    @property
    def backend(self) -> ContractionBackend:
        """The session's shared contraction backend (created on demand).

        Name-configured backends are built with the session's plan
        cache attached.  A ready backend *instance* is never mutated —
        attaching the cache would leak it into every other session
        sharing that instance, including ones that disabled caching.
        Construct the instance with ``plan_cache=`` to plan-cache it;
        the session's result cache applies either way.
        """
        if self._backend is None:
            plan_cache = None if self.cache is None else self.cache.plans
            if self.config.workers and self._executor is None:
                from ..cluster.executor import RemoteSliceExecutor

                self._executor = RemoteSliceExecutor(self.config.workers)
            self._backend = resolve_backend(
                self.config.backend,
                order_method=self.config.order_method,
                share_computed_table=self.config.share_computed_table,
                max_intermediate_size=self.config.max_intermediate_size,
                executor=self._executor,
                plan_cache=plan_cache,
                device=self.config.device,
                slice_batch=self.config.slice_batch,
                plan_budget_seconds=self.config.plan_budget_seconds,
                plan_seed=self.config.plan_seed,
            )
        return self._backend

    def close(self) -> None:
        """Release cluster connections (worker fleet, remote cache).

        Idempotent; a closed session reconnects lazily if used again.
        Purely-local sessions have nothing to close.
        """
        if self._executor is not None:
            self._executor.close()
        if self.cache is not None:
            remote = self.cache.remote
            if remote is not None:
                remote.close()

    def reset(self) -> None:
        """Drop all shared backend state (managers, orders, paths)."""
        if self._backend is not None:
            self._backend.reset()

    def select_algorithm(self, noisy: QuantumCircuit) -> str:
        """Resolve 'auto' to a concrete algorithm for this circuit."""
        if self.config.algorithm != "auto":
            return self.config.algorithm
        if noisy.num_noise_sites <= self.config.alg1_max_noises:
            return "alg1"
        return "alg2"

    # --- checking -------------------------------------------------------------

    def _result_cacheable(self) -> bool:
        """Whether whole verdicts may be cached under this config.

        Wall-clock-budgeted Algorithm I runs truncate at a
        machine-load-dependent point, so their fidelity is not a pure
        function of the inputs — caching one would freeze an arbitrary
        lower bound.  Everything else (early termination, term caps)
        is deterministic.
        """
        return self.config.alg1_time_budget_seconds is None

    def check(
        self, ideal: QuantumCircuit, noisy: QuantumCircuit
    ) -> CheckResult:
        """Decide ``ideal ~eps noisy`` under this session's config.

        With caching enabled (``config.cache``) the verdict is first
        looked up in the result cache by the circuits' content
        fingerprints; a hit returns the stored result — zero planning,
        zero contraction — re-stamped with the lookup time and
        ``stats.result_cache_hit = 1``.  Misses compute as usual, record
        the run's plan-cache hits in ``stats.plan_cache_hit``, and feed
        the cache for every later process.
        """
        return self._traced(lambda: self._check(ideal, noisy))

    def _traced(self, compute) -> CheckResult:
        """Run ``compute`` under a fresh trace recorder when the config
        asks for one and no outer layer (the Engine) installed its own;
        the span tree lands on ``result.trace``."""
        if not self.config.trace or _trace.current_recorder() is not None:
            return compute()
        recorder = _trace.TraceRecorder()
        with _trace.recording(recorder):
            result = compute()
        result.trace = _trace.span_tree(recorder)
        return result

    def _check(
        self, ideal: QuantumCircuit, noisy: QuantumCircuit
    ) -> CheckResult:
        cfg = self.config
        key = None
        if self.cache is not None and self._result_cacheable():
            lookup_start = time.perf_counter()
            with _trace.span("request.fingerprint"):
                key = self.cache.results.key_for(ideal, noisy, cfg)
            with _trace.span("cache.result.get") as lookup_span:
                cached = self.cache.results.get(key)
                lookup_span.set(hit=cached is not None)
            if cached is not None:
                # A fresh object per hit (pickle round-trip inside the
                # adapter), so re-stamping cannot corrupt the store.
                cached.stats.time_seconds = (
                    time.perf_counter() - lookup_start
                )
                cached.stats.term_times = []
                cached.stats.plan_cache_hit = 0
                cached.stats.planning_seconds = 0.0
                cached.stats.plan_trials = 0
                # This hit did no contraction work; the stored run's
                # work counters would otherwise re-inflate aggregate
                # metrics (StatsAggregator sums term/slice counts) on
                # every warm request.
                cached.stats.batched_slice_calls = 0
                cached.stats.terms_computed = 0
                cached.stats.result_cache_hit = 1
                cached.trace = None
                return cached
        plan_hits_before = (
            self.backend.plan_cache_hits if self.cache is not None else 0
        )
        # the span covers the session's own work too (validation, the
        # algorithm choice, the verdict), so a fast check's wall stays
        # attributed; a result-cache hit above opens none
        with _trace.span("session.check") as check_span:
            self._validate_pair(ideal, noisy)
            algorithm = self.select_algorithm(noisy)
            check_span.set(algorithm=algorithm)
            result = self._fidelity_result(
                ideal, noisy, algorithm, cfg.epsilon
            )
            outcome = self._verdict(result, algorithm)
        if self.cache is not None:
            outcome.stats.plan_cache_hit = (
                self.backend.plan_cache_hits - plan_hits_before
            )
            if key is not None and not outcome.stats.timed_out:
                with _trace.span("cache.result.put"):
                    self.cache.results.put(key, outcome)
        return outcome

    def _verdict(
        self, result: FidelityResult, algorithm: str
    ) -> CheckResult:
        """Decide against ``config.epsilon`` and assemble the record.

        The one verdict-assembly path for both :meth:`check` and
        fidelity-mode :meth:`run` — including the truncated-lower-bound
        note, which applies whenever a capped Algorithm I run cannot
        prove a negative.
        """
        equivalent = result.fidelity > 1.0 - self.config.epsilon
        note = None
        if not equivalent and result.is_lower_bound:
            note = (
                "fidelity is a truncated lower bound; rerun without early "
                "termination or term caps for a definitive negative answer"
            )
        return CheckResult(
            equivalent=equivalent,
            epsilon=self.config.epsilon,
            fidelity=result.fidelity,
            is_lower_bound=result.is_lower_bound,
            stats=result.stats,
            algorithm=algorithm,
            backend=result.stats.backend,
            note=note,
        )

    def fidelity(
        self, ideal: QuantumCircuit, noisy: QuantumCircuit
    ) -> float:
        """Exact ``F_J(E_noisy, U_ideal)`` with the configured algorithm.

        No early termination is applied (Algorithm I sums every term up
        to the configured caps).
        """
        return self.fidelity_result(ideal, noisy).fidelity

    def fidelity_result(
        self, ideal: QuantumCircuit, noisy: QuantumCircuit
    ) -> FidelityResult:
        """:meth:`fidelity` plus the run's stats and lower-bound flag.

        Validates the pair like every other entry point — a qubit
        mismatch fails with the clean ValueError, not a shape error
        deep inside a contraction.
        """
        self._validate_pair(ideal, noisy)
        algorithm = self.select_algorithm(noisy)
        return self._fidelity_result(ideal, noisy, algorithm, None)

    def run(
        self,
        ideal: QuantumCircuit,
        noisy: QuantumCircuit,
        mode: str = "check",
    ) -> CheckResult:
        """One uniform entry point over :meth:`check` and :meth:`fidelity`.

        ``mode="check"`` is exactly :meth:`check`.  ``mode="fidelity"``
        computes the exact fidelity (no epsilon early termination) and
        wraps it in the same :class:`CheckResult` shape — the verdict is
        still decided against ``config.epsilon`` — so request-driven
        callers (:class:`repro.api.Engine`, the batch workers) handle
        one result type.  Fidelity-mode results are never cached: their
        no-early-termination semantics are not captured by the config
        fingerprint the result cache keys on.
        """
        if mode == "check":
            return self.check(ideal, noisy)
        if mode != "fidelity":
            raise ValueError(
                f"unknown run mode {mode!r}; choose from {list(RUN_MODES)}"
            )
        def compute() -> CheckResult:
            result = self.fidelity_result(ideal, noisy)
            return self._verdict(result, result.stats.algorithm)

        return self._traced(compute)

    @staticmethod
    def _validate_pair(
        ideal: QuantumCircuit, noisy: QuantumCircuit
    ) -> None:
        """Shared preconditions of every run mode."""
        if ideal.num_qubits != noisy.num_qubits:
            raise ValueError("circuits must have the same number of qubits")
        if not ideal.is_unitary_circuit:
            raise ValueError("the ideal circuit must be noiseless (unitary)")

    def _fidelity_result(
        self,
        ideal: QuantumCircuit,
        noisy: QuantumCircuit,
        algorithm: str,
        epsilon: Optional[float],
    ) -> FidelityResult:
        cfg = self.config
        if algorithm == "dense":
            # The Table I baseline, in the paper's memory envelope: from
            # 7 qubits on it refuses (MemoryLimitExceeded) before allocating.
            with _trace.span("baseline.superop", qubits=noisy.num_qubits):
                fidelity = process_fidelity(
                    noisy, ideal, memory_limit_bytes=PAPER_MEMORY_BYTES
                )
            return FidelityResult(
                fidelity=fidelity,
                stats=RunStats(algorithm="dense", backend="dense-linalg"),
            )
        backend = self.backend
        planning_before = backend.planning_seconds_total
        trials_before = backend.plan_trials_total
        if algorithm == "alg1":
            result = fidelity_individual(
                noisy,
                ideal,
                epsilon=epsilon,
                backend=backend,
                use_local_optimisations=cfg.use_local_optimisations,
                dominant_first=cfg.dominant_first,
                max_terms=cfg.alg1_max_terms,
                time_budget_seconds=cfg.alg1_time_budget_seconds,
            )
        elif algorithm == "alg2":
            result = fidelity_collective(
                noisy,
                ideal,
                backend=backend,
                use_local_optimisations=cfg.use_local_optimisations,
            )
        else:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        # Delta of the backend's cumulative planning counters: how much
        # planning (and how many search trials) *this run* paid for.
        # ~0 seconds and 0 trials when the plan cache answered.
        result.stats.planning_seconds = (
            backend.planning_seconds_total - planning_before
        )
        result.stats.plan_trials = backend.plan_trials_total - trials_before
        return result
