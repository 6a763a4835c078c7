"""Run statistics reported by the checking algorithms.

The paper's Table I reports wall-clock time and the maximum number of TDD
nodes constructed during a run; Table II additionally needs per-term
timings with and without the shared computed table.  :class:`RunStats`
carries all of that, and both it and :class:`CheckResult` serialise to
plain dicts / JSON so batch runs can stream machine-readable results.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass, field
from typing import Iterable, List, Optional

#: Version tag of the JSON wire schema emitted by ``CheckResult.to_dict``,
#: ``CheckError.to_dict`` and the :mod:`repro.api` request/response types.
#: The CLI's ``check --json`` and ``batch`` records carry the same tag, so
#: CLI and API payloads cannot drift apart.  Bump it only on a breaking
#: field change; additive fields keep the version.
SCHEMA_VERSION = "1"


@dataclass
class RunStats:
    """Statistics of one fidelity computation."""

    algorithm: str = ""
    #: registry name of the contraction backend that did the work
    backend: str = ""
    #: wall-clock seconds for the whole computation
    time_seconds: float = 0.0
    #: summed per-run compute seconds when stats are merged across a
    #: (possibly parallel) batch; 0 on a single run.  Under ``jobs > 1``
    #: this exceeds ``time_seconds`` — that gap *is* the parallel speedup.
    cpu_seconds: float = 0.0
    #: peak TDD node count across all intermediate diagrams ('nodes' column)
    max_nodes: int = 0
    #: peak dense intermediate size (dense/einsum backends only)
    max_intermediate_size: int = 0
    #: plan-predicted scalar multiply-adds summed over every contraction
    predicted_cost: int = 0
    #: plan-predicted peak intermediate size (compare with
    #: max_intermediate_size for plan-quality tracking)
    predicted_peak_size: int = 0
    #: index-fixed subplan executions per contraction (1 = unsliced)
    slice_count: int = 0
    #: device the backend's numerics ran on ("" = not recorded)
    device: str = ""
    #: batched einsum sweeps over slice chunks (0 = looped or unsliced)
    batched_slice_calls: int = 0
    #: plan_for calls served from the plan cache without planning
    #: (0 whenever caching is disabled)
    plan_cache_hit: int = 0
    #: wall-clock seconds the backend spent planning (cache lookups,
    #: min_fill, search trials); ~0 on plan-cache hits
    planning_seconds: float = 0.0
    #: randomized search trials run by the anneal search
    #: (0 for min_fill and on plan-cache hits)
    plan_trials: int = 0
    #: whole checks served from the result cache without contracting
    #: (0 or 1 per run; sums across a merged batch)
    result_cache_hit: int = 0
    #: number of Kraus selections actually contracted (Alg I)
    terms_computed: int = 0
    #: total number of Kraus selections (prod of per-site counts)
    terms_total: int = 0
    #: True when Alg I stopped early on the partial-sum test
    early_stopped: bool = False
    #: True when Alg I hit its wall-clock budget before finishing
    timed_out: bool = False
    #: per-term wall-clock seconds (Alg I, for the Table II experiment),
    #: amortised: each term gets its chunk's wall time divided by the
    #: chunk's terms, so ``len(term_times) == terms_computed``
    term_times: List[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-safe)."""
        return asdict(self)

    def to_json(self, **kwargs) -> str:
        """JSON form; ``kwargs`` forward to :func:`json.dumps`."""
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def merge(
        cls,
        runs: Iterable["RunStats"],
        wall_seconds: Optional[float] = None,
    ) -> "RunStats":
        """Aggregate many runs' stats into one batch-level record.

        Merging is parallelism-aware: ``cpu_seconds`` *sums* each run's
        compute time (what the hardware worked), while ``time_seconds``
        is the caller-measured ``wall_seconds`` (what the user waited) —
        under ``jobs > 1`` the two legitimately diverge, and their ratio
        is the achieved speedup.  When no wall clock is supplied the
        serial assumption ``time_seconds == cpu_seconds`` applies.

        Peaks (``max_nodes``, ``max_intermediate_size``,
        ``predicted_peak_size``, ``slice_count``) take the maximum,
        counters (``predicted_cost``, ``terms_*``, the
        ``plan_cache_hit``/``result_cache_hit`` cache counters,
        ``planning_seconds``/``plan_trials``) sum,
        flags OR, and
        ``algorithm``/``backend`` keep a common value or become
        ``"mixed"``.  Per-term timings are not concatenated (they are a
        per-run diagnostic, meaningless across runs).
        """
        merged = cls()
        runs = [run for run in runs if run is not None]
        if runs:
            algorithms = {run.algorithm for run in runs}
            backends = {run.backend for run in runs}
            devices = {run.device for run in runs}
            merged.algorithm = (
                algorithms.pop() if len(algorithms) == 1 else "mixed"
            )
            merged.backend = backends.pop() if len(backends) == 1 else "mixed"
            merged.device = devices.pop() if len(devices) == 1 else "mixed"
            merged.cpu_seconds = sum(
                run.cpu_seconds if run.cpu_seconds else run.time_seconds
                for run in runs
            )
            merged.max_nodes = max(run.max_nodes for run in runs)
            merged.max_intermediate_size = max(
                run.max_intermediate_size for run in runs
            )
            merged.predicted_cost = sum(run.predicted_cost for run in runs)
            merged.predicted_peak_size = max(
                run.predicted_peak_size for run in runs
            )
            merged.slice_count = max(run.slice_count for run in runs)
            merged.batched_slice_calls = sum(
                run.batched_slice_calls for run in runs
            )
            merged.plan_cache_hit = sum(run.plan_cache_hit for run in runs)
            merged.planning_seconds = sum(
                run.planning_seconds for run in runs
            )
            merged.plan_trials = sum(run.plan_trials for run in runs)
            merged.result_cache_hit = sum(
                run.result_cache_hit for run in runs
            )
            merged.terms_computed = sum(run.terms_computed for run in runs)
            merged.terms_total = sum(run.terms_total for run in runs)
            merged.early_stopped = any(run.early_stopped for run in runs)
            merged.timed_out = any(run.timed_out for run in runs)
        merged.time_seconds = (
            wall_seconds if wall_seconds is not None else merged.cpu_seconds
        )
        return merged


class StatsAggregator:
    """Cumulative, thread-safe :class:`RunStats` counters across runs.

    :meth:`RunStats.merge` aggregates one *finished* batch; long-lived
    consumers — the service's ``/metrics`` endpoint, the batch CLI's
    stderr summary — instead feed every run into one of these as it
    completes and read a consistent :meth:`snapshot` at any time.
    Counters only ever grow (Prometheus-counter semantics); peaks take
    the maximum.  ``add`` and ``snapshot`` are safe to call from any
    thread.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._checks = 0
        self._wall_seconds = 0.0
        self._cpu_seconds = 0.0
        self._plan_cache_hits = 0
        self._planning_seconds = 0.0
        self._plan_trials = 0
        self._result_cache_hits = 0
        self._terms_computed = 0
        self._batched_slice_calls = 0
        self._max_nodes = 0
        self._max_intermediate_size = 0
        self._early_stopped = 0
        self._timed_out = 0

    def add(self, stats: Optional[RunStats]) -> None:
        """Fold one run's counters in (``None`` is ignored).

        As in :meth:`RunStats.merge`, a run that never recorded a
        separate ``cpu_seconds`` contributes its wall time to the CPU
        total — the serial assumption.
        """
        if stats is None:
            return
        with self._lock:
            self._checks += 1
            self._wall_seconds += stats.time_seconds
            self._cpu_seconds += (
                stats.cpu_seconds if stats.cpu_seconds else stats.time_seconds
            )
            self._plan_cache_hits += stats.plan_cache_hit
            self._planning_seconds += stats.planning_seconds
            self._plan_trials += stats.plan_trials
            self._result_cache_hits += stats.result_cache_hit
            self._terms_computed += stats.terms_computed
            self._batched_slice_calls += stats.batched_slice_calls
            self._max_nodes = max(self._max_nodes, stats.max_nodes)
            self._max_intermediate_size = max(
                self._max_intermediate_size, stats.max_intermediate_size
            )
            self._early_stopped += int(stats.early_stopped)
            self._timed_out += int(stats.timed_out)

    def snapshot(self) -> dict:
        """A consistent point-in-time copy of every counter (JSON-safe)."""
        with self._lock:
            return {
                "checks": self._checks,
                "wall_seconds": self._wall_seconds,
                "cpu_seconds": self._cpu_seconds,
                "plan_cache_hits": self._plan_cache_hits,
                "planning_seconds": self._planning_seconds,
                "plan_trials": self._plan_trials,
                "result_cache_hits": self._result_cache_hits,
                "terms_computed": self._terms_computed,
                "batched_slice_calls": self._batched_slice_calls,
                "max_nodes": self._max_nodes,
                "max_intermediate_size": self._max_intermediate_size,
                "early_stopped": self._early_stopped,
                "timed_out": self._timed_out,
            }


@dataclass
class FidelityResult:
    """Outcome of a fidelity computation.

    ``fidelity`` is exact when the algorithm ran to completion; when Alg I
    stops early it is the partial sum, which *lower-bounds* the true
    Jamiolkowski fidelity (every term is non-negative).
    """

    fidelity: float
    is_lower_bound: bool = False
    stats: RunStats = field(default_factory=RunStats)

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-safe)."""
        return {
            "fidelity": self.fidelity,
            "is_lower_bound": self.is_lower_bound,
            "stats": self.stats.to_dict(),
        }


@dataclass
class CheckError:
    """Error record standing in for one failed item of a batch.

    Batch runs with error isolation (``check_many(isolate_errors=True)``,
    the CLI's ``batch`` command) yield one of these — instead of crashing
    the whole batch — when a single item raises.  It mirrors the
    :class:`CheckResult` surface that batch consumers touch
    (``equivalent``, ``verdict``, ``to_dict``/``to_json``) so result
    streams stay homogeneous to iterate.
    """

    #: the exception message
    error: str
    #: the exception class name (the exception object itself may not
    #: survive a trip through a worker process)
    error_type: str = "Exception"
    #: position of the failed item in the batch input (None = unknown)
    index: Optional[int] = None
    #: machine-readable failure code from the :mod:`repro.api.errors`
    #: taxonomy ("check_failed" covers an exception inside the check
    #: itself; request-level failures carry their own codes)
    error_code: str = "check_failed"

    #: an errored check never attests equivalence
    equivalent: bool = field(default=False, init=False)

    @property
    def verdict(self) -> str:
        """Verdict string, uniform with :attr:`CheckResult.verdict`."""
        return "ERROR"

    def to_dict(self) -> dict:
        """Wire-schema error record (JSON-safe, versioned)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "equivalent": False,
            "verdict": self.verdict,
            "error": self.error,
            "error_type": self.error_type,
            "error_code": self.error_code,
            "index": self.index,
        }

    def to_json(self, **kwargs) -> str:
        """JSON form; ``kwargs`` forward to :func:`json.dumps`."""
        return json.dumps(self.to_dict(), **kwargs)


@dataclass
class CheckResult:
    """Outcome of an epsilon-equivalence check."""

    equivalent: bool
    epsilon: float
    fidelity: float
    is_lower_bound: bool
    stats: RunStats = field(default_factory=RunStats)
    algorithm: str = ""
    #: registry name of the contraction backend that did the work
    backend: str = ""
    note: Optional[str] = None
    #: compact span tree of the run (see :func:`repro.trace.span_tree`)
    #: when the check ran with ``CheckConfig(trace=True)``, else None
    trace: Optional[dict] = None

    @property
    def verdict(self) -> str:
        """Human/JSON-friendly verdict string."""
        return "EQUIVALENT" if self.equivalent else "NOT_EQUIVALENT"

    def to_dict(self) -> dict:
        """Wire-schema result record (JSON-safe, versioned).

        This dict *is* the version-``1`` response wire schema: the CLI's
        ``check --json`` and ``batch`` records and the
        :class:`repro.api.CheckResponse` payload are all this exact
        shape (the CLI adds its ``line``/``ideal``/``noisy`` envelope
        fields on batch records).
        """
        record = {
            "schema_version": SCHEMA_VERSION,
            "equivalent": self.equivalent,
            "verdict": self.verdict,
            "epsilon": self.epsilon,
            "fidelity": self.fidelity,
            "is_lower_bound": self.is_lower_bound,
            "algorithm": self.algorithm,
            "backend": self.backend,
            "time_seconds": self.stats.time_seconds,
            "note": self.note,
            "stats": self.stats.to_dict(),
        }
        # additive: only traced runs carry the key (version stays "1")
        if self.trace is not None:
            record["trace"] = self.trace
        return record

    def to_json(self, **kwargs) -> str:
        """JSON form; ``kwargs`` forward to :func:`json.dumps`."""
        return json.dumps(self.to_dict(), **kwargs)
