"""Run statistics reported by the checking algorithms.

The paper's Table I reports wall-clock time and the maximum number of TDD
nodes constructed during a run; Table II additionally needs per-term
timings with and without the shared computed table.  :class:`RunStats`
carries all of that, and both it and :class:`CheckResult` serialise to
plain dicts / JSON so batch runs can stream machine-readable results.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from typing import Iterator, List, Optional, Tuple

#: Version tag of the JSON wire schema emitted by ``CheckResult.to_dict``
#: and the :mod:`repro.api` request/response types.
#: The CLI's ``check --json`` and ``batch`` records carry the same tag, so
#: CLI and API payloads cannot drift apart.  Bump it only on a breaking
#: field change; additive fields keep the version.
SCHEMA_VERSION = "1"


class TermTimes(Sequence):
    """Algorithm I's per-term seconds, held as one run per chunk.

    Each chunk's wall time is amortised over its terms, so the terms of
    one chunk share one value: a result keeps ``(seconds, terms)`` per
    chunk, not a float per term, and a caller that holds many results
    (a batch, a benchmark) does not pay 8 bytes per term for each.  It
    reads as the per-term list (``len``, indexing, iteration, ``==``
    against any sequence), and :meth:`RunStats.to_dict` writes that list.
    """

    def __init__(self) -> None:
        self._runs: List[Tuple[float, int]] = []
        self._terms = 0

    def add_run(self, seconds: float, terms: int) -> None:
        """Record ``terms`` more terms that took ``seconds`` each."""
        self._runs.append((seconds, terms))
        self._terms += terms

    def __len__(self) -> int:
        return self._terms

    def __iter__(self) -> Iterator[float]:
        for seconds, terms in self._runs:
            yield from itertools.repeat(seconds, terms)

    def __getitem__(self, index):
        return list(self)[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    __hash__ = None

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class RunStats:
    """Statistics of one fidelity computation."""

    algorithm: str = ""
    #: registry name of the contraction backend that did the work
    backend: str = ""
    #: wall-clock seconds for the whole computation
    time_seconds: float = 0.0
    #: always 0: no run records a separate CPU time.  Kept because wire
    #: schema v1 carries it; batch CPU totals come from
    #: :class:`StatsAggregator`.
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
    #: (0 or 1 per run)
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
    #: chunk's terms, so ``len(term_times) == terms_computed`` (Alg I
    #: fills a :class:`TermTimes`; any sequence of floats is accepted)
    term_times: Sequence = field(default_factory=list)

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-safe)."""
        record = asdict(self)
        record["term_times"] = list(self.term_times)
        return record

    def to_json(self, **kwargs) -> str:
        """JSON form; ``kwargs`` forward to :func:`json.dumps`."""
        return json.dumps(self.to_dict(), **kwargs)


class StatsAggregator:
    """Cumulative, thread-safe :class:`RunStats` counters across runs.

    Consumers — the service's ``/metrics`` endpoint, the batch CLI's
    stderr summary — feed every run into one of these as it completes
    and read a consistent :meth:`snapshot` at any time.
    Counters only ever grow (Prometheus-counter semantics); peaks take
    the maximum.  ``add`` and ``snapshot`` are safe to call from any
    thread.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._checks = 0
        self._wall_seconds = 0.0
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

        Each run's wall time is also its compute time, so the snapshot's
        ``cpu_seconds`` is the same ``time_seconds`` sum as its
        ``wall_seconds``; under ``jobs > 1`` it exceeds the caller's own
        wall clock, and that gap is the parallel speedup.
        """
        if stats is None:
            return
        with self._lock:
            self._checks += 1
            self._wall_seconds += stats.time_seconds
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
                "cpu_seconds": self._wall_seconds,
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
