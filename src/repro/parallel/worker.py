"""Worker-process entry points for the parallel subsystem.

Everything submitted to a :class:`concurrent.futures.ProcessPoolExecutor`
must be picklable and importable by name, so the functions here are plain
module-level callables and their payloads are plain data: a backend
*spec* (the dict :meth:`ContractionBackend.describe` returns), a
:class:`~repro.tensornet.TensorNetwork` (tensors pickle as ndarrays +
label tuples), a :class:`~repro.tensornet.planner.ContractionPlan` and a
chunk of slice assignments — or, for batch-level parallelism, a frozen
:class:`~repro.core.session.CheckConfig` plus one circuit pair.

Workers keep module-global caches (one backend instance per spec, one
:class:`CheckSession` per config) that live for the worker process's
lifetime, so consecutive chunks dispatched to the same worker reuse warm
state — cached contraction plans, a warm TDD manager with populated
computed tables — exactly like a serial session would.

Caching composes with both transports: a backend spec may carry a
``plan_cache`` directory (see
:meth:`~repro.backends.base.ContractionBackend.describe`) and a
:class:`CheckConfig` carries its ``cache``/``cache_dir`` fields, so
every worker re-opens the same disk tier of :mod:`repro.cache` and the
pool warms itself — a plan or verdict computed by one worker is a hash
lookup for all the others.
"""

from __future__ import annotations

import pickle
from typing import Dict, Optional, Sequence, Tuple

from .. import trace as _trace
from ..tensornet import ContractionStats, TensorNetwork
from ..tensornet.planner import ContractionPlan

#: Per-worker backend instances, keyed by frozen spec.  Module-global on
#: purpose: the cache *is* the per-worker state reuse.
_WORKER_BACKENDS: Dict[tuple, object] = {}

#: Per-worker CheckSession instances, keyed by their frozen CheckConfig.
_WORKER_SESSIONS: Dict[object, object] = {}

#: Per-worker (network, plan) payloads, keyed by blob digest.  Kept to a
#: single entry: all chunks of one contraction share one payload, and
#: the next contraction replaces it.
_WORKER_PAYLOADS: Dict[str, Tuple[TensorNetwork, ContractionPlan]] = {}


def backend_for_spec(spec: Dict[str, object]):
    """The worker's cached backend instance for a describe()-style spec."""
    from ..backends import get_backend  # deferred: avoid an import cycle

    key = tuple(sorted(spec.items()))
    backend = _WORKER_BACKENDS.get(key)
    if backend is None:
        options = dict(spec)
        name = options.pop("name")
        backend = get_backend(name, **options)
        _WORKER_BACKENDS[key] = backend
    return backend


def run_slice_chunk(
    spec: Dict[str, object],
    network: TensorNetwork,
    plan: ContractionPlan,
    assignments: Sequence[Dict[str, int]],
    trace_spans: bool = False,
) -> Tuple[complex, ContractionStats]:
    """Contract one chunk of slice assignments; return (partial sum, stats).

    The returned stats carry the chunk's *measured* fields (peak nodes /
    intermediate sizes); the caller folds them into its own collector.
    With ``trace_spans`` the chunk records its own span trace (rooted at
    ``slices.worker``) and ships the picklable records back in
    ``stats.extra["trace_spans"]`` for the dispatching executor to fold
    into the parent trace.
    """
    backend = backend_for_spec(spec)
    stats = ContractionStats()
    if not trace_spans:
        value = backend.contract_scalar(
            network, stats=stats, plan=plan, assignments=list(assignments)
        )
        return value, stats
    recorder = _trace.TraceRecorder()
    with _trace.recording(recorder):
        with _trace.span("slices.worker", slices=len(assignments)):
            value = backend.contract_scalar(
                network, stats=stats, plan=plan,
                assignments=list(assignments),
            )
    stats.extra["trace_spans"] = recorder.export_records()
    return value, stats


def run_slice_chunk_blob(
    spec: Dict[str, object],
    digest: str,
    blob: bytes,
    assignments: Sequence[Dict[str, int]],
    trace_spans: bool = False,
) -> Tuple[complex, ContractionStats]:
    """:func:`run_slice_chunk` with a shared pre-pickled payload.

    Every chunk of one contraction carries the same ``(network, plan)``
    payload; the dispatching executor pickles it once and each worker
    unpickles it once (cached by ``digest``) instead of once per chunk.
    """
    payload = _WORKER_PAYLOADS.get(digest)
    if payload is None:
        _WORKER_PAYLOADS.clear()  # one workload at a time: bound memory
        payload = pickle.loads(blob)
        _WORKER_PAYLOADS[digest] = payload
    network, plan = payload
    return run_slice_chunk(
        spec, network, plan, assignments, trace_spans=trace_spans
    )


def session_for_config(config):
    """The worker's cached CheckSession for a frozen CheckConfig."""
    from ..core.session import CheckSession  # deferred: import cycle

    session = _WORKER_SESSIONS.get(config)
    if session is None:
        session = CheckSession(config)
        _WORKER_SESSIONS[config] = session
    return session


def run_check_item(
    config, ideal, noisy, mode: str
) -> Tuple[Optional[object], Optional[Tuple[str, str]]]:
    """Run one equivalence check in a worker process.

    Returns ``(CheckResult, None)`` on success and ``(None, (error_type,
    message))`` on failure, so one bad item surfaces as a record instead
    of poisoning the whole pool.  ``mode`` follows
    :meth:`~repro.core.session.CheckSession.run` ("check"/"fidelity").
    """
    try:
        return session_for_config(config).run(ideal, noisy, mode), None
    except Exception as exc:
        return None, (type(exc).__name__, str(exc))
