"""Slice-level parallel execution: the :class:`SliceExecutor` protocol.

A sliced :class:`~repro.tensornet.planner.ContractionPlan` is a sum over
independent index-fixed subplan executions — embarrassingly parallel
work.  A :class:`SliceExecutor` owns the strategy for running those
assignments: :class:`SerialExecutor` runs them in-process (the reference
implementation), :class:`ProcessSliceExecutor` fans chunks of
assignments out to a worker-process pool and sums the partial scalars.
Both out-of-process transports (this pool and
:class:`~repro.cluster.executor.RemoteSliceExecutor`) share one dispatch
core, :class:`ChunkedSliceExecutor`.

Backends hold an optional executor (the ``executor=`` constructor
keyword of :class:`~repro.backends.base.ContractionBackend`); whenever a
backend is asked to contract a sliced plan it delegates the slice loop
to its executor.  Dispatch is *chunked* — many small slices travel in
one task — so IPC and pickling overhead amortise over real work, and
each worker keeps its backend instance (plans, TDD manager, computed
tables) warm across chunks.

Determinism: partial sums are reduced in chunk-submission order, so the
result is independent of worker scheduling (floating-point association
differs from the serial loop only at the chunk boundaries, well inside
the 1e-9 agreement bound the test suite enforces).
"""

from __future__ import annotations

import abc
import hashlib
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import (
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .. import trace as _trace
from ..tensornet import ContractionStats, TensorNetwork
from ..tensornet.planner import ContractionPlan, iter_slice_assignments
from .worker import run_slice_chunk_blob

#: Auto-chunking splits the assignments into this many chunks per worker,
#: so an unlucky mix of fast and slow slices still load-balances.
CHUNKS_PER_JOB = 4


def chunk_assignments(
    assignments: Sequence[Dict[str, int]],
    jobs: int,
    chunk_size: Optional[int] = None,
    align: int = 1,
) -> List[List[Dict[str, int]]]:
    """Split slice assignments into dispatch chunks.

    ``chunk_size`` wins when given; otherwise the chunk size targets
    :data:`CHUNKS_PER_JOB` chunks per worker (at least one assignment
    per chunk).  ``align`` rounds the *auto-sized* chunk up to a whole
    multiple, so chunks dispatched to batching backends carry complete
    batch groups and only the final chunk runs a ragged batch.
    """
    total = len(assignments)
    if align < 1:
        raise ValueError("align must be at least 1")
    if chunk_size is None:
        chunk_size = max(1, -(-total // max(1, jobs * CHUNKS_PER_JOB)))
        if align > 1:
            chunk_size = -(-chunk_size // align) * align
    elif chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    return [
        list(assignments[i:i + chunk_size])
        for i in range(0, total, chunk_size)
    ]


def fold_measured_stats(
    stats: Optional[ContractionStats], chunk: Optional[ContractionStats]
) -> None:
    """Merge a chunk's *measured* fields into the caller's collector.

    Plan-derived predictions (``predicted_cost`` etc.) are recorded once
    by the dispatching backend and deliberately not folded here.
    """
    if stats is None or chunk is None:
        return
    stats.num_pairwise_contractions += chunk.num_pairwise_contractions
    stats.max_intermediate_rank = max(
        stats.max_intermediate_rank, chunk.max_intermediate_rank
    )
    stats.max_intermediate_size = max(
        stats.max_intermediate_size, chunk.max_intermediate_size
    )
    stats.max_nodes = max(stats.max_nodes, chunk.max_nodes)
    stats.batched_slice_calls += chunk.batched_slice_calls


class SliceExecutor(abc.ABC):
    """Strategy for executing a sliced plan's independent assignments."""

    @abc.abstractmethod
    def contract(
        self,
        backend,
        network: TensorNetwork,
        plan: ContractionPlan,
        stats: Optional[ContractionStats] = None,
        assignments: Optional[Sequence[Dict[str, int]]] = None,
    ) -> complex:
        """Sum the plan's subplan executions and return the scalar.

        ``backend`` is the dispatching
        :class:`~repro.backends.base.ContractionBackend`; executors call
        back into ``backend.contract_scalar(..., assignments=chunk)``
        (in-process or in a worker), which never re-dispatches.
        ``assignments`` restricts the sum to those slices (Algorithm I
        sends one trace term's memory slices); ``None`` sums them all.
        """

    def close(self) -> None:
        """Release executor resources (worker pools).  Idempotent."""

    def __enter__(self) -> "SliceExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(SliceExecutor):
    """Run every slice in-process — the reference executor.

    Exists so code can be written against the executor seam and switched
    to process-parallel execution by swapping one object, and so tests
    can pin the decomposed (chunk-summed) code path without any pool.
    """

    def __init__(self, chunk_size: Optional[int] = None):
        self.chunk_size = chunk_size

    def contract(self, backend, network, plan, stats=None, assignments=None):
        if assignments is None:
            assignments = list(iter_slice_assignments(plan))
        if self.chunk_size is None:
            return backend.contract_scalar(
                network, stats=stats, plan=plan, assignments=assignments
            )
        total = 0j
        for chunk in chunk_assignments(assignments, 1, self.chunk_size):
            total += backend.contract_scalar(
                network, stats=stats, plan=plan, assignments=chunk
            )
        return total


class ChunkPayload(NamedTuple):
    """What every chunk of one dispatched contraction shares.

    ``blob`` is the ``(network, plan)`` pair pickled once per
    contraction; workers cache its deserialisation by ``digest`` instead
    of paying the full payload serialisation per chunk.
    """

    spec: Dict[str, object]
    digest: str
    blob: bytes
    tracing: bool


class ChunkedSliceExecutor(SliceExecutor):
    """The slice-dispatch core shared by the out-of-process transports.

    :meth:`contract` owns everything but the transport: batch-aligned
    chunking, the once-pickled payload, the dispatch span, and the
    chunk-order reduce (partial sums, measured stats, worker trace
    spans).  Subclasses set :attr:`dispatch_span` and implement
    :meth:`_run_chunks`.
    """

    #: name of the span wrapping one dispatched contraction
    dispatch_span: str = "slices.dispatch"
    jobs: int
    chunk_size: Optional[int]

    def contract(self, backend, network, plan, stats=None, assignments=None):
        if assignments is None:
            assignments = list(iter_slice_assignments(plan))
        if len(assignments) < 2:
            # Nothing to parallelise: skip the transport (and its pickling).
            return backend.contract_scalar(
                network, stats=stats, plan=plan, assignments=assignments
            )
        # Align dispatch chunks to the backend's slice batch (whole batch
        # groups per payload), capped so alignment never starves a worker
        # of its chunk.
        batch = backend.effective_slice_batch(plan)
        align = max(1, min(batch, len(assignments) // self.jobs))
        chunks = chunk_assignments(
            assignments, self.jobs, self.chunk_size, align=align
        )
        blob = pickle.dumps((network, plan), pickle.HIGHEST_PROTOCOL)
        recorder = _trace.current_recorder()
        payload = ChunkPayload(
            backend.describe(), hashlib.sha1(blob).hexdigest(), blob,
            recorder is not None,
        )
        with _trace.span(self.dispatch_span) as dispatch_span:
            total = 0j
            # chunk order: deterministic reduce — and the order worker
            # span records fold into the parent trace, exactly like the
            # stats merge.
            for value, chunk_stats, attributes in self._run_chunks(
                backend, network, plan, stats, chunks, payload,
                dispatch_span,
            ):
                total += value
                fold_measured_stats(stats, chunk_stats)
                records = (
                    getattr(chunk_stats, "extra", {}).pop("trace_spans", None)
                    if payload.tracing else None
                )
                if records:
                    # Worker clocks are not ours: re-anchor each chunk's
                    # spans at the dispatch span's start so they nest
                    # inside the dispatch window.
                    recorder.fold(
                        records,
                        attributes=attributes,
                        align_start_ns=dispatch_span.span.start_ns,
                    )
        return total

    @abc.abstractmethod
    def _run_chunks(
        self, backend, network, plan, stats, chunks, payload, dispatch_span
    ) -> Iterable[Tuple[complex, Optional[ContractionStats], dict]]:
        """Execute ``chunks`` → ``(value, chunk_stats, trace attributes)``
        per chunk, yielded in chunk order."""


class ProcessSliceExecutor(ChunkedSliceExecutor):
    """Fan slice chunks out to a ``ProcessPoolExecutor``.

    Parameters
    ----------
    jobs:
        Worker-process count (default: ``os.cpu_count()``).
    chunk_size:
        Assignments per dispatched task; ``None`` auto-sizes to
        :data:`CHUNKS_PER_JOB` chunks per worker.  Chunking is what lets
        thousands of *small* slices amortise pickling and IPC.

    The pool is created lazily on first use and reused for the
    executor's lifetime (workers keep backend state warm between
    contractions); call :meth:`close` — or use the executor as a context
    manager — to shut it down.
    """

    def __init__(
        self, jobs: Optional[int] = None, chunk_size: Optional[int] = None
    ):
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        self.jobs = jobs
        self.chunk_size = chunk_size
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def contract(self, backend, network, plan, stats=None, assignments=None):
        if self.jobs == 1:
            return SerialExecutor().contract(
                backend, network, plan, stats, assignments
            )
        return super().contract(backend, network, plan, stats, assignments)

    def _run_chunks(
        self, backend, network, plan, stats, chunks, payload, dispatch_span
    ):
        dispatch_span.set(chunks=len(chunks), jobs=self.jobs)
        pool = self._ensure_pool()
        futures = [
            pool.submit(
                run_slice_chunk_blob, payload.spec, payload.digest,
                payload.blob, chunk, payload.tracing,
            )
            for chunk in chunks
        ]
        for worker_index, future in enumerate(futures):
            value, chunk_stats = future.result()
            yield value, chunk_stats, {"worker": worker_index}

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProcessSliceExecutor(jobs={self.jobs}, "
            f"chunk_size={self.chunk_size})"
        )

