"""The parallel execution subsystem.

Two levels of parallelism, matching the two levels of independent work
the contraction-plan IR exposes:

* **slice-level** — a sliced
  :class:`~repro.tensornet.planner.ContractionPlan` is a sum over
  independent index-fixed subplan executions; a :class:`SliceExecutor`
  (attach one to any backend via the ``executor=`` constructor keyword)
  fans those assignments out to a worker-process pool in amortising
  chunks and sums the partial scalars;
* **batch-level** — a batch of equivalence checks is a set of
  independent whole computations;
  :meth:`Engine.check_iter <repro.api.engine.Engine.check_iter>` and
  :meth:`Engine.submit <repro.api.engine.Engine.submit>` (behind the
  CLI's ``batch --jobs N`` and the service) run each check in the
  engine's worker pool through
  :func:`~repro.parallel.worker.run_check_item`, with deterministic
  result ordering and per-item error isolation.

Both levels transport plain picklable payloads and keep per-worker
state (backend instances, sessions, TDD managers, plan caches) warm in
module-global caches inside each worker process.
"""

from .executors import (
    CHUNKS_PER_JOB,
    ProcessSliceExecutor,
    SerialExecutor,
    SliceExecutor,
    chunk_assignments,
)

__all__ = [
    "CHUNKS_PER_JOB",
    "ProcessSliceExecutor",
    "SerialExecutor",
    "SliceExecutor",
    "chunk_assignments",
]
