"""Algorithm I: calculate the trace terms individually.

For every choice of one Kraus operator per noise site, the miter network
of ``tr(U† E_i)`` gives one term ``|tr|^2 / d^2`` of the fidelity.  The
number of terms is the product of per-site Kraus counts — exponential in
the number of noises — but every term shares one network:
:func:`~repro.core.miter.alg1_template` stacks each site's Kraus
operators on an open ``kraus{s}`` axis, the representative term is
planned once through the backend's plan memo, and the Kraus labels
become the plan's leading slices.  Network and plans are memoised per
structure (:func:`~repro.core.miter.memoised_miter`): a request that
changes only channel values restacks the noise tensors and reuses the
rest, and on the einsum backends runs only the plan steps the Kraus
stacks (or memory slices) reach, the others being folded into the
template once.  The terms then run as slice chunks
of the one execution core
(:meth:`~repro.backends.ContractionBackend.execute_chunks`) — batched
matmuls over whole runs of terms on the array backends, one term at a
time on TDD.  The implementation supports:

* **early termination**: with an ``epsilon``, stop as soon as the partial
  sum certifies ``F_J > 1 - epsilon`` (every term is non-negative, so the
  partial sum is a valid lower bound).  It is checked between chunks, and
  the first chunk is the dominant term alone, so the common early stop
  still costs one term;
* **dominant-first enumeration**: visit selections in decreasing product
  of Kraus Frobenius norms, so the near-identity term comes first;
* **shared computed table**: one :class:`~repro.tdd.TddManager` serves all
  the terms, maximising cache reuse across them — the optimisation the
  paper evaluates in Table II.
"""

from __future__ import annotations

import itertools
import time
from contextlib import closing
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from .. import trace as _trace
from ..backends import DEFAULT_BACKEND, ContractionBackend, resolve_backend
from ..circuits import QuantumCircuit
from ..tensornet import ContractionStats
from ..tensornet.planner import iter_slice_assignments
from .miter import (
    Alg1Template,
    MiterTemplate,
    alg1_template,
    kraus_order,
    kraus_stack,
    memoised_miter,
    noise_site_data,
)
from .stats import FidelityResult, RunStats, TermTimes


def enumerate_selections(
    noisy: QuantumCircuit, dominant_first: bool = True
) -> Iterator[Tuple[int, ...]]:
    """Yield Kraus selections in the order Algorithm I visits them.

    With ``dominant_first`` the per-site Kraus indices are sorted by
    decreasing Frobenius norm before taking the Cartesian product, so the
    lexicographically first selection is the dominant (near-identity) one.
    """
    return itertools.product(*(
        kraus_order(inst.operation.kraus_operators, dominant_first)
        for inst in noisy.noise_instructions()
    ))


def fidelity_individual(
    noisy: QuantumCircuit,
    ideal: QuantumCircuit,
    epsilon: Optional[float] = None,
    backend: Union[str, ContractionBackend] = DEFAULT_BACKEND,
    use_local_optimisations: bool = True,
    dominant_first: bool = True,
    max_terms: Optional[int] = None,
    time_budget_seconds: Optional[float] = None,
) -> FidelityResult:
    """Jamiolkowski fidelity by individual trace terms (Algorithm I).

    Parameters
    ----------
    noisy:
        The noisy implementation (circuit with channels).
    ideal:
        The unitary specification.
    epsilon:
        When given, stop as soon as the partial sum exceeds ``1 - epsilon``
        (the result is then flagged as a lower bound unless all terms were
        computed anyway).
    backend:
        A registered backend name (``"einsum"``, the default
        :data:`~repro.backends.DEFAULT_BACKEND`; ``"tdd"`` for the
        paper's node counts; ``"dense"``, …, built with default plan
        knobs) or a ready
        :class:`~repro.backends.ContractionBackend` instance, e.g. the
        shared engine of a :class:`~repro.core.session.CheckSession`.
        Plan, batching and sharing knobs live on the instance: terms run
        in chunks of at most its ``effective_slice_batch``, and Table
        II's 'Ori.' column is ``get_backend("tdd",
        share_computed_table=False)``.  A backend's slice executor, if
        any, spreads each memory-sliced term over its workers.
    use_local_optimisations:
        Shrink the channel-bearing miter once for all terms
        (:func:`~repro.core.miter.shrink_miter`, then
        :func:`~repro.core.miter.fuse_gates`).  The paper's table
        scripts turn it off, so they contract the paper's networks.
    dominant_first:
        Enumerate Kraus selections largest-norm-first.
    max_terms:
        Hard cap on the number of terms contracted; if reached before the
        sum completes (and no early stop fired), the result is a lower
        bound.
    time_budget_seconds:
        Wall-clock budget; enumeration stops once exceeded and the result
        is flagged ``timed_out`` (used by the Table I harness's 'TO'
        rows).  Chunks are sized to the terms that fit the remaining
        budget at the measured seconds per term, so the budget bounds
        wall time to within about one term.
    """
    if epsilon is not None and not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    engine = resolve_backend(backend)
    dim = 2**ideal.num_qubits
    target = None if epsilon is None else (1.0 - epsilon) * dim * dim

    stats = RunStats(
        algorithm="alg1",
        backend=engine.name,
        device=getattr(engine, "resolved_device", None) or "cpu",
        terms_total=noisy.num_kraus_terms,
        term_times=TermTimes(),
    )
    start = time.perf_counter()

    def plan_terms(network) -> MiterTemplate:
        template = Alg1Template(network)
        term_plan = engine.plan_for(template.representative())
        return MiterTemplate(
            network, template.sliced_plan(term_plan), term_plan
        )

    network, template = memoised_miter(
        engine, "alg1", noisy, ideal, use_local_optimisations,
        build=lambda: alg1_template(
            noisy, ideal,
            dominant_first=dominant_first,
            use_local_optimisations=use_local_optimisations,
        ).network,
        plan=plan_terms,
        site_data=lambda: noise_site_data(
            noisy,
            lambda channel: kraus_stack(
                channel.kraus_operators, dominant_first
            ),
        ),
    )
    plan, term_plan = template.plan, template.term_plan
    per_term = term_plan.num_slices()  # memory slices of one term
    # A slice executor spreads each term's memory slices over its
    # workers, so it gets one term per chunk.
    executor = engine.executor if per_term > 1 else None
    batch = (
        per_term if executor is not None
        else engine.effective_slice_batch(plan)
    )

    def grant(done: int) -> int:
        """How many terms the chunks from term ``done`` on may cover."""
        if max_terms is not None and done >= max_terms:
            return 0
        elapsed = time.perf_counter() - start
        if time_budget_seconds is not None and elapsed > time_budget_seconds:
            stats.timed_out = True
            return 0
        if done == 0:
            return 1  # the dominant term alone: an early stop costs one
        terms = min(max(1, batch // per_term), stats.terms_total - done)
        if max_terms is not None:
            terms = min(terms, max_terms - done)
        if time_budget_seconds is not None:
            seconds = (time.perf_counter() - loop_start) / done  # per term
            fit = int((time_budget_seconds - elapsed) / max(seconds, 1e-9))
            terms = min(terms, max(1, fit))
        return terms

    def chunks() -> Iterator[list]:
        """Slice chunks, whole terms at a time (or one term in pieces).

        Pulled lazily by the execution core, so each grant sees the
        terms and times of every chunk before it.
        """
        assignments = iter_slice_assignments(plan)
        position = limit = 0
        while position < plan.num_slices():
            if position == limit:
                terms = grant(position // per_term)
                if not terms:
                    return
                limit = position + terms * per_term
            size = min(batch, limit - position)
            position += size
            yield list(itertools.islice(assignments, size))

    def term_traces(values: Iterator[np.ndarray]) -> Iterator[np.ndarray]:
        """Each chunk's completed terms: its slice values summed per term."""
        with closing(values):
            pending = np.zeros(0, dtype=complex)  # the open term's slices
            for chunk_values in values:
                pending = np.concatenate((pending, chunk_values))
                whole = len(pending) - len(pending) % per_term
                yield pending[:whole].reshape(-1, per_term).sum(axis=1)
                pending = pending[whole:]

    cstats = ContractionStats()
    if executor is None:
        runs = term_traces(
            engine.execute_chunks(
                network, plan, chunks(), cstats, fold=template.fold
            )
        )
    else:
        runs = (
            np.array([executor.contract(
                engine, network, plan, cstats, assignments=chunk
            )])
            for chunk in chunks()
        )
    total = 0.0
    chunks_run = 0
    # One aggregate span for the whole check — per-term spans would add
    # thousands of records and real overhead to exactly the loop this
    # tracer exists to keep honest.
    with _trace.span(
        "alg1.terms", terms_total=stats.terms_total
    ) as terms_span, closing(runs):
        loop_start = mark = time.perf_counter()
        for traces in runs:
            chunks_run += 1
            if not len(traces):
                continue  # a piece of a term bigger than one chunk
            now = time.perf_counter()
            # amortised: the chunk's wall time split over its terms
            stats.term_times.add_run((now - mark) / len(traces), len(traces))
            mark = now
            stats.terms_computed += len(traces)
            total += float(np.sum(np.abs(traces) ** 2))
            if target is not None and total > target:
                stats.early_stopped = True
                break
        terms_span.set(
            terms_computed=stats.terms_computed,
            early_stopped=stats.early_stopped,
            chunks=chunks_run,
        )

    if stats.terms_computed:
        stats.predicted_cost = term_plan.total_cost() * stats.terms_computed
        stats.predicted_peak_size = plan.peak_size()
        stats.slice_count = per_term
    stats.max_nodes = cstats.max_nodes
    stats.max_intermediate_size = cstats.max_intermediate_size
    stats.batched_slice_calls = cstats.batched_slice_calls
    stats.time_seconds = time.perf_counter() - start
    return FidelityResult(
        fidelity=min(total / (dim * dim), 1.0),
        is_lower_bound=stats.terms_computed < stats.terms_total,
        stats=stats,
    )
