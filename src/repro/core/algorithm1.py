"""Algorithm I: calculate the trace terms individually.

For every choice of one Kraus operator per noise site, contract the miter
network of ``tr(U† E_i)`` and accumulate ``|tr|^2 / d^2``.  The number of
terms is the product of per-site Kraus counts — exponential in the number
of noises — so the implementation supports:

* **early termination**: with an ``epsilon``, stop as soon as the partial
  sum certifies ``F_J > 1 - epsilon`` (every term is non-negative, so the
  partial sum is a valid lower bound);
* **dominant-first enumeration**: visit selections in decreasing product
  of Kraus Frobenius norms, so the near-identity term comes first and
  early termination fires after one contraction in the common case;
* **shared computed table**: one :class:`~repro.tdd.TddManager` serves all
  the (structurally identical) networks, maximising cache reuse across
  terms — the optimisation the paper evaluates in Table II.
"""

from __future__ import annotations

import itertools
import time
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from .. import trace as _trace
from ..backends import ContractionBackend, resolve_backend
from ..circuits import QuantumCircuit
from ..tensornet import ContractionStats
from .miter import alg1_template, alg1_trace_network, lower_kraus_selection
from .stats import FidelityResult, RunStats


def enumerate_selections(
    noisy: QuantumCircuit, dominant_first: bool = True
) -> Iterator[Tuple[int, ...]]:
    """Yield Kraus selections, optionally largest-norm-first per site.

    With ``dominant_first`` the per-site Kraus indices are sorted by
    decreasing Frobenius norm before taking the Cartesian product, so the
    lexicographically first selection is the dominant (near-identity) one.
    """
    per_site: List[List[int]] = []
    for inst in noisy.noise_instructions():
        ops = inst.operation.kraus_operators
        indices = list(range(len(ops)))
        if dominant_first:
            indices.sort(key=lambda j: -float(np.linalg.norm(ops[j])))
        per_site.append(indices)
    return itertools.product(*per_site)


def fidelity_individual(
    noisy: QuantumCircuit,
    ideal: QuantumCircuit,
    epsilon: Optional[float] = None,
    backend: Union[str, ContractionBackend] = "tdd",
    use_local_optimisations: bool = False,
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
        A registered backend name (``"tdd"``, ``"dense"``, ``"einsum"``,
        …, built with default plan knobs) or a ready
        :class:`~repro.backends.ContractionBackend` instance, e.g. the
        shared engine of a :class:`~repro.core.session.CheckSession`.
        Plan and sharing knobs live on the instance: Table II's 'Ori.'
        column is ``get_backend("tdd", share_computed_table=False)``.
    use_local_optimisations:
        Apply adjacent-gate cancellation and SWAP elimination to each
        miter (excluded from the paper's headline tables for baseline
        parity, but a strict win in practice).
    dominant_first:
        Enumerate Kraus selections largest-norm-first.
    max_terms:
        Hard cap on the number of terms contracted; if reached before the
        sum completes (and no early stop fired), the result is a lower
        bound.
    time_budget_seconds:
        Wall-clock budget; enumeration stops once exceeded and the result
        is flagged ``timed_out`` (used by the Table I harness's 'TO'
        rows).
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
    )
    start = time.perf_counter()

    total = 0.0
    completed = True

    # Template reuse: all trace networks share every tensor except the
    # noise slots, so we build the closed network once and swap tensors
    # per term (disabled under local optimisations, which reshape the
    # network per selection).
    template = None
    template_ids: Optional[set] = None
    if not use_local_optimisations:
        template = alg1_template(noisy, ideal)
        if template is not None:
            template_ids = {id(t) for t in template.network.tensors}

    # One aggregate span for the whole term loop — per-term spans would
    # add thousands of records and real overhead to exactly the loop
    # this tracer exists to keep honest.
    with _trace.span(
        "alg1.terms", terms_total=stats.terms_total
    ) as terms_span:
        for selection in enumerate_selections(
            noisy, dominant_first=dominant_first
        ):
            if max_terms is not None and stats.terms_computed >= max_terms:
                completed = False
                break
            if (
                time_budget_seconds is not None
                and time.perf_counter() - start > time_budget_seconds
            ):
                stats.timed_out = True
                completed = False
                break
            term_start = time.perf_counter()
            if template is not None:
                network = template.instantiate(selection)
            else:
                lowered = lower_kraus_selection(noisy, selection)
                network = alg1_trace_network(
                    lowered, ideal,
                    use_local_optimisations=use_local_optimisations,
                )
            cstats = ContractionStats()
            trace = engine.contract_scalar(
                network, stats=cstats, cacheable_tensor_ids=template_ids
            )
            stats.max_nodes = max(stats.max_nodes, cstats.max_nodes)
            stats.max_intermediate_size = max(
                stats.max_intermediate_size, cstats.max_intermediate_size
            )
            stats.predicted_cost += cstats.predicted_cost
            stats.predicted_peak_size = max(
                stats.predicted_peak_size, cstats.predicted_peak_size
            )
            stats.slice_count = max(stats.slice_count, cstats.slice_count)
            stats.batched_slice_calls += cstats.batched_slice_calls
            total += abs(trace) ** 2
            stats.terms_computed += 1
            stats.term_times.append(time.perf_counter() - term_start)
            if target is not None and total > target:
                stats.early_stopped = True
                completed = stats.terms_computed == stats.terms_total
                break
        terms_span.set(
            terms_computed=stats.terms_computed,
            early_stopped=stats.early_stopped,
        )

    stats.time_seconds = time.perf_counter() - start
    fidelity = min(total / (dim * dim), 1.0)
    return FidelityResult(
        fidelity=fidelity,
        is_lower_bound=not completed or (
            stats.early_stopped and stats.terms_computed < stats.terms_total
        ),
        stats=stats,
    )
