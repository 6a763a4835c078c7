"""Algorithm II: calculate the trace terms collectively.

Contract a single doubled network computing

``sum_i |tr(U† E_i)|^2 = tr((U† (x) U^T) M_E)``

in one pass, regardless of how many noise sites the circuit has.  The
network has twice the qubits of Algorithm I's miters, but there is only
one of it — the trade-off the paper demonstrates in Fig. 7.  When
``p`` changes in a sweep only the ``M_N`` noise tensors change value, so
the network and its plan are memoised per structure
(:func:`~repro.core.miter.memoised_miter`) and a repeat refills them;
on the einsum backends a repeat contracts only the plan steps the noise
tensors reach, the rest being folded into the template once.
"""

from __future__ import annotations

import time
from typing import Union

from .. import trace as _trace
from ..backends import DEFAULT_BACKEND, ContractionBackend, resolve_backend
from ..circuits import QuantumCircuit
from ..tensornet import ContractionStats
from .miter import MiterTemplate, alg2_trace_network, gate_data, memoised_miter
from .stats import FidelityResult, RunStats


def fidelity_collective(
    noisy: QuantumCircuit,
    ideal: QuantumCircuit,
    backend: Union[str, ContractionBackend] = DEFAULT_BACKEND,
    use_local_optimisations: bool = False,
) -> FidelityResult:
    """Jamiolkowski fidelity via one doubled-network contraction.

    Parameters mirror :func:`repro.core.algorithm1.fidelity_individual`
    (there is no epsilon: the single contraction is always exact).
    ``backend`` is a registered name (built with default plan knobs) or a
    ready :class:`~repro.backends.ContractionBackend` instance carrying
    its own planner, ordering and slicing configuration.
    """
    engine = resolve_backend(backend)
    dim = 2**ideal.num_qubits
    stats = RunStats(
        algorithm="alg2",
        backend=engine.name,
        device=getattr(engine, "resolved_device", None) or "cpu",
        terms_total=1,
    )
    start = time.perf_counter()

    network, template = memoised_miter(
        engine, "alg2", noisy, ideal, use_local_optimisations,
        build=lambda: alg2_trace_network(
            noisy, ideal, use_local_optimisations=use_local_optimisations
        ),
        plan=lambda network: MiterTemplate(network, engine.plan_for(network)),
        site_data=lambda: [
            gate_data(inst.operation.matrix_rep())
            for inst in noisy.noise_instructions()
        ],
    )
    cstats = ContractionStats()
    with _trace.span("alg2.contract"):
        value = engine.contract_scalar(
            network, stats=cstats, plan=template.plan, fold=template.fold
        )
    stats.max_nodes = cstats.max_nodes
    stats.max_intermediate_size = cstats.max_intermediate_size
    stats.predicted_cost = cstats.predicted_cost
    stats.predicted_peak_size = cstats.predicted_peak_size
    stats.slice_count = cstats.slice_count
    stats.batched_slice_calls = cstats.batched_slice_calls

    stats.terms_computed = 1
    stats.time_seconds = time.perf_counter() - start
    # The collective trace is a sum of |.|^2 terms: real and non-negative
    # up to float noise.
    fidelity = min(max(value.real / (dim * dim), 0.0), 1.0)
    return FidelityResult(fidelity=fidelity, is_lower_bound=False, stats=stats)
