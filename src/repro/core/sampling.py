"""Sampled fidelity estimation — the paper's "future work" extension.

The conclusion of the paper proposes "select[ing] a small subset of trace
terms to efficiently approximate the fidelity computation in Alg. I".
For *mixed-unitary* noise (every Kraus operator is a scaled unitary,
``N_k = sqrt(w_k) V_k`` — true of all Pauli-type channels including the
experiments' depolarising noise), the trace sum is exactly an expectation:

``F_J = E_{i ~ w}[ |tr(U† V_i)|² / d² ]``

where each site's index is drawn independently with probability ``w_k``
and ``V_i`` is the circuit with the sampled *unitary* Kraus parts plugged
in.  Each sample lies in [0, 1], so a Hoeffding bound gives a rigorous
confidence radius after ``m`` samples.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from ..backends import DEFAULT_BACKEND, ContractionBackend, resolve_backend
from ..circuits import QuantumCircuit
from ..gates import Gate
from ..linalg import dagger
from ..tensornet import ContractionStats
from .miter import alg1_trace_network
from .stats import RunStats


@dataclass
class SampledFidelityResult:
    """Monte-Carlo estimate of the Jamiolkowski fidelity."""

    estimate: float
    #: Hoeffding half-width at the requested confidence level.
    confidence_radius: float
    confidence_level: float
    num_samples: int
    stats: RunStats = field(default_factory=RunStats)

    @property
    def lower(self) -> float:
        """Lower end of the confidence interval (clamped to [0, 1])."""
        return max(0.0, self.estimate - self.confidence_radius)

    @property
    def upper(self) -> float:
        """Upper end of the confidence interval (clamped to [0, 1])."""
        return min(1.0, self.estimate + self.confidence_radius)


def mixed_unitary_decomposition(channel) -> Optional[List[tuple]]:
    """Decompose a channel as ``{(w_k, V_k)}`` with unitary ``V_k``.

    Returns None when the channel is not mixed-unitary (e.g. amplitude
    damping), in which case sampling does not apply.
    """
    pairs = []
    for op in channel.kraus_operators:
        weight = float(np.real(np.trace(dagger(op) @ op))) / op.shape[0]
        if weight <= 1e-14:
            pairs.append((0.0, np.eye(op.shape[0], dtype=complex)))
            continue
        unitary = op / math.sqrt(weight)
        if not np.allclose(
            unitary @ dagger(unitary), np.eye(op.shape[0]), atol=1e-8
        ):
            return None
        pairs.append((weight, unitary))
    total = sum(w for w, _ in pairs)
    if not math.isclose(total, 1.0, abs_tol=1e-8):
        return None
    return pairs


def fidelity_sampled(
    noisy: QuantumCircuit,
    ideal: QuantumCircuit,
    num_samples: int = 200,
    confidence_level: float = 0.95,
    seed: Optional[int] = None,
    backend: Union[str, ContractionBackend] = DEFAULT_BACKEND,
) -> SampledFidelityResult:
    """Estimate ``F_J`` by sampling Kraus selections (mixed-unitary noise).

    ``backend`` is a registered backend name (built with defaults) or a
    ready :class:`~repro.backends.ContractionBackend` instance; every
    sample's miter shares one structure, so the plan is built once.
    Raises ``ValueError`` if any noise site is not mixed-unitary.
    """
    if num_samples < 1:
        raise ValueError("need at least one sample")
    sites = []
    for inst in noisy.noise_instructions():
        pairs = mixed_unitary_decomposition(inst.operation)
        if pairs is None:
            raise ValueError(
                f"channel {inst.name!r} is not mixed-unitary; "
                "fidelity_sampled only applies to random-unitary noise"
            )
        sites.append(pairs)

    engine = resolve_backend(backend)
    rng = np.random.default_rng(seed)
    dim = 2**ideal.num_qubits
    stats = RunStats(algorithm="alg1_sampled", backend=engine.name,
                     terms_total=noisy.num_kraus_terms)
    start = time.perf_counter()

    values = []
    for _ in range(num_samples):
        selection = tuple(
            int(rng.choice(len(pairs), p=[w for w, _ in pairs]))
            for pairs in sites
        )
        sampled = _plug_unitaries(noisy, sites, selection)
        cstats = ContractionStats()
        trace = engine.contract_scalar(
            alg1_trace_network(sampled, ideal), stats=cstats
        )
        stats.max_nodes = max(stats.max_nodes, cstats.max_nodes)
        values.append(min(abs(trace) ** 2 / dim**2, 1.0))
        stats.terms_computed += 1

    stats.time_seconds = time.perf_counter() - start
    estimate = float(np.mean(values))
    # Hoeffding: P(|mean - E| >= r) <= 2 exp(-2 m r^2).
    delta = 1.0 - confidence_level
    radius = math.sqrt(math.log(2.0 / delta) / (2.0 * num_samples))
    return SampledFidelityResult(
        estimate=estimate,
        confidence_radius=radius,
        confidence_level=confidence_level,
        num_samples=num_samples,
        stats=stats,
    )


def _plug_unitaries(
    noisy: QuantumCircuit, sites: List[List[tuple]], selection: tuple
) -> QuantumCircuit:
    """Replace each channel with the sampled (unit-weight) unitary part."""
    out = QuantumCircuit(noisy.num_qubits, f"{noisy.name}_sample")
    site = 0
    for inst in noisy:
        if inst.is_noise:
            _, unitary = sites[site][selection[site]]
            out.append(Gate(f"sample{site}", unitary), inst.qubits)
            site += 1
        else:
            out.append(inst.operation, inst.qubits)
    return out
