"""Exact equivalence checking of noiseless circuits.

The classical (pre-noise) problem the paper's related work addresses
[9-14]: are two unitary circuits equal up to a global phase?  With the
machinery already here this is one miter contraction: for n-qubit
unitaries ``|tr(U† V)| = 2^n`` iff ``V = e^{i t} U`` (Cauchy–Schwarz with
equality iff ``U† V`` is a scalar multiple of the identity).

The same trace also yields the *process fidelity between two unitaries*,
``F = |tr(U† V)|^2 / d^2`` — the noiseless specialisation of the
Jamiolkowski fidelity — so near-misses are quantified, not just
rejected.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Union

from ..backends import DEFAULT_BACKEND, ContractionBackend, resolve_backend
from ..circuits import QuantumCircuit
from ..tensornet import ContractionStats
from .miter import alg1_template
from .stats import RunStats


@dataclass
class UnitaryCheckResult:
    """Outcome of an exact unitary-equivalence check."""

    equivalent: bool
    #: |tr(U† V)| / d in [0, 1]; equals 1 iff equivalent up to phase.
    trace_ratio: float
    #: process fidelity |tr(U† V)|^2 / d^2 between the two unitaries
    fidelity: float
    stats: RunStats = field(default_factory=RunStats)


def check_unitary_equivalence(
    circuit_a: QuantumCircuit,
    circuit_b: QuantumCircuit,
    atol: float = 1e-9,
    use_local_optimisations: bool = True,
    backend: Union[str, ContractionBackend] = DEFAULT_BACKEND,
) -> UnitaryCheckResult:
    """Decide whether two noiseless circuits implement the same unitary.

    Builds the reversible miter ``B† A`` on the path every check takes
    (:func:`~repro.core.miter.alg1_template` with no noise sites: one
    closed trace network), contracts it on ``backend`` (a registered
    name or a ready :class:`~repro.backends.ContractionBackend`) and
    tests ``|tr| == d``.  With ``use_local_optimisations`` (the default)
    the miter is shrunk first (:func:`~repro.core.miter.shrink_miter`):
    for equal circuits every gate meets its inverse and nothing is left
    to contract.
    """
    if circuit_a.num_qubits != circuit_b.num_qubits:
        raise ValueError("circuits must have the same number of qubits")
    if not (circuit_a.is_unitary_circuit and circuit_b.is_unitary_circuit):
        raise ValueError(
            "exact checking needs noiseless circuits; use "
            "CheckSession or Engine for noisy ones"
        )
    engine = resolve_backend(backend)
    stats = RunStats(algorithm="unitary_miter", backend=engine.name)
    start = time.perf_counter()

    network = alg1_template(
        circuit_a, circuit_b, use_local_optimisations=use_local_optimisations
    ).network
    cstats = ContractionStats()
    trace = engine.contract_scalar(network, stats=cstats)
    stats.max_nodes = cstats.max_nodes
    stats.terms_computed = 1
    stats.time_seconds = time.perf_counter() - start

    dim = 2**circuit_a.num_qubits
    ratio = min(abs(trace) / dim, 1.0)
    return UnitaryCheckResult(
        equivalent=bool(abs(trace) >= dim * (1.0 - atol)),
        trace_ratio=float(ratio),
        fidelity=float(ratio * ratio),
        stats=stats,
    )

