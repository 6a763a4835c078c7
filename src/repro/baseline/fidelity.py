"""``process_fidelity``: the Qiskit-style dense baseline of Table I.

The baseline path the paper compares against: flatten the ideal circuit
to an :class:`Operator`, the noisy circuit to a dense :class:`SuperOp`,
and compute the fidelity of their (normalised) Choi states.  For a
unitary target this equals the Jamiolkowski fidelity
``F_J = <Phi_U| rho_E |Phi_U>``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..circuits import QuantumCircuit
from ..linalg import COMPLEX, state_fidelity
from .operator import Operator
from .superop import SuperOp


def process_fidelity(
    channel,
    target=None,
    memory_limit_bytes: Optional[int] = None,
) -> float:
    """Fidelity between a channel and a target unitary, densely.

    Parameters
    ----------
    channel:
        A noisy :class:`~repro.circuits.QuantumCircuit` or a
        :class:`SuperOp`.
    target:
        The ideal :class:`~repro.circuits.QuantumCircuit` or
        :class:`Operator`; defaults to the identity.
    memory_limit_bytes:
        Refuse (with :class:`~repro.baseline.superop.MemoryLimitExceeded`)
        instead of allocating past this budget — pass
        ``PAPER_MEMORY_BYTES`` to reproduce the paper's 8 GB envelope.
    """
    if isinstance(channel, QuantumCircuit):
        channel = SuperOp(channel, memory_limit_bytes=memory_limit_bytes)
    if not isinstance(channel, SuperOp):
        raise TypeError("channel must be a QuantumCircuit or SuperOp")
    d = channel.dim

    rho_channel = channel.to_choi(normalised=True)
    if target is None:
        target_matrix = np.eye(d, dtype=COMPLEX)
    elif isinstance(target, QuantumCircuit):
        target_matrix = target.to_matrix()
    elif isinstance(target, Operator):
        target_matrix = target.data
    else:
        target_matrix = np.asarray(target, dtype=COMPLEX)
    if target_matrix.shape != (d, d):
        raise ValueError(
            f"target has shape {target_matrix.shape}, but the "
            f"{channel.num_qubits}-qubit channel needs ({d}, {d})"
        )

    # |Phi_U> = (I (x) U)|Psi>: amplitude U[m, i]/sqrt(d) on |i m>.
    phi = np.transpose(target_matrix).reshape(d * d) / np.sqrt(d)
    value = np.real(np.conjugate(phi) @ rho_channel @ phi)
    return float(min(max(value, 0.0), 1.0))


def process_fidelity_choi(channel, target, **kwargs) -> float:
    """General mixed-Choi path (matches Qiskit for non-unitary targets).

    ``channel`` and ``target`` are each a circuit or a :class:`SuperOp`,
    on the same number of qubits.
    """
    if channel.num_qubits != target.num_qubits:
        raise ValueError(
            f"channel is on {channel.num_qubits} qubits, "
            f"target on {target.num_qubits}"
        )
    if isinstance(channel, QuantumCircuit):
        channel = SuperOp(channel, **kwargs)
    if isinstance(target, QuantumCircuit):
        target = SuperOp(target, **kwargs)
    return state_fidelity(
        channel.to_choi(normalised=True), target.to_choi(normalised=True)
    )


def average_gate_fidelity(
    channel, target=None, memory_limit_bytes: Optional[int] = None
) -> float:
    """Haar-average gate fidelity ``(d F_pro + 1) / (d + 1)``."""
    if isinstance(channel, QuantumCircuit):
        dim = 2**channel.num_qubits
    else:
        dim = channel.dim
    fpro = process_fidelity(
        channel, target, memory_limit_bytes=memory_limit_bytes
    )
    return (dim * fpro + 1.0) / (dim + 1.0)
