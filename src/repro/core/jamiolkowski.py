"""Jamiolkowski fidelity: the paper's trace formula and derived metrics.

``F_J(E, U) = F(rho_E, rho_U) = (1/d^2) sum_i |tr(U† E_i)|^2``

The scalable computations live in :mod:`repro.core.algorithm1` and
:mod:`repro.core.algorithm2`; the one dense reference is
:func:`repro.baseline.process_fidelity`.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from ..linalg import COMPLEX, dagger


def fidelity_from_traces(traces: Iterable[complex], dim: int) -> float:
    """``(1/d^2) sum_i |t_i|^2`` for precomputed traces ``t_i = tr(U† E_i)``."""
    total = sum(abs(t) ** 2 for t in traces)
    return float(total / dim**2)


def jamiolkowski_fidelity_kraus(
    kraus_operators: Sequence[np.ndarray], unitary: np.ndarray
) -> float:
    """Fidelity of a channel (as Kraus operators) against a unitary."""
    unitary = np.asarray(unitary, dtype=COMPLEX)
    dim = unitary.shape[0]
    udg = dagger(unitary)
    return fidelity_from_traces(
        (np.trace(udg @ np.asarray(op, dtype=COMPLEX)) for op in kraus_operators),
        dim,
    )


def average_fidelity_from_jamiolkowski(fidelity_j: float, dim: int) -> float:
    """Haar-average output fidelity ``(d F_J + 1) / (d + 1)``.

    This is the physical interpretation the paper gives: the expected
    fidelity between ``E(psi)`` and ``U|psi>`` over random pure inputs.
    """
    return (dim * fidelity_j + 1.0) / (dim + 1.0)


def jamiolkowski_distance(fidelity_j: float) -> float:
    """The metric ``C_J = sqrt(1 - F_J)`` with the chaining property."""
    return math.sqrt(max(0.0, 1.0 - fidelity_j))
