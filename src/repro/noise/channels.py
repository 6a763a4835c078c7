"""Kraus channels and the canonical noise zoo from the paper's Example 2.

A :class:`KrausChannel` models a super-operator ``E(rho) = sum_i K_i rho K_i†``
with the completeness condition ``sum_i K_i† K_i = I``.  Parameterisation
follows the paper: e.g. a *bit flip* with parameter ``p`` keeps the state
with probability ``p`` and applies X with probability ``1 - p``, so the
experiments' "p = 0.999" is a 0.1% error rate.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from ..gates.standard import I_MATRIX, X_MATRIX, Y_MATRIX, Z_MATRIX
from ..linalg import COMPLEX, dagger, num_qubits_of


class KrausChannel:
    """A CPTP map in Kraus operator-sum form."""

    def __init__(
        self,
        kraus_operators: Sequence[np.ndarray],
        name: str = "kraus",
        validate: bool = True,
        atol: float = 1e-8,
    ):
        if not kraus_operators:
            raise ValueError("a channel needs at least one Kraus operator")
        ops = [np.asarray(op, dtype=COMPLEX) for op in kraus_operators]
        dim = ops[0].shape[0]
        for op in ops:
            if op.ndim != 2 or op.shape != (dim, dim):
                raise ValueError(
                    f"all Kraus operators must be {dim}x{dim}, got {op.shape}"
                )
        self._ops = ops
        self.name = name
        self.num_qubits = num_qubits_of(ops[0])
        if validate and not self.is_cptp(atol=atol):
            raise ValueError(
                f"Kraus operators of {name!r} violate sum_i K† K = I"
            )

    # --- basic views ---------------------------------------------------------

    @property
    def kraus_operators(self) -> List[np.ndarray]:
        """The Kraus operators (copy of the list; arrays shared)."""
        return list(self._ops)

    @property
    def num_kraus(self) -> int:
        """Number of Kraus operators."""
        return len(self._ops)

    @property
    def dim(self) -> int:
        """Hilbert-space dimension the channel acts on."""
        return self._ops[0].shape[0]

    def is_cptp(self, atol: float = 1e-8) -> bool:
        """Check the completeness relation (trace preservation).

        The test is ``np.allclose(sum_i K_i† K_i, I, atol=atol)`` written
        out: on these small matrices allclose's generality costs several
        times the product itself.
        """
        stacked = np.array(self._ops).reshape(-1, self.dim)  # K_i on top
        acc = stacked.conj().T @ stacked  # = sum_i K_i† K_i
        eye = np.eye(self.dim)
        return bool((np.abs(acc - eye) <= atol + 1e-5 * eye).all())

    def is_unitary_channel(self, atol: float = 1e-8) -> bool:
        """True when the channel is a single unitary Kraus operator."""
        if len(self._ops) != 1:
            return False
        op = self._ops[0]
        return bool(np.allclose(op @ dagger(op), np.eye(self.dim), atol=atol))

    # --- semantics -----------------------------------------------------------

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """E(rho) = sum_i K_i rho K_i†."""
        rho = np.asarray(rho, dtype=COMPLEX)
        return sum(op @ rho @ dagger(op) for op in self._ops)

    def matrix_rep(self) -> np.ndarray:
        """The paper's matrix representation ``M_E = sum_i K_i (x) K_i*``.

        This is the 2l-qubit "gate" that replaces an l-qubit noise in
        Algorithm II's doubled circuit (row-stacking vectorisation).
        Every ``K_i (x) K_i*`` is formed elementwise, as ``np.kron`` forms
        it, in one broadcast product; the terms are then summed in Kraus
        order, so the result equals the per-term ``np.kron`` sum bit for
        bit.
        """
        ops = np.stack(self._ops)
        d = self.dim
        products = (
            ops[:, :, None, :, None] * np.conjugate(ops)[:, None, :, None, :]
        )
        return sum(products.reshape(len(self._ops), d * d, d * d))

    def choi_matrix(self, normalised: bool = True) -> np.ndarray:
        """Choi–Jamiolkowski state ``(I (x) E)(|Psi><Psi|)``.

        With ``normalised=True`` the maximally entangled input has trace 1
        (this is the ``rho_E`` of the paper); otherwise the unnormalised
        Choi matrix ``sum_ij |i><j| (x) E(|i><j|)`` is returned.
        """
        d = self.dim
        choi = np.zeros((d * d, d * d), dtype=COMPLEX)
        for op in self._ops:
            # (I (x) K)|Psi> has amplitude K[j, i] on |i j>; build directly.
            amp = np.transpose(op).reshape(d * d)
            choi += np.outer(amp, np.conjugate(amp))
        if normalised:
            choi /= d
        return choi

    # --- structural transforms --------------------------------------------------

    def dagger(self) -> "KrausChannel":
        """The adjoint map {K_i†} (not trace-preserving in general)."""
        return KrausChannel(
            [dagger(op) for op in self._ops], f"{self.name}_dg", validate=False
        )

    def conjugate(self) -> "KrausChannel":
        """The conjugated channel {K_i*}."""
        return KrausChannel(
            [np.conjugate(op) for op in self._ops], f"{self.name}_conj",
            validate=False,
        )

    def tensor(self, other: "KrausChannel") -> "KrausChannel":
        """Parallel composition self (x) other."""
        ops = [
            np.kron(a, b) for a in self._ops for b in other.kraus_operators
        ]
        return KrausChannel(ops, f"{self.name}(x){other.name}", validate=False)

    def compose(self, other: "KrausChannel") -> "KrausChannel":
        """Sequential composition: ``other`` after ``self``."""
        ops = [b @ a for a in self._ops for b in other.kraus_operators]
        return KrausChannel(ops, f"{other.name}o{self.name}", validate=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KrausChannel({self.name!r}, {self.num_qubits}q, "
            f"{self.num_kraus} ops)"
        )


# --- canonical noises (paper Example 2) --------------------------------------


def bit_flip(p: float) -> KrausChannel:
    """Bit flip: keep with probability ``p``, apply X with ``1 - p``."""
    _check_prob(p)
    return KrausChannel(
        [math.sqrt(p) * I_MATRIX, math.sqrt(1 - p) * X_MATRIX], "bit_flip"
    )


def phase_flip(p: float) -> KrausChannel:
    """Phase flip: keep with probability ``p``, apply Z with ``1 - p``."""
    _check_prob(p)
    return KrausChannel(
        [math.sqrt(p) * I_MATRIX, math.sqrt(1 - p) * Z_MATRIX], "phase_flip"
    )


def bit_phase_flip(p: float) -> KrausChannel:
    """Bit-phase flip: keep with probability ``p``, apply Y with ``1 - p``."""
    _check_prob(p)
    return KrausChannel(
        [math.sqrt(p) * I_MATRIX, math.sqrt(1 - p) * Y_MATRIX], "bit_phase_flip"
    )


def depolarizing(p: float) -> KrausChannel:
    """Depolarisation: keep with ``p``, apply X/Y/Z each with ``(1-p)/3``.

    This is the noise used throughout the paper's experiments with
    ``p = 0.999``.
    """
    _check_prob(p)
    q = (1 - p) / 3
    return KrausChannel(
        [
            math.sqrt(p) * I_MATRIX,
            math.sqrt(q) * X_MATRIX,
            math.sqrt(q) * Y_MATRIX,
            math.sqrt(q) * Z_MATRIX,
        ],
        "depolarizing",
    )


def pauli_channel(px: float, py: float, pz: float) -> KrausChannel:
    """General Pauli channel with flip probabilities (px, py, pz)."""
    pi = 1 - px - py - pz
    for val in (pi, px, py, pz):
        if val < -1e-12:
            raise ValueError("Pauli probabilities must sum to at most 1")
    return KrausChannel(
        [
            math.sqrt(max(pi, 0.0)) * I_MATRIX,
            math.sqrt(max(px, 0.0)) * X_MATRIX,
            math.sqrt(max(py, 0.0)) * Y_MATRIX,
            math.sqrt(max(pz, 0.0)) * Z_MATRIX,
        ],
        "pauli",
    )


def amplitude_damping(gamma: float) -> KrausChannel:
    """Amplitude damping (T1 decay) with decay probability ``gamma``."""
    _check_prob(gamma)
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=COMPLEX)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=COMPLEX)
    return KrausChannel([k0, k1], "amplitude_damping")


def phase_damping(gamma: float) -> KrausChannel:
    """Phase damping (pure dephasing) with parameter ``gamma``."""
    _check_prob(gamma)
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=COMPLEX)
    k1 = np.array([[0, 0], [0, math.sqrt(gamma)]], dtype=COMPLEX)
    return KrausChannel([k0, k1], "phase_damping")


def unitary_channel(matrix: np.ndarray, name: str = "unitary") -> KrausChannel:
    """Wrap a unitary as a single-Kraus channel."""
    return KrausChannel([np.asarray(matrix, dtype=COMPLEX)], name)


def two_qubit_depolarizing(p: float) -> KrausChannel:
    """Two-qubit depolarising channel: keep with ``p``, else a uniform
    non-identity two-qubit Pauli (15 terms each with ``(1-p)/15``)."""
    _check_prob(p)
    paulis = [I_MATRIX, X_MATRIX, Y_MATRIX, Z_MATRIX]
    ops = []
    q = (1 - p) / 15
    for a in range(4):
        for b in range(4):
            weight = p if (a == 0 and b == 0) else q
            ops.append(math.sqrt(weight) * np.kron(paulis[a], paulis[b]))
    return KrausChannel(ops, "depolarizing2")


def _check_prob(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability parameter must be in [0, 1], got {p}")
