"""Circuit instructions: an operation applied to specific qubits.

An instruction's ``operation`` is either a :class:`repro.gates.Gate`
(unitary) or a noise channel from :mod:`repro.noise` (any object exposing
``name``, ``num_qubits`` and ``kraus_operators``).  Keeping both in one
instruction stream is what makes a *noisy circuit* a first-class citizen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..gates import Gate


def is_channel(operation) -> bool:
    """True if ``operation`` is a (possibly non-unitary) Kraus channel."""
    return hasattr(operation, "kraus_operators") and not isinstance(operation, Gate)


@dataclass(frozen=True)
class Instruction:
    """One operation bound to a tuple of qubit indices."""

    operation: object
    qubits: Tuple[int, ...]

    def __post_init__(self) -> None:
        qubits = tuple(map(int, self.qubits))
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubits in instruction: {qubits}")
        if qubits and min(qubits) < 0:
            raise ValueError(f"negative qubit index in {qubits}")
        expected = getattr(self.operation, "num_qubits", None)
        if expected is not None and expected != len(qubits):
            raise ValueError(
                f"operation {self.name!r} acts on {expected} qubits, "
                f"got {len(qubits)} indices"
            )
        object.__setattr__(self, "qubits", qubits)

    @property
    def name(self) -> str:
        """Name of the underlying operation."""
        return getattr(self.operation, "name", type(self.operation).__name__)

    @property
    def is_unitary(self) -> bool:
        """Whether this instruction is a plain unitary gate."""
        return isinstance(self.operation, Gate)

    @property
    def is_noise(self) -> bool:
        """Whether this instruction is a noise channel."""
        return is_channel(self.operation)

    @property
    def num_kraus(self) -> int:
        """Number of Kraus operators (1 for a unitary gate)."""
        if self.is_noise:
            return len(self.operation.kraus_operators)
        return 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Instruction({self.name} @ {self.qubits})"
