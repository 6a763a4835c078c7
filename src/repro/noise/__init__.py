"""Noise channels, noise models and channel-representation conversions."""

from .channels import (
    KrausChannel,
    amplitude_damping,
    bit_flip,
    bit_phase_flip,
    depolarizing,
    pauli_channel,
    phase_damping,
    phase_flip,
    two_qubit_depolarizing,
    unitary_channel,
)
from .convert import (
    choi_to_kraus,
    kraus_from_superop,
    superop_to_choi,
    thermal_relaxation,
)
from .model import NoiseModel, NoisePlacement, insert_random_noise

__all__ = [
    "KrausChannel",
    "NoiseModel",
    "NoisePlacement",
    "amplitude_damping",
    "bit_flip",
    "bit_phase_flip",
    "choi_to_kraus",
    "kraus_from_superop",
    "superop_to_choi",
    "thermal_relaxation",
    "depolarizing",
    "insert_random_noise",
    "pauli_channel",
    "phase_damping",
    "phase_flip",
    "two_qubit_depolarizing",
    "unitary_channel",
]
