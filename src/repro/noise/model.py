"""Noise models: policies for turning an ideal circuit into a noisy one.

The paper's experiments "randomly insert some depolarisation noises" into
benchmark circuits; :func:`insert_random_noise` reproduces that workload
generator.  :class:`NoiseModel` additionally supports the realistic
every-gate-suffers-noise regime the paper motivates for Algorithm II.
A :class:`NoisePlacement` separates where the noise goes from which
channel it is, so a sweep over a channel parameter places once.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..circuits import Instruction, QuantumCircuit
from .channels import KrausChannel, depolarizing

ChannelFactory = Callable[[], KrausChannel]


def insert_random_noise(
    circuit: QuantumCircuit,
    num_noises: int,
    channel_factory: ChannelFactory | None = None,
    seed: int | None = None,
) -> QuantumCircuit:
    """Insert ``num_noises`` single-qubit channels at random locations.

    Each insertion picks a uniformly random position in the instruction
    stream and a uniformly random qubit.  The default channel is the
    paper's depolarising noise with ``p = 0.999``.

    Parameters
    ----------
    circuit:
        The ideal circuit (left unmodified; a noisy copy is returned).
    num_noises:
        Number of noise sites to insert (paper's ``k``).
    channel_factory:
        Zero-argument callable producing a fresh single-qubit channel per
        site.
    seed:
        Seed for reproducible insertion positions.
    """
    if num_noises < 0:
        raise ValueError("num_noises must be non-negative")
    factory = channel_factory or (lambda: depolarizing(0.999))
    rng = np.random.default_rng(seed)
    noisy = QuantumCircuit(circuit.num_qubits, f"{circuit.name}_noisy")
    instructions: List[Instruction] = list(circuit.instructions)
    # Choose insertion slots 0..len (before/after any instruction).
    slots = sorted(rng.integers(0, len(instructions) + 1, size=num_noises))
    qubits = rng.integers(0, circuit.num_qubits, size=num_noises)
    slot_map: Dict[int, List[int]] = {}
    for slot, qubit in zip(slots, qubits):
        slot_map.setdefault(int(slot), []).append(int(qubit))
    for idx in range(len(instructions) + 1):
        for qubit in slot_map.get(idx, ()):
            channel = factory()
            if channel.num_qubits != 1:
                raise ValueError("insert_random_noise inserts 1-qubit channels")
            noisy.append(channel, [qubit])
        if idx < len(instructions):
            inst = instructions[idx]
            noisy.append(inst.operation, inst.qubits)
    return noisy


class NoiseModel:
    """Gate-driven noise: attach channels after matching gates.

    This models the NISQ regime where *every* gate suffers some noise —
    the situation in which the paper argues Algorithm II shines.

    Example
    -------
    >>> model = NoiseModel()
    >>> model.add_all_qubit_quantum_error(depolarizing(0.999), ["h", "cx"])
    >>> noisy = model.apply(ideal_circuit)
    """

    def __init__(self) -> None:
        self._gate_errors: Dict[str, ChannelFactory] = {}
        self._default_error: Optional[ChannelFactory] = None

    def add_all_qubit_quantum_error(
        self, channel: KrausChannel | ChannelFactory, gate_names: Sequence[str]
    ) -> "NoiseModel":
        """Attach ``channel`` after every occurrence of the named gates.

        Single-qubit channels are applied to each qubit the gate touches;
        a channel whose width matches the gate is applied to the gate's
        qubit tuple directly.
        """
        factory = _as_factory(channel)
        for name in gate_names:
            self._gate_errors[name] = factory
        return self

    def set_default_error(
        self, channel: KrausChannel | ChannelFactory
    ) -> "NoiseModel":
        """Fallback channel for gates without a specific entry."""
        self._default_error = _as_factory(channel)
        return self

    @property
    def noisy_gate_names(self) -> List[str]:
        """Gate names with attached errors."""
        return sorted(self._gate_errors)

    def apply(self, circuit: QuantumCircuit) -> QuantumCircuit:
        """Return a noisy copy of ``circuit`` under this model."""
        noisy = QuantumCircuit(circuit.num_qubits, f"{circuit.name}_noisy")
        for inst in circuit:
            noisy.append(inst.operation, inst.qubits)
            if not inst.is_unitary:
                continue
            factory = self._gate_errors.get(inst.name, self._default_error)
            if factory is None:
                continue
            channel = factory()
            if channel.num_qubits == len(inst.qubits):
                noisy.append(channel, inst.qubits)
            elif channel.num_qubits == 1:
                noisy.append(channel, inst.qubits[:1])
                for q in inst.qubits[1:]:
                    noisy.append(factory(), [q])
            else:
                raise ValueError(
                    f"channel width {channel.num_qubits} incompatible with "
                    f"gate {inst.name!r} on {len(inst.qubits)} qubits"
                )
        return noisy


def _as_factory(channel: KrausChannel | ChannelFactory) -> ChannelFactory:
    if isinstance(channel, KrausChannel):
        return lambda: channel
    return channel


#: What a placement's sites hold until :meth:`NoisePlacement.fill`.
_UNFILLED = KrausChannel([np.eye(2)], name="unfilled")


class NoisePlacement(NamedTuple):
    """A noisy circuit whose single-qubit noise sites are not filled yet.

    ``circuit`` holds a placeholder channel at each of ``slots``.
    Where the noise sits does not depend on the channel's parameter, so
    a parameter sweep places once and then only fills (:meth:`fill`).
    """

    circuit: QuantumCircuit
    slots: Tuple[int, ...]

    @classmethod
    def random(
        cls, circuit: QuantumCircuit, num_noises: int, seed: int | None = None
    ) -> "NoisePlacement":
        """The sites :func:`insert_random_noise` draws for ``seed``."""
        return cls._of(insert_random_noise(
            circuit, num_noises, channel_factory=lambda: _UNFILLED, seed=seed
        ))

    @classmethod
    def every_gate(cls, circuit: QuantumCircuit) -> "NoisePlacement":
        """One site after every gate on each of its qubits, as a
        :class:`NoiseModel` default single-qubit error places them."""
        model = NoiseModel().set_default_error(_UNFILLED)
        return cls._of(model.apply(circuit))

    @classmethod
    def _of(cls, placed: QuantumCircuit) -> "NoisePlacement":
        return cls(placed, tuple(
            slot for slot in placed.noise_slots()
            if placed[slot].operation is _UNFILLED
        ))

    def fill(self, channel: KrausChannel) -> QuantumCircuit:
        """The noisy circuit with ``channel`` at every site.

        Sites share the one channel object; only the new instructions
        are validated (:meth:`QuantumCircuit.with_channel`).
        """
        return self.circuit.with_channel(channel, self.slots)
