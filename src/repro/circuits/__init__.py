"""Circuit IR: instructions, circuits, QASM I/O, the cancellation pass."""

from .circuit import QuantumCircuit
from .instruction import Instruction, is_channel
from .passes import cancel_on_wire_stacks

__all__ = [
    "Instruction",
    "QuantumCircuit",
    "cancel_on_wire_stacks",
    "is_channel",
]
