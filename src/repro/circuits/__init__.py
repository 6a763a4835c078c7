"""Circuit IR: instructions, circuits, QASM I/O, optimisations."""

from .circuit import QuantumCircuit
from .draw import draw
from .instruction import Instruction, is_channel
from .passes import (
    cancel_adjacent_gates,
    cancel_on_wire_stacks,
    eliminate_final_swaps,
    permutation_matrix,
)

__all__ = [
    "Instruction",
    "QuantumCircuit",
    "cancel_adjacent_gates",
    "cancel_on_wire_stacks",
    "draw",
    "eliminate_final_swaps",
    "is_channel",
    "permutation_matrix",
]
