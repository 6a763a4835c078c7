"""Circuit IR: instructions, circuits, DAG view, QASM I/O, optimisations."""

from .circuit import QuantumCircuit
from .dag import CircuitDag, DagNode
from .draw import draw
from .instruction import Instruction, is_channel
from .passes import (
    cancel_adjacent_gates,
    eliminate_final_swaps,
    permutation_matrix,
)

__all__ = [
    "CircuitDag",
    "DagNode",
    "Instruction",
    "QuantumCircuit",
    "cancel_adjacent_gates",
    "draw",
    "eliminate_final_swaps",
    "is_channel",
    "permutation_matrix",
]
