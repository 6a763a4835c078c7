"""Tensor Decision Diagrams: canonical DD representation of tensors."""

from .manager import Tdd, TddManager, ensure_recursion_limit
from .node import TERMINAL_VAR, TddNode, count_nodes, round_weight

__all__ = [
    "TERMINAL_VAR",
    "Tdd",
    "TddManager",
    "TddNode",
    "count_nodes",
    "ensure_recursion_limit",
    "round_weight",
]
