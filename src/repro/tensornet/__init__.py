"""Tensor-network substrate: tensors, networks, orders and plans."""

from .network import ContractionStats, TensorNetwork
from .planner import (
    DEFAULT_ORDER_METHOD,
    ORDER_METHODS,
    SLICE_HARD_LIMIT,
    ContractionPlan,
    ContractionStep,
    SliceApplier,
    build_plan,
    iter_slice_assignments,
    plan_from_order,
    slice_plan,
)
from .ordering import interaction_graph, min_fill_order
from .tensor import Tensor

__all__ = [
    "DEFAULT_ORDER_METHOD",
    "ORDER_METHODS",
    "SLICE_HARD_LIMIT",
    "ContractionPlan",
    "ContractionStats",
    "ContractionStep",
    "SliceApplier",
    "Tensor",
    "TensorNetwork",
    "build_plan",
    "iter_slice_assignments",
    "plan_from_order",
    "slice_plan",
    "interaction_graph",
    "min_fill_order",
]
