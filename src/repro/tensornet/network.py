"""Tensor networks and the dense contraction engine.

A :class:`TensorNetwork` is a bag of :class:`Tensor` objects; shared index
labels are the edges.  Circuit-derived networks have every label appearing
at most twice, which the pairwise contraction engine relies on (and
asserts).  Contraction follows an *index elimination order* produced by
:mod:`repro.tensornet.ordering`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .tensor import Tensor


@dataclass
class ContractionStats:
    """Bookkeeping collected during one network contraction."""

    num_pairwise_contractions: int = 0
    max_intermediate_rank: int = 0
    max_intermediate_size: int = 0
    #: backend-specific peak (TDD backend stores max node count here)
    max_nodes: int = 0
    #: plan-predicted scalar multiply-adds (all slices; see ContractionPlan)
    predicted_cost: int = 0
    #: plan-predicted peak intermediate size per slice
    predicted_peak_size: int = 0
    #: number of index-fixed subplan executions (1 = unsliced)
    slice_count: int = 0
    #: batched einsum sweeps over slice chunks (0 = looped or unsliced)
    batched_slice_calls: int = 0
    extra: dict = field(default_factory=dict)

    def observe(self, tensor: Tensor) -> None:
        """Record an intermediate tensor."""
        self.num_pairwise_contractions += 1
        self.max_intermediate_rank = max(self.max_intermediate_rank, tensor.rank)
        self.max_intermediate_size = max(self.max_intermediate_size, tensor.size)


class TensorNetwork:
    """A multiset of tensors connected by shared index labels."""

    def __init__(self, tensors: Sequence[Tensor] | None = None):
        self.tensors: List[Tensor] = list(tensors or [])

    def add(self, tensor: Tensor) -> "TensorNetwork":
        """Append a tensor; returns self."""
        self.tensors.append(tensor)
        return self

    def all_indices(self) -> List[str]:
        """All labels in first-occurrence order."""
        seen: Dict[str, None] = {}
        for tensor in self.tensors:
            for label in tensor.indices:
                seen.setdefault(label, None)
        return list(seen)

    def index_degree(self) -> Dict[str, int]:
        """How many tensor axes carry each label."""
        degree: Dict[str, int] = {}
        for tensor in self.tensors:
            for label in tensor.indices:
                degree[label] = degree.get(label, 0) + 1
        return degree

    def open_indices(self) -> List[str]:
        """Labels appearing exactly once (the network's free legs)."""
        degree = self.index_degree()
        return [i for i in self.all_indices() if degree[i] == 1]

    def validate(self) -> None:
        """Check the at-most-twice property the engine relies on."""
        for label, deg in self.index_degree().items():
            if deg > 2:
                raise ValueError(
                    f"index {label!r} appears {deg} times; tensor networks "
                    "from circuits must use each label at most twice"
                )

    def copy(self) -> "TensorNetwork":
        """Shallow copy of the tensor list."""
        return TensorNetwork(list(self.tensors))

    def structure_key(self) -> tuple:
        """Hashable fingerprint of the index structure.

        The per-tensor label tuples capture the full connectivity (which
        tensor carries which index, in which axis order).  Contraction
        backends key their plan memo on it, so structurally identical
        networks (a noise sweep over one placement) plan their
        contraction once while differently-wired networks never share a
        plan.
        """
        return tuple(tensor.indices for tensor in self.tensors)

    # --- contraction -----------------------------------------------------------

    def contract(
        self,
        order: Optional[Sequence[str]] = None,
        stats: Optional[ContractionStats] = None,
    ) -> Tensor:
        """Contract the whole network densely.

        Parameters
        ----------
        order:
            Index elimination order.  Defaults to first-occurrence order.
            Labels missing from ``order`` are eliminated last, open labels
            are kept.
        stats:
            Optional stats collector.

        Returns
        -------
        Tensor
            The contracted result; rank 0 when the network is closed.
        """
        self.validate()
        stats = stats if stats is not None else ContractionStats()
        work = [t.self_trace() for t in self.tensors]
        order = list(order) if order is not None else []
        remaining = [i for i in self.all_indices() if i not in set(order)]
        full_order = order + remaining

        for label in full_order:
            holders = [t for t in work if label in t.indices]
            if not holders:
                continue
            if len(holders) == 1:
                # Either an open leg (kept) or a self-loop created by an
                # earlier merge (already removed by self_trace).
                continue
            a, b = holders
            work.remove(a)
            work.remove(b)
            merged = a.contract(b).self_trace()
            stats.observe(merged)
            work.append(merged)

        # Outer-product whatever is left (disconnected components/scalars).
        result = work[0]
        for tensor in work[1:]:
            result = result.contract(tensor)
            stats.observe(result)
        return result

    def __len__(self) -> int:
        return len(self.tensors)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TensorNetwork({len(self.tensors)} tensors, "
            f"{len(self.all_indices())} indices)"
        )
