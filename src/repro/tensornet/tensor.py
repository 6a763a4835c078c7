"""Dense tensors with named indices.

A :class:`Tensor` wraps an ndarray whose axes are addressed by string
labels.  Two tensors sharing a label are connected by an edge of the
tensor network; a label occurring twice *within* one tensor is a self-loop
and is summed out by :meth:`Tensor.self_trace`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..linalg import COMPLEX


class Tensor:
    """An ndarray with one string label per axis."""

    def __init__(self, data: np.ndarray, indices: Sequence[str]):
        data = np.asarray(data, dtype=COMPLEX)
        indices = tuple(str(i) for i in indices)
        if data.ndim != len(indices):
            raise ValueError(
                f"tensor of rank {data.ndim} given {len(indices)} index labels"
            )
        self.data = data
        self.indices = indices

    @property
    def rank(self) -> int:
        """Number of axes."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of entries."""
        return int(self.data.size)

    def copy(self) -> "Tensor":
        """Deep copy."""
        return Tensor(self.data.copy(), self.indices)

    def conjugate(self) -> "Tensor":
        """Entry-wise complex conjugate, same labels."""
        return Tensor(np.conjugate(self.data), self.indices)

    def relabel(self, mapping: Dict[str, str]) -> "Tensor":
        """Rename indices; duplicates created here become self-loops."""
        return Tensor(self.data, [mapping.get(i, i) for i in self.indices])

    def duplicate_indices(self) -> List[str]:
        """Labels appearing more than once in this tensor."""
        seen, dups = set(), []
        for label in self.indices:
            if label in seen and label not in dups:
                dups.append(label)
            seen.add(label)
        return dups

    def self_trace(self) -> "Tensor":
        """Sum out every label that appears exactly twice in this tensor."""
        tensor = self
        while True:
            dups = tensor.duplicate_indices()
            if not dups:
                return tensor
            label = dups[0]
            axes = [ax for ax, lab in enumerate(tensor.indices) if lab == label]
            if len(axes) != 2:
                raise ValueError(
                    f"index {label!r} appears {len(axes)} times; "
                    "only pairwise self-loops are supported"
                )
            data = np.trace(tensor.data, axis1=axes[0], axis2=axes[1])
            remaining = [
                lab for ax, lab in enumerate(tensor.indices) if ax not in axes
            ]
            tensor = Tensor(data, remaining)

    def contract(self, other: "Tensor") -> "Tensor":
        """Contract with ``other`` over all shared labels.

        Labels must be unique within each operand (call
        :meth:`self_trace` first if not).  Disjoint label sets produce the
        outer product.
        """
        shared = [i for i in self.indices if i in other.indices]
        axes_self = [self.indices.index(i) for i in shared]
        axes_other = [other.indices.index(i) for i in shared]
        data = np.tensordot(self.data, other.data, axes=(axes_self, axes_other))
        rest_self = [i for i in self.indices if i not in shared]
        rest_other = [i for i in other.indices if i not in shared]
        return Tensor(data, rest_self + rest_other)

    def transpose(self, new_order: Sequence[str]) -> "Tensor":
        """Reorder axes to match ``new_order`` (a permutation of labels)."""
        if sorted(new_order) != sorted(self.indices):
            raise ValueError(
                f"{tuple(new_order)} is not a permutation of {self.indices}"
            )
        perm = [self.indices.index(i) for i in new_order]
        return Tensor(np.transpose(self.data, perm), list(new_order))

    def scalar(self) -> complex:
        """The value of a rank-0 tensor."""
        if self.rank != 0:
            raise ValueError(f"tensor still has open indices {self.indices}")
        return complex(self.data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tensor(indices={self.indices}, shape={self.data.shape})"

