"""The dense ndarray contraction backend.

Pairwise ``np.tensordot`` contraction of :class:`Tensor` operands along a
shared :class:`~repro.tensornet.planner.ContractionPlan`.  Memory scales
with the largest intermediate tensor — bounded via the backend's
``max_intermediate_size`` slicing knob — and this engine serves as the
reference implementation for cross-backend tests.

Sliced plans batch by default: slice assignments are chunked and each
multi-slice chunk contracts through the einsum backend's batched kernel
(batched matmul or einsum over a leading batch axis).  One-slice chunks —
unsliced plans, and every chunk under ``slice_batch=1`` — use
:meth:`Tensor.contract`, the reference the property tests pin the
batched path against.  Like the einsum kernel's, its contraction stats
are the plan's static per-slice figures.
"""

from __future__ import annotations

import numpy as np

from ..tensornet import Tensor
from .base import ContractionBackend
from .einsum import EinsumKernel
from .xp import CompiledStep, resolve_namespace


class DenseKernel(EinsumKernel):
    """Tensordot for one-slice chunks, batched einsum for longer ones."""

    def load(self, applier, chunk):
        operands = super().load(applier, chunk)
        if self.batch > 1:
            return operands
        # Operands without sliced axes are their self-traced tensor's
        # data: reuse that tensor instead of wrapping it again.
        return [
            tensor if data is tensor.data else Tensor(data, labels)
            for tensor, data, labels in zip(
                applier.flat, operands, applier.labels
            )
        ]

    def merge(self, a, b, step: CompiledStep):
        if self.batch > 1:
            return super().merge(a, b, step)
        return a.contract(b)

    def values(self, operand) -> np.ndarray:
        if self.batch > 1:
            return super().values(operand)
        return np.array([operand.scalar()])


class DenseBackend(ContractionBackend):
    """Dense pairwise tensordot contraction along a plan."""

    name = "dense"
    supports_batched_slices = True

    def __init__(self, **options):
        super().__init__(**options)
        # Dense is host-numpy by construction; the namespace both
        # validates the device knob (cpu only) and powers the batched
        # sliced path.
        self.xp = resolve_namespace("numpy", self.device)

    @property
    def resolved_device(self) -> str:
        return self.xp.device

    def kernel(self, network, plan, compiled, stats):
        return DenseKernel(self.xp)
