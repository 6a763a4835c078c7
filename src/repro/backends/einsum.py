"""The array kernel: one contraction kernel for every array library.

Each pairwise step of the shared
:class:`~repro.tensornet.planner.ContractionPlan` is one call against an
:class:`~repro.backends.xp.ArrayNamespace` — numpy for ``einsum``,
torch or cupy for ``einsum-torch`` / ``einsum-cupy``.  Steps are
lowered once per plan digest (:func:`repro.backends.xp.compile_plan`):
large plain matrix products run as ``tensordot`` (BLAS), every other
step as an integer-sublist ``einsum``.

Sliced plans run in chunks of ``slice_batch`` assignments: a chunk of
one slice contracts like an unsliced plan, and a longer chunk gains a
leading batch axis on every slice-varying tensor so each plan step
becomes a single batched ``matmul`` (batched einsum when the step is
not a plain matrix product) over the whole chunk — thousands of
Python-level contractions collapse into a handful of kernels, with
``slice_batch × peak intermediate`` bounding memory.  Algorithm I's
Kraus-sliced plans run through the same path.  :class:`EinsumKernel`
is also the dense backend's batched kernel.

The optional-dependency subclasses resolve their namespace at
*construction*: ``get_backend("einsum-torch")`` without torch raises
:class:`~repro.backends.xp.MissingDependencyError` with the install
hint, while the registry entry itself always imports and lists.
"""

from __future__ import annotations

from typing import ClassVar, Optional

import numpy as np

from ..tensornet import ContractionStats
from .base import ContractionBackend, ContractionKernel
from .xp import ArrayNamespace, CompiledStep, resolve_namespace


class EinsumKernel(ContractionKernel):
    """Compiled tensordot/matmul/einsum steps on one array namespace."""

    def __init__(
        self, xp: ArrayNamespace, stats: Optional[ContractionStats]
    ):
        self.xp = xp
        self.stats = stats
        #: slices in the chunk being contracted
        self.batch = 1

    def load(self, applier, chunk):
        self.batch = len(chunk)
        return applier.gather(chunk, self.xp)

    def merge(self, a, b, step: CompiledStep):
        batched = self.batch > 1 and step.out_batched
        if batched and step.matmul is not None:
            merged = step.matmul(self.xp, a, b)
        elif not batched and step.axes is not None:
            merged = self.xp.tensordot(a, b, step.axes)
        else:
            lhs_subs, rhs_subs, out_subs = (
                step.batched_subscripts if batched else step.subscripts
            )
            merged = self.xp.einsum(
                a, list(lhs_subs), b, list(rhs_subs), list(out_subs)
            )
        stats = self.stats
        if stats is not None:
            # Stats keep their established *per-slice* semantics (the
            # slicing bound and plan.peak_size() are per-slice figures):
            # divide the batch axis back out and drop its rank.  The
            # batch memory multiplier is visible via slice_batch and
            # batched_slice_calls.
            size = self.xp.size_of(merged)
            if batched:
                size //= self.batch
            stats.num_pairwise_contractions += 1
            stats.max_intermediate_rank = max(
                stats.max_intermediate_rank, len(step.subscripts[2])
            )
            stats.max_intermediate_size = max(
                stats.max_intermediate_size, size
            )
        return merged

    def values(self, operand) -> np.ndarray:
        values = self.xp.to_host(operand)
        # A 0-d operand is one slice's value — or, unreachable for
        # circuit networks but kept for plan generality, a final operand
        # no sliced label reached, which every slice of the chunk shares.
        if values.ndim == 0:
            return np.full(self.batch, complex(values))
        return values.reshape(self.batch)


class NumpyEinsumBackend(ContractionBackend):
    """Compiled tensordot/einsum execution of a shared contraction plan."""

    name = "einsum"
    #: array namespace the backend contracts with; subclasses override.
    namespace: ClassVar[str] = "numpy"
    supports_batched_slices = True

    def __init__(self, **options):
        super().__init__(**options)
        # Resolves eagerly: a missing optional library or an impossible
        # device fails here, at construction, with the real reason.
        self.xp = resolve_namespace(self.namespace, self.device)

    @property
    def resolved_device(self) -> str:
        """The device the namespace actually placed the backend on."""
        return self.xp.device

    def kernel(self, network, plan, compiled, stats):
        return EinsumKernel(self.xp, stats)


class TorchEinsumBackend(NumpyEinsumBackend):
    """The same compiled einsum kernels on torch tensors (CPU or CUDA)."""

    name = "einsum-torch"
    namespace = "torch"


class CupyEinsumBackend(NumpyEinsumBackend):
    """The same compiled einsum kernels on cupy arrays (CUDA)."""

    name = "einsum-cupy"
    namespace = "cupy"
