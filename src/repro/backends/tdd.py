"""The TDD contraction backend (the paper's engine of choice).

Wraps :mod:`repro.tdd` behind the :class:`ContractionBackend` protocol and
executes the shared :class:`~repro.tensornet.planner.ContractionPlan`
step-by-step on decision diagrams: the plan's elimination order seeds the
manager's variable order, each pairwise step becomes one ``Tdd.contract``
over the step's eliminated labels, and sliced plans contract index-fixed
subnetworks whose decision diagrams are correspondingly narrower.

One :class:`~repro.tdd.TddManager` lives for the lifetime of the backend
instance, so its computed tables stay warm across trace terms *and*
across circuit pairs in a batch session — the Sec. IV-C optimisation
generalised from one run to one session.  Within one plan execution,
operands no sliced label reaches are converted once; only the sliced
ones (Algorithm I's Kraus-stacked noise sites) are re-converted per
slice.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..tdd import Tdd, TddManager, ensure_recursion_limit
from ..tensornet import ContractionStats
from .base import ContractionBackend, ContractionKernel
from .xp import CompiledStep


class TddKernel(ContractionKernel):
    """Decision-diagram conversion and contraction, one slice at a time.

    ``manager_for_chunk`` gives each chunk its manager.  Operands that
    no sliced label reaches are converted once per manager and reused by
    every chunk it serves; sliced ones (Algorithm I's Kraus-stacked
    noise sites, memory-sliced tensors) are converted per chunk.
    """

    def __init__(
        self,
        manager_for_chunk: Callable[[], TddManager],
        varies: Sequence[bool],
        stats: Optional[ContractionStats],
    ):
        self.manager_for_chunk = manager_for_chunk
        self.manager: Optional[TddManager] = None
        self.varies = varies
        self.stats = stats
        #: operand position -> its conversion, for slice-invariant operands
        self.invariant: Dict[int, Tdd] = {}

    def load(self, applier, chunk) -> List[Tdd]:
        manager = self.manager_for_chunk()
        if manager is not self.manager:
            self.manager = manager
            self.invariant.clear()
        ops: List[Tdd] = []
        for position, (data, labels, varies) in enumerate(
            zip(applier.gather(chunk), applier.labels, self.varies)
        ):
            converted = None if varies else self.invariant.get(position)
            if converted is None:
                converted = self.manager.from_array(data, labels)
                if not varies:
                    self.invariant[position] = converted
            _observe(self.stats, converted)
            ops.append(converted)
        return ops

    def merge(self, a: Tdd, b: Tdd, step: CompiledStep) -> Tdd:
        merged = a.contract(b, step.eliminated)
        _observe(self.stats, merged)
        return merged

    def values(self, operand: Tdd) -> np.ndarray:
        return np.array([operand.scalar()])


class TddBackend(ContractionBackend):
    """Contraction on Tensor Decision Diagrams.

    With ``share_computed_table`` (the default) one manager — and hence
    one set of computed tables — serves every contraction; switching it
    off reproduces the paper's Table II 'Ori.' column by giving each
    chunk (for Algorithm I, each trace term) a cold manager.
    """

    name = "tdd"

    def __init__(self, **options):
        device = options.get("device")
        if device not in (None, "cpu"):
            raise ValueError(
                f"the tdd backend runs on the host CPU only, got "
                f"device={device!r}; use 'einsum-torch'/'einsum-cupy' "
                "for accelerator devices"
            )
        # slice_batch is accepted-but-inert: decision diagrams contract
        # one index-fixed subnetwork at a time (supports_batched_slices
        # stays False).
        super().__init__(**options)
        self._manager: Optional[TddManager] = None

    @property
    def manager(self) -> Optional[TddManager]:
        """The shared manager (None until the first contraction)."""
        return self._manager

    def kernel(self, network, plan, compiled, stats):
        ensure_recursion_limit()
        if not self.share_computed_table:
            # The ablation ('Ori.') mode orders every cold manager by
            # *this* plan — a shared manager's accumulated order would
            # skew node counts on later networks.
            def cold_manager() -> TddManager:
                manager = TddManager(list(plan.order))
                manager.extend_order(network.all_indices())
                return manager

            return TddKernel(cold_manager, compiled.input_batched, stats)
        if self._manager is None:
            self._manager = TddManager(list(plan.order))
        self._manager.extend_order(network.all_indices())
        shared = self._manager
        return TddKernel(lambda: shared, compiled.input_batched, stats)

    def reset(self) -> None:
        super().reset()
        self._manager = None


def _observe(stats: Optional[ContractionStats], tdd: Tdd) -> None:
    """Track the peak node count (the paper's 'nodes' column)."""
    if stats is not None:
        stats.max_nodes = max(stats.max_nodes, tdd.num_nodes())
