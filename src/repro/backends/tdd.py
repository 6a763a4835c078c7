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
generalised from one run to one session.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..tdd import Tdd, TddManager, ensure_recursion_limit
from ..tensornet import ContractionStats, Tensor
from .base import ContractionBackend, ContractionKernel
from .xp import CompiledStep


class TddKernel(ContractionKernel):
    """Decision-diagram conversion and contraction, one slice at a time.

    ``sources`` are the network's tensors (the identity keys of the
    conversion ``cache``); ``cacheable`` are the ids the caller shares
    with future calls — the only ones the cache may keep.
    """

    def __init__(
        self,
        manager: TddManager,
        sources: List[Tensor],
        stats: Optional[ContractionStats],
        cache: Optional[Dict[int, tuple]],
        cacheable: Optional[Set[int]],
    ):
        self.manager = manager
        self.sources = sources
        self.stats = stats
        self.cache = cache
        self.cacheable = cacheable

    def load(self, applier, chunk) -> List[Tdd]:
        cache = self.cache
        ops: List[Tdd] = []
        for source, data, labels in zip(
            self.sources, applier.gather(chunk), applier.labels
        ):
            converted = None
            if cache is not None:
                entry = cache.get(id(source))
                if entry is not None and entry[0] is source:
                    converted = entry[1]
            if converted is None:
                converted = self.manager.from_array(data, labels)
                if cache is not None and id(source) in self.cacheable:
                    cache[id(source)] = (source, converted)
            _observe(self.stats, converted)
            ops.append(converted)
        return ops

    def merge(self, a: Tdd, b: Tdd, step: CompiledStep) -> Tdd:
        merged = a.contract(b, step.eliminated)
        _observe(self.stats, merged)
        return merged

    def scalar(self, operand: Tdd) -> complex:
        return operand.scalar()


class TddBackend(ContractionBackend):
    """Contraction on Tensor Decision Diagrams.

    With ``share_computed_table`` (the default) one manager — and hence
    one set of computed tables — serves every contraction; switching it
    off reproduces the paper's Table II 'Ori.' column by giving each
    contraction a cold manager.
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
        #: id(tensor) -> (tensor, Tdd); entries survive only for tensors
        #: the caller declared shareable (Algorithm I template slots).
        self._conversion_cache: dict = {}

    @property
    def manager(self) -> Optional[TddManager]:
        """The shared manager (None until the first contraction)."""
        return self._manager

    def kernel(self, network, plan, compiled, stats, cacheable_tensor_ids):
        ensure_recursion_limit()
        if self.share_computed_table:
            if self._manager is None:
                self._manager = TddManager(list(plan.order))
            self._manager.extend_order(network.all_indices())
            manager = self._manager
        else:
            # The ablation ('Ori.') mode gives every contraction a cold
            # manager ordered by *its own* plan — a shared manager's
            # accumulated order would skew node counts on later networks.
            manager = TddManager(list(plan.order))
            manager.extend_order(network.all_indices())
        # Conversion caching keys on tensor identity, which a slice
        # assignment would silently violate — sliced runs always convert.
        cache = None
        if (
            self.share_computed_table
            and cacheable_tensor_ids is not None
            and not plan.slices
        ):
            cache = self._conversion_cache
            # Per-term tensors die with their term; only tensors shared
            # by identity with this and future calls may pin memory.
            for key in list(cache):
                if key not in cacheable_tensor_ids:
                    del cache[key]
        elif self._conversion_cache:
            # No tensor sharing this call: release the previous run's
            # template entries instead of pinning them for the session.
            self._conversion_cache.clear()
        return TddKernel(
            manager, network.tensors, stats, cache, cacheable_tensor_ids
        )

    def reset(self) -> None:
        super().reset()
        self._manager = None
        self._conversion_cache.clear()


def _observe(stats: Optional[ContractionStats], tdd: Tdd) -> None:
    """Track the peak node count (the paper's 'nodes' column)."""
    if stats is not None:
        stats.max_nodes = max(stats.max_nodes, tdd.num_nodes())
