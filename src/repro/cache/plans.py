"""The plan cache: contraction plans keyed by network structure.

A :class:`PlanCache` adapts a byte :class:`~repro.cache.store.CacheStore`
to :class:`~repro.tensornet.planner.ContractionPlan` objects under keys
computed once by :func:`repro.cache.fingerprint.plan_key` from
``(structure fingerprint, order_method, max_intermediate_size,
plan_budget_seconds, plan_seed)``, so every process that ever met a
structurally identical network shares the (possibly expensive)
min-fill / budgeted-search planning pass through
the disk tier; searched plans carry their
:class:`~repro.planning.PlanSearchReport` into the cache, so a warm
replica knows how its plan was found without ever re-searching.

The adapter keeps no decoded-object memo of its own: each backend's
plan memo (an LRU capped at
:data:`repro.backends.base.DEFAULT_PLAN_MEMO` plans) answers hot plans
as object hits, so the store is only consulted on the first use of a
structure per backend.

Robustness: a stored payload that fails to unpickle — version skew,
torn write that slipped past the frame check — reads as a miss, never
an exception.
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING, Optional

from .store import CacheStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..tensornet.planner import ContractionPlan


class PlanCache:
    """Content-addressed cache of :class:`ContractionPlan` objects."""

    def __init__(self, store: CacheStore):
        self.store = store
        #: remote tier address this cache was opened with (set by
        #: :meth:`repro.cache.CheckCache.open`); travels in backend
        #: specs so worker processes rebuild the same tier chain
        self.cache_url: Optional[str] = None

    @property
    def directory(self) -> Optional[str]:
        """The backing store's persistent location, if any."""
        return self.store.directory

    @property
    def spec(self):
        """The picklable, hashable rebuild recipe for worker specs.

        The bare directory when the cache is local (the historical
        form), else a ``(directory, cache_url)`` pair — both accepted
        by :func:`repro.backends.base._coerce_plan_cache`.
        """
        if self.cache_url is None:
            return self.directory
        return (self.directory, self.cache_url)

    def get(self, key: str) -> Optional["ContractionPlan"]:
        """The plan stored under ``key``, or ``None`` on a miss."""
        payload = self.store.get(key)
        if payload is None:
            return None
        try:
            return pickle.loads(payload)
        except Exception:
            return None

    def put(self, key: str, plan: "ContractionPlan") -> None:
        """Store a freshly built plan under ``key``."""
        self.store.put(key, pickle.dumps(plan, pickle.HIGHEST_PROTOCOL))
