"""The result cache: whole check verdicts keyed by circuit content.

A :class:`ResultCache` adapts a byte store to
:class:`~repro.core.stats.CheckResult` objects keyed by
``(ideal fingerprint, noisy fingerprint, config fingerprint)`` — see
:func:`repro.cache.fingerprint.result_key`.  A hit means the *entire*
check (planning, contraction, verdict) is replaced by one lookup, which
is the dominant win for the repeated traffic a checking service sees.

What may be cached is the caller's policy
(:meth:`repro.core.session.CheckSession.check` refuses to cache
wall-clock-budgeted runs, whose truncation point is nondeterministic);
this adapter only guarantees that damaged or unreadable payloads read
as misses, never exceptions, so corruption degrades to recomputation.
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING, Optional

from .fingerprint import request_fingerprint
from .store import CacheStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..circuits import QuantumCircuit
    from ..core.stats import CheckResult


class ResultCache:
    """Content-addressed cache of :class:`CheckResult` objects."""

    def __init__(self, store: CacheStore):
        self.store = store

    @property
    def directory(self) -> Optional[str]:
        """The backing store's persistent location, if any."""
        return self.store.directory

    def key_for(
        self,
        ideal: "QuantumCircuit",
        noisy: "QuantumCircuit",
        config,
    ) -> str:
        """The store key of one ``(ideal, noisy, config)`` check.

        This is exactly the request fingerprint of
        :func:`repro.cache.fingerprint.request_fingerprint` — the
        result cache is keyed off the request's semantic identity.
        """
        return request_fingerprint(ideal, noisy, config)

    def get(self, key: str) -> Optional["CheckResult"]:
        """The cached result under ``key``, or ``None`` on a miss.

        Every hit deserialises a fresh object, so callers may freely
        mutate the returned result (re-stamp timings, mark counters)
        without corrupting the cached copy.
        """
        payload = self.store.get(key)
        if payload is None:
            return None
        try:
            return pickle.loads(payload)
        except Exception:
            return None

    def put(self, key: str, result: "CheckResult") -> None:
        """Store a computed result under its content key."""
        self.store.put(key, pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
