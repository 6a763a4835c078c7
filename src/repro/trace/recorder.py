"""Span recording: the write side of :mod:`repro.trace`.

A :class:`Span` is one timed region — name, category, monotonic
start/end nanoseconds, free-form attributes and a parent id.  Code
creates spans through the module-level :func:`span` context manager::

    with trace.span("plan.search", order_method="anneal") as sp:
        ...
        sp.set(trials=ran, best_cost=best)

When no :class:`TraceRecorder` is active (the default), :func:`span`
returns a shared no-op singleton whose ``__enter__``/``__exit__``/
``set`` do nothing — the disabled cost is one ContextVar read per call
site, pinned well under 1% of the warm request path by
``benchmarks/bench_service.py``.

A recorder is installed for the current (possibly async) context with
:func:`recording`; the active recorder is carried by a ``ContextVar``
so concurrent service requests cannot see each other's traces.  One
recorder serves one check: span ids are small ints, the parent chain is
maintained by plain LIFO enter/exit discipline (``with`` statements),
and spans are appended at *begin* time so the list is pre-ordered —
every parent precedes its children.

Worker processes record into their own :class:`TraceRecorder` and ship
``export_records()`` (plain picklable dicts) back inside
``ContractionStats.extra``; the parent folds them in submission order
with :meth:`TraceRecorder.fold`, re-basing the foreign monotonic clock
onto the enclosing dispatch span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

_RECORDER: ContextVar[Optional["TraceRecorder"]] = ContextVar(
    "repro_trace_recorder", default=None
)


@dataclass
class Span:
    """One timed region of a trace (times in ``time.monotonic_ns``)."""

    name: str
    category: str = "repro"
    start_ns: int = 0
    end_ns: int = 0
    span_id: int = 0
    parent_id: Optional[int] = None
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_record(self) -> dict:
        """Plain-dict form: picklable, JSON-able, order-stable."""
        return {
            "name": self.name,
            "category": self.category,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_record(cls, record: dict) -> "Span":
        return cls(
            name=record["name"],
            category=record.get("category", "repro"),
            start_ns=record["start_ns"],
            end_ns=record["end_ns"],
            span_id=record["span_id"],
            parent_id=record.get("parent_id"),
            attributes=dict(record.get("attributes", ())),
        )


class _NoopSpan:
    """The disabled-tracer span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attributes) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()


class _LiveSpan:
    """A span bound to a recorder; enter/exit stamp the clock."""

    __slots__ = ("_recorder", "span")

    def __init__(self, recorder: "TraceRecorder", span: Span):
        self._recorder = recorder
        self.span = span

    def __enter__(self) -> "_LiveSpan":
        self._recorder._begin(self.span)
        return self

    def __exit__(self, *exc) -> bool:
        self._recorder._end(self.span)
        return False

    def set(self, **attributes) -> "_LiveSpan":
        """Attach attributes after entry (e.g. a best cost found later).

        Preferred over constructor kwargs inside hot loops: the call
        happens once per span instead of building dicts per iteration.
        """
        self.span.attributes.update(attributes)
        return self


class TraceRecorder:
    """Collects the spans of one check into a pre-ordered list.

    Not thread-safe by design: one recorder traces one check, and a
    check's spans are created sequentially (the engine serialises
    sessions per config; worker processes use their own recorders and
    fold back through :meth:`fold`).
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._next_id = 1
        self._current: Optional[int] = None

    # --- recording ------------------------------------------------------------

    def span(self, name: str, category: str = "repro", **attributes) -> _LiveSpan:
        return _LiveSpan(
            self, Span(name=name, category=category, attributes=attributes)
        )

    def _begin(self, span: Span) -> None:
        span.span_id = self._next_id
        self._next_id += 1
        span.parent_id = self._current
        self._current = span.span_id
        self.spans.append(span)
        span.start_ns = time.monotonic_ns()

    def _end(self, span: Span) -> None:
        span.end_ns = time.monotonic_ns()
        self._current = span.parent_id

    # --- export / fold --------------------------------------------------------

    def export_records(self) -> List[dict]:
        """The spans as plain dicts (picklable; parents precede children)."""
        return [span.to_record() for span in self.spans]

    def fold(
        self,
        records: Iterable[dict],
        *,
        attributes: Optional[Dict[str, Any]] = None,
        align_start_ns: Optional[int] = None,
    ) -> None:
        """Fold foreign span records (a worker's trace) into this one.

        Ids are remapped onto this recorder's sequence; parentless
        records attach under the currently open span and gain the extra
        ``attributes`` (e.g. ``worker=3``).  ``align_start_ns`` re-bases
        the records' clock so their earliest span starts there — worker
        processes have unrelated monotonic origins, and a worker's span
        ran strictly inside the parent's dispatch window, so aligning to
        the dispatch span start keeps nesting containment.
        """
        records = list(records)
        if not records:
            return
        shift = 0
        if align_start_ns is not None:
            shift = align_start_ns - min(r["start_ns"] for r in records)
        mapping: Dict[int, int] = {}
        for record in records:
            span = Span.from_record(record)
            mapping[span.span_id] = self._next_id
            span.span_id = self._next_id
            self._next_id += 1
            if span.parent_id in mapping:
                span.parent_id = mapping[span.parent_id]
            else:
                span.parent_id = self._current
                if attributes:
                    span.attributes.update(attributes)
            span.start_ns += shift
            span.end_ns += shift
            self.spans.append(span)


def current_recorder() -> Optional[TraceRecorder]:
    """The recorder active in this context, or ``None`` (disabled)."""
    return _RECORDER.get()


def span(name: str, category: str = "repro", **attributes):
    """A context-managed span on the active recorder — or a no-op.

    This is the one instrumentation entry point: call sites never check
    whether tracing is enabled.
    """
    recorder = _RECORDER.get()
    if recorder is None:
        return _NOOP_SPAN
    return recorder.span(name, category, **attributes)


@contextmanager
def recording(recorder: TraceRecorder):
    """Install ``recorder`` as the context's active recorder."""
    token = _RECORDER.set(recorder)
    try:
        yield recorder
    finally:
        _RECORDER.reset(token)
