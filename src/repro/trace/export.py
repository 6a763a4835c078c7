"""Exporters: span lists → Chrome trace JSON, span trees, phase totals.

Three read-side views over a finished :class:`~.recorder.TraceRecorder`:

``chrome_trace``
    The Chrome trace-event JSON format (``{"traceEvents": [...]}``,
    complete ``"X"`` events) that https://ui.perfetto.dev and
    ``chrome://tracing`` load directly.  Spans folded back from worker
    processes carry a ``worker`` attribute and are placed on their own
    ``tid`` rows so parallel slice execution renders as parallel
    timelines.

``span_tree``
    A compact nested dict (name / cat / t_ns offset / dur_ns / attrs /
    children) — the form that rides on ``CheckResult.to_dict()`` when
    ``CheckConfig(trace=True)`` is set.

``phase_seconds``
    Wall seconds per named phase (``resolve`` / ``cache`` / ``build`` /
    ``plan`` / ``compile`` / ``execute``), fed into the service's
    ``repro_phase_seconds{phase=...}`` histograms.  Attribution is
    *topmost-assigned-ancestor-wins*: once a span maps to a phase, its
    descendants are not counted again, so nested spans (and concurrent
    worker spans under one dispatch) never double-count wall time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .recorder import Span, TraceRecorder

#: Span name → phase for ``repro_phase_seconds``.  Structural spans
#: (``engine.request``, ``request.run``, ``session.check``,
#: ``alg1.terms``, ``alg2.contract``) stay unmapped: they wrap the
#: phases rather than being one.
PHASE_BY_SPAN = {
    "request.resolve": "resolve",
    "circuit.load": "resolve",
    "network.build": "build",
    "request.fingerprint": "cache",
    "cache.result.get": "cache",
    "cache.result.put": "cache",
    "plan.cache.get": "plan",
    "plan.cache.put": "plan",
    "plan.build": "plan",
    "plan.search": "plan",
    "plan.compile": "compile",
    "plan.fold": "execute",
    "plan.execute": "execute",
    "baseline.superop": "execute",
    "slices.dispatch": "execute",
    "slices.worker": "execute",
    "slices.remote.dispatch": "execute",
    "cache.remote.get": "cache",
    "cache.remote.put": "cache",
}

#: Every phase label the histogram may carry (docs + tests import this).
PHASES = ("resolve", "cache", "build", "plan", "compile", "execute")


def tree_records(tree: dict) -> List[Span]:
    """Flatten a :func:`span_tree` dict back into :class:`Span` objects.

    Ids are reassigned in pre-order; timestamps keep the tree's
    trace-relative offsets.  Lets every exporter run on the compact form
    a traced :class:`~repro.core.stats.CheckResult` carries — the CLI
    turns ``result.trace`` into Chrome trace JSON through this.
    """
    spans: List[Span] = []

    def walk(node: dict, parent_id: Optional[int]) -> None:
        t_ns = int(node.get("t_ns", 0))
        span = Span(
            name=node.get("name", ""),
            category=node.get("cat", "repro"),
            start_ns=t_ns,
            end_ns=t_ns + int(node.get("dur_ns", 0)),
            span_id=len(spans) + 1,
            parent_id=parent_id,
            attributes=dict(node.get("attrs", ())),
        )
        spans.append(span)
        for child in node.get("children", ()):
            walk(child, span.span_id)

    walk(tree, None)
    return spans


def _spans_of(source) -> List[Span]:
    if isinstance(source, TraceRecorder):
        return list(source.spans)
    if isinstance(source, dict):  # a span_tree dict
        return tree_records(source)
    return [
        span if isinstance(span, Span) else Span.from_record(span)
        for span in source
    ]


def _origin_ns(spans: List[Span]) -> int:
    return min((span.start_ns for span in spans), default=0)


def chrome_trace(source) -> dict:
    """Chrome trace-event JSON for a recorder or span-record list.

    Timestamps are microseconds relative to the earliest span, so the
    document is small and diffs cleanly; worker-folded spans land on
    ``tid = worker + 1`` (the main timeline is ``tid 0``).
    """
    spans = _spans_of(source)
    origin = _origin_ns(spans)
    worker_tid: Dict[Optional[int], int] = {}
    for span in spans:
        worker = span.attributes.get("worker")
        if worker is not None:
            worker_tid[span.span_id] = int(worker) + 1
        elif span.parent_id in worker_tid:
            # children folded under a worker root inherit its row
            worker_tid[span.span_id] = worker_tid[span.parent_id]
    events = []
    for span in spans:
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": (span.start_ns - origin) / 1000.0,
            "dur": span.duration_ns / 1000.0,
            "pid": 0,
            "tid": worker_tid.get(span.span_id, 0),
            "args": dict(span.attributes),
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def span_tree(source) -> dict:
    """The compact nested form attached to traced check results.

    ``{"name", "cat", "t_ns" (offset from trace start), "dur_ns",
    "attrs", "children": [...]}`` — single root when the trace has one
    (the usual ``engine.request``), else a synthetic ``trace`` root.
    """
    spans = _spans_of(source)
    origin = _origin_ns(spans)

    def node(span: Span) -> dict:
        entry: dict = {
            "name": span.name,
            "cat": span.category,
            "t_ns": span.start_ns - origin,
            "dur_ns": span.duration_ns,
        }
        if span.attributes:
            entry["attrs"] = dict(span.attributes)
        entry["children"] = []
        return entry

    nodes = {span.span_id: node(span) for span in spans}
    roots = []
    for span in spans:
        parent = nodes.get(span.parent_id)
        if parent is not None:
            parent["children"].append(nodes[span.span_id])
        else:
            roots.append(nodes[span.span_id])
    if len(roots) == 1:
        return roots[0]
    return {
        "name": "trace", "cat": "repro", "t_ns": 0,
        "dur_ns": max((s.end_ns for s in spans), default=0) - origin,
        "children": roots,
    }


def phase_seconds(
    source, phase_by_span: Optional[Dict[str, str]] = None
) -> Dict[str, float]:
    """Wall seconds per phase, topmost-assigned-ancestor-wins.

    A span whose name maps to a phase contributes its full duration and
    shields its descendants — nested plan spans and concurrent worker
    spans under one dispatch count once.
    """
    mapping = PHASE_BY_SPAN if phase_by_span is None else phase_by_span
    spans = _spans_of(source)
    children: Dict[Optional[int], List[Span]] = {}
    ids = {span.span_id for span in spans}
    for span in spans:
        parent = span.parent_id if span.parent_id in ids else None
        children.setdefault(parent, []).append(span)

    totals: Dict[str, float] = {}

    def walk(span: Span) -> None:
        phase = mapping.get(span.name)
        if phase is not None:
            totals[phase] = totals.get(phase, 0.0) + span.duration_ns / 1e9
            return
        for child in children.get(span.span_id, ()):
            walk(child)

    for root in children.get(None, ()):
        walk(root)
    return totals


def tree_phase_seconds(tree: dict) -> Dict[str, float]:
    """:func:`phase_seconds` over a :func:`span_tree` dict (the form the
    service sees on a traced response)."""
    totals: Dict[str, float] = {}

    def walk(node: dict) -> None:
        phase = PHASE_BY_SPAN.get(node.get("name"))
        if phase is not None:
            totals[phase] = totals.get(phase, 0.0) + node["dur_ns"] / 1e9
            return
        for child in node.get("children", ()):
            walk(child)

    walk(tree)
    return totals
