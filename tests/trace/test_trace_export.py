"""Exporter tests: Chrome trace JSON, span trees, phase attribution.

The golden-fixture test pins the Chrome trace of a fully deterministic
traced check (sliced qft-4, einsum backend, default order method)
byte-for-byte modulo timestamps.  Regenerate after an intentional
span-vocabulary change with::

    REPRO_REGEN_FIXTURES=1 PYTHONPATH=src python -m pytest \
        tests/trace/test_trace_export.py -k golden
"""

import json
import os
import pathlib

from repro import trace
from repro.api import CheckRequest, CircuitSpec, Engine, NoiseSpec
from repro.trace import (
    PHASE_BY_SPAN,
    PHASES,
    TraceRecorder,
    chrome_trace,
    phase_seconds,
    recording,
    span_tree,
    tree_phase_seconds,
    tree_records,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def sample_recorder():
    """A hand-built recorder with a worker fold (no real contraction)."""
    recorder = TraceRecorder()
    with recording(recorder):
        with trace.span("engine.request", trace_id="0" * 16):
            with trace.span("request.resolve"):
                with trace.span("circuit.load", source="library"):
                    pass
            with trace.span("session.check", algorithm="alg2"):
                with trace.span("plan.build", order_method="min_fill"):
                    pass
                with trace.span("slices.dispatch") as dispatch:
                    worker = TraceRecorder()
                    with recording(worker):
                        with trace.span("slices.worker", slices=2):
                            with trace.span("plan.execute", slices=2):
                                pass
                    recorder.fold(
                        worker.export_records(),
                        attributes={"worker": 0},
                        align_start_ns=dispatch.span.start_ns,
                    )
    return recorder


class TestChromeTrace:
    def test_complete_events_with_relative_microseconds(self):
        doc = chrome_trace(sample_recorder())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert all(e["ph"] == "X" for e in events)
        assert min(e["ts"] for e in events) == 0.0
        assert {e["name"] for e in events} >= {
            "engine.request", "slices.worker", "plan.execute",
        }
        json.dumps(doc)  # JSON-serialisable throughout

    def test_worker_spans_land_on_their_own_tid(self):
        events = chrome_trace(sample_recorder())["traceEvents"]
        tid = {e["name"]: e["tid"] for e in events}
        assert tid["engine.request"] == 0
        assert tid["slices.dispatch"] == 0
        assert tid["slices.worker"] == 1  # worker 0 → tid 1
        assert tid["plan.execute"] == 1  # children inherit the row


class TestSpanTree:
    def test_single_root_tree(self):
        tree = span_tree(sample_recorder())
        assert tree["name"] == "engine.request"
        assert tree["t_ns"] == 0
        names = [child["name"] for child in tree["children"]]
        assert names == ["request.resolve", "session.check"]

    def test_multiple_roots_get_a_synthetic_root(self):
        recorder = TraceRecorder()
        with recording(recorder):
            with trace.span("a"):
                pass
            with trace.span("b"):
                pass
        tree = span_tree(recorder)
        assert tree["name"] == "trace"
        assert [c["name"] for c in tree["children"]] == ["a", "b"]

    def test_attrs_key_only_when_non_empty(self):
        tree = span_tree(sample_recorder())
        assert tree["attrs"] == {"trace_id": "0" * 16}
        resolve = tree["children"][0]
        assert "attrs" not in resolve

    def test_tree_records_round_trips(self):
        tree = span_tree(sample_recorder())
        assert span_tree(tree_records(tree)) == tree


class TestPhaseSeconds:
    def test_every_mapped_phase_is_a_known_label(self):
        assert set(PHASE_BY_SPAN.values()) <= set(PHASES)

    def test_topmost_assigned_ancestor_wins(self):
        recorder = sample_recorder()
        totals = phase_seconds(recorder)
        spans = {s.name: s for s in recorder.spans}
        # slices.dispatch maps to execute and shields the worker spans
        # under it — otherwise concurrent workers would double-count.
        assert totals["execute"] == (
            spans["slices.dispatch"].duration_ns / 1e9
        )
        # request.resolve shields circuit.load the same way
        assert totals["resolve"] == (
            spans["request.resolve"].duration_ns / 1e9
        )
        assert set(totals) <= set(PHASES)

    def test_tree_phase_seconds_matches_the_recorder_view(self):
        recorder = sample_recorder()
        assert tree_phase_seconds(span_tree(recorder)) == phase_seconds(
            recorder
        )

    def test_phase_total_never_exceeds_root_duration(self):
        recorder = sample_recorder()
        root = recorder.spans[0]
        assert sum(phase_seconds(recorder).values()) <= (
            root.duration_ns / 1e9 + 1e-12
        )


def traced_check_tree():
    """The span tree of a deterministic sliced check (fixture workload)."""
    request = CheckRequest(
        ideal=CircuitSpec.from_library("qft", num_qubits=4),
        noise=NoiseSpec(noises=2, seed=0),
        epsilon=0.05,
        config={
            "backend": "einsum",
            "max_intermediate_size": 64,
            "slice_batch": 4,
            "trace": True,
        },
    )
    with Engine() as engine:
        response = engine.check(request)
    assert response.ok
    return response.result.trace


def normalised_chrome_text(tree) -> str:
    """Chrome trace JSON with timestamps zeroed: byte-stable."""
    doc = chrome_trace(tree)
    for event in doc["traceEvents"]:
        event["ts"] = 0.0
        event["dur"] = 0.0
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


class TestGoldenFixture:
    def test_golden_chrome_trace(self):
        text = normalised_chrome_text(traced_check_tree())
        path = FIXTURES / "chrome_trace.json"
        if os.environ.get("REPRO_REGEN_FIXTURES"):
            path.write_text(text)
        assert text == path.read_text()

    def test_trace_covers_the_check_wall_time(self):
        """The acceptance bar: spans cover ≥95% of the traced wall."""
        tree = traced_check_tree()
        covered = 0
        for child in tree["children"]:
            covered += child["dur_ns"]
        assert tree["dur_ns"] > 0
        assert covered / tree["dur_ns"] >= 0.95
