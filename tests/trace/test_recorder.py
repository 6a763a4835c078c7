"""Unit + property tests for the span recorder (repro.trace write side)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import trace
from repro.trace import Span, TraceRecorder, recording
from repro.trace.recorder import _NOOP_SPAN


class TestDisabledTracer:
    def test_span_without_recorder_is_the_noop_singleton(self):
        assert trace.current_recorder() is None
        assert trace.span("anything") is _NOOP_SPAN
        assert trace.span("другое", key="value") is _NOOP_SPAN

    def test_noop_span_supports_the_full_protocol(self):
        with trace.span("x") as sp:
            assert sp.set(a=1) is sp  # chainable, records nothing

    def test_recorder_does_not_leak_out_of_recording(self):
        with recording(TraceRecorder()):
            assert trace.current_recorder() is not None
        assert trace.current_recorder() is None
        assert trace.span("after") is _NOOP_SPAN


class TestRecording:
    def test_spans_nest_by_with_discipline(self):
        recorder = TraceRecorder()
        with recording(recorder):
            with trace.span("outer", kind="root"):
                with trace.span("inner.a"):
                    pass
                with trace.span("inner.b") as b:
                    b.set(hits=3)
        outer, a, b = recorder.spans
        assert [s.name for s in recorder.spans] == [
            "outer", "inner.a", "inner.b"
        ]
        assert outer.parent_id is None
        assert a.parent_id == outer.span_id
        assert b.parent_id == outer.span_id
        assert outer.attributes == {"kind": "root"}
        assert b.attributes == {"hits": 3}

    def test_parents_precede_children_and_ids_are_sequential(self):
        recorder = TraceRecorder()
        with recording(recorder):
            with trace.span("a"):
                with trace.span("b"):
                    with trace.span("c"):
                        pass
        assert [s.span_id for s in recorder.spans] == [1, 2, 3]

    def test_timestamps_are_monotonic_and_contained(self):
        recorder = TraceRecorder()
        with recording(recorder):
            with trace.span("parent"):
                with trace.span("child"):
                    pass
        parent, child = recorder.spans
        assert parent.start_ns <= child.start_ns
        assert child.end_ns <= parent.end_ns
        assert child.duration_ns >= 0

    def test_records_round_trip(self):
        recorder = TraceRecorder()
        with recording(recorder):
            with trace.span("a", n=1):
                pass
        records = recorder.export_records()
        assert Span.from_record(records[0]) == recorder.spans[0]


class TestFold:
    def worker_records(self, *names):
        worker = TraceRecorder()
        with recording(worker):
            with trace.span("slices.worker", slices=len(names)):
                for name in names:
                    with trace.span(name):
                        pass
        return worker.export_records()

    def test_fold_attaches_roots_under_the_open_span(self):
        recorder = TraceRecorder()
        with recording(recorder):
            with trace.span("slices.dispatch") as dispatch:
                recorder.fold(
                    self.worker_records("plan.execute"),
                    attributes={"worker": 0},
                    align_start_ns=dispatch.span.start_ns,
                )
        dispatch_span = recorder.spans[0]
        worker_root = recorder.spans[1]
        chunk = recorder.spans[2]
        assert worker_root.name == "slices.worker"
        assert worker_root.parent_id == dispatch_span.span_id
        assert worker_root.attributes["worker"] == 0
        # the child keeps its worker-local parent, remapped
        assert chunk.parent_id == worker_root.span_id
        assert chunk.attributes.get("worker") is None

    def test_fold_rebases_the_foreign_clock(self):
        recorder = TraceRecorder()
        with recording(recorder):
            with trace.span("slices.dispatch") as dispatch:
                records = self.worker_records("plan.execute")
                recorder.fold(
                    records, align_start_ns=dispatch.span.start_ns
                )
                anchor = dispatch.span.start_ns
        folded = recorder.spans[1:]
        assert min(s.start_ns for s in folded) == anchor
        # relative offsets inside the worker trace are preserved
        originals = [Span.from_record(r) for r in records]
        for original, span in zip(originals, folded):
            assert span.duration_ns == original.duration_ns

    def test_fold_keeps_submission_order(self):
        recorder = TraceRecorder()
        with recording(recorder):
            with trace.span("slices.dispatch") as dispatch:
                for index in range(3):
                    recorder.fold(
                        self.worker_records("plan.execute"),
                        attributes={"worker": index},
                        align_start_ns=dispatch.span.start_ns,
                    )
        workers = [
            s.attributes["worker"]
            for s in recorder.spans
            if s.name == "slices.worker"
        ]
        assert workers == [0, 1, 2]

    def test_fold_of_nothing_is_a_noop(self):
        recorder = TraceRecorder()
        recorder.fold([])
        assert recorder.spans == []


def nesting_programs():
    """Hypothesis strategy: a sequence of push/pop span operations."""
    return st.lists(
        st.one_of(
            st.tuples(st.just("push"), st.sampled_from("abcde")),
            st.tuples(st.just("pop"), st.none()),
        ),
        max_size=30,
    )


class TestProperties:
    @given(nesting_programs())
    @settings(max_examples=50, deadline=None)
    def test_every_span_nests_inside_its_parent(self, program):
        recorder = TraceRecorder()
        stack = []
        with recording(recorder):
            for op, name in program:
                if op == "push":
                    live = trace.span(name)
                    live.__enter__()
                    stack.append(live)
                elif stack:
                    stack.pop().__exit__(None, None, None)
            while stack:
                stack.pop().__exit__(None, None, None)
        by_id = {s.span_id: s for s in recorder.spans}
        for span in recorder.spans:
            assert span.start_ns <= span.end_ns
            if span.parent_id is not None:
                parent = by_id[span.parent_id]
                # parents precede children in the list (pre-order)...
                assert parent.span_id < span.span_id
                # ...and contain them in time
                assert parent.start_ns <= span.start_ns
                assert span.end_ns <= parent.end_ns

    @given(
        st.lists(
            st.lists(st.sampled_from("abc"), min_size=1, max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_folded_workers_never_interleave(self, chunks):
        """Fold-in order is submission order: span records of worker k
        all precede those of worker k+1, exactly like the stats merge."""
        worker_batches = []
        for names in chunks:
            worker = TraceRecorder()
            with recording(worker):
                with trace.span("slices.worker"):
                    for name in names:
                        with trace.span(name):
                            pass
            worker_batches.append(worker.export_records())

        recorder = TraceRecorder()
        with recording(recorder):
            with trace.span("slices.dispatch") as dispatch:
                for index, records in enumerate(worker_batches):
                    recorder.fold(
                        records,
                        attributes={"worker": index},
                        align_start_ns=dispatch.span.start_ns,
                    )
        # recover each span's worker by walking up to its folded root
        by_id = {s.span_id: s for s in recorder.spans}

        def worker_of(span):
            while "worker" not in span.attributes:
                if span.parent_id is None:
                    return None
                span = by_id[span.parent_id]
            return span.attributes["worker"]

        owners = [
            worker_of(s) for s in recorder.spans
            if s.name != "slices.dispatch"
        ]
        assert owners == sorted(owners)
        # every worker's span count survived the fold
        for index, records in enumerate(worker_batches):
            assert owners.count(index) == len(records)
