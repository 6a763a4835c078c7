"""Cross-layer tracing through sessions, the engine and worker pools."""

import gc
import json

import pytest

from repro.api import CheckRequest, CheckResponse, CircuitSpec, Engine, NoiseSpec
from repro.cache.fingerprint import config_fingerprint
from repro.circuits import QuantumCircuit
from repro.core.session import CheckConfig, CheckSession
from repro.noise import depolarizing
from repro.trace import tree_phase_seconds


def pair():
    ideal = QuantumCircuit(3, "w").h(0).rz(0.3, 0).cx(0, 1).cx(1, 2)
    noisy = ideal.copy()
    noisy.append(depolarizing(0.99), [1])
    return ideal, noisy


def request(**config):
    config.setdefault("backend", "einsum")
    return CheckRequest(
        ideal=CircuitSpec.from_library("qft", num_qubits=3),
        noise=NoiseSpec(noises=2, seed=0),
        epsilon=0.05,
        config=config,
    )


def span_names(tree):
    yield tree["name"]
    for child in tree.get("children", ()):
        yield from span_names(child)


def walk(tree):
    yield tree
    for child in tree.get("children", ()):
        yield from walk(child)


class TestSessionTrace:
    def test_untraced_result_carries_no_trace(self):
        result = CheckSession(CheckConfig(epsilon=0.05)).check(*pair())
        assert result.trace is None
        assert "trace" not in result.to_dict()

    def test_traced_result_carries_the_span_tree(self):
        result = CheckSession(
            CheckConfig(epsilon=0.05, trace=True)
        ).check(*pair())
        names = set(span_names(result.trace))
        assert "session.check" in names
        assert result.to_dict()["trace"] == result.trace

    def test_fidelity_mode_traces_too(self):
        result = CheckSession(
            CheckConfig(epsilon=0.05, trace=True)
        ).run(*pair(), "fidelity")
        assert result.trace is not None

    def test_trace_does_not_change_the_cache_identity(self):
        plain = CheckConfig(epsilon=0.05)
        traced = CheckConfig(epsilon=0.05, trace=True)
        assert config_fingerprint(plain) == config_fingerprint(traced)


class TestWarmHitRegression:
    """A result-cache hit does no work — its stats and trace must say so."""

    def config(self, tmp_path):
        return CheckConfig(
            epsilon=0.05, backend="einsum", trace=True,
            cache=True, cache_dir=str(tmp_path),
        )

    def test_warm_hit_reports_a_cache_span_and_no_work_spans(
        self, tmp_path
    ):
        ideal, noisy = pair()
        cold = CheckSession(self.config(tmp_path)).check(ideal, noisy)
        cold_names = set(span_names(cold.trace))
        assert "session.check" in cold_names
        assert "cache.result.put" in cold_names

        warm = CheckSession(self.config(tmp_path)).check(ideal, noisy)
        assert warm.stats.result_cache_hit == 1
        warm_names = list(span_names(warm.trace))
        # a real lookup span, flagged as a hit...
        gets = [
            node
            for node in self._walk(warm.trace)
            if node["name"] == "cache.result.get"
        ]
        assert len(gets) == 1
        assert gets[0]["attrs"]["hit"] is True
        # ...and zero planning / execution spans
        assert not any(
            name.startswith(("plan.", "slices.", "session.check"))
            for name in warm_names
        )

    def test_warm_hit_zeroes_every_work_counter(self, tmp_path):
        ideal, noisy = pair()
        CheckSession(self.config(tmp_path)).check(ideal, noisy)
        warm = CheckSession(self.config(tmp_path)).check(ideal, noisy)
        stats = warm.stats
        assert stats.planning_seconds == 0.0
        assert stats.plan_trials == 0
        assert stats.cpu_seconds == 0.0
        assert stats.batched_slice_calls == 0
        assert stats.terms_computed == 0
        assert stats.plan_cache_hit == 0

    def _walk(self, tree):
        yield tree
        for child in tree.get("children", ()):
            yield from self._walk(child)


class TestEngineTrace:
    def test_engine_roots_the_trace_with_the_request_id(self):
        with Engine() as engine:
            req = request(trace=True)
            response = engine.check(req)
        tree = response.result.trace
        assert tree["name"] == "engine.request"
        assert tree["attrs"]["trace_id"] == req.trace_id()

    def test_untraced_request_stays_clean(self):
        with Engine() as engine:
            response = engine.check(request())
        assert response.result.trace is None
        assert "trace" not in response.to_dict()

    def test_wire_round_trip_preserves_the_trace(self):
        with Engine() as engine:
            response = engine.check(request(trace=True))
        parsed = CheckResponse.from_json(response.to_json())
        assert parsed.result.trace == response.result.trace

    def test_job_ids_embed_the_trace_id(self):
        with Engine() as engine:
            req = request()
            handle = engine.submit(req)
            assert handle.id.startswith(f"job-{req.trace_id()}-")
            assert engine.result(handle).ok

    def test_trace_id_is_canonical_and_stable(self):
        a = request()
        b = CheckRequest.from_json(a.to_json())
        assert a.trace_id() == b.trace_id()
        assert len(a.trace_id()) == 16
        assert a.trace_id() != request(order_method="anneal").trace_id()


class TestExecutePhaseOnEveryBackend:
    """Every engine executes plans through one driver and one span, so
    each reports execute time next to its plan and compile phases."""

    @pytest.mark.parametrize("max_intermediate_size", [None, 8])
    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    @pytest.mark.parametrize("backend", ["tdd", "dense", "einsum"])
    def test_execute_plan_and_compile_phases(
        self, backend, algorithm, max_intermediate_size
    ):
        with Engine() as engine:
            response = engine.check(request(
                backend=backend,
                algorithm=algorithm,
                max_intermediate_size=max_intermediate_size,
                trace=True,
            ))
        assert response.ok
        phases = tree_phase_seconds(response.result.trace)
        assert phases.get("execute", 0.0) > 0
        assert {"plan", "compile"} <= set(phases)


class TestCompileOncePerPlan:
    """A plan is lowered once, by the Engine whose backend holds it: a
    second Engine in the same process lowers its own plan."""

    @staticmethod
    def compiles(engine):
        trace = engine.check(request(trace=True)).result.trace
        return sum(name == "plan.compile" for name in span_names(trace))

    def test_each_engine_lowers_its_own_plan(self):
        with Engine() as first:
            assert self.compiles(first) == 1
            assert self.compiles(first) == 0
        with Engine() as second:
            assert self.compiles(second) == 1


class TestBuildPhaseOnEveryBackend:
    """Each check opens one ``network.build`` span (the ``build`` phase):
    a fresh miter on the first request of a structure, a template refill
    on the next ones, which then plan nothing."""

    @staticmethod
    def traced(engine, backend, algorithm, p):
        return engine.check(CheckRequest(
            ideal=CircuitSpec.from_library("qft", num_qubits=3),
            noise=NoiseSpec(noises=2, seed=0, p=p),
            epsilon=0.05,
            config={"backend": backend, "algorithm": algorithm,
                    "trace": True},
        )).result.trace

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    @pytest.mark.parametrize("backend", ["tdd", "dense", "einsum"])
    def test_build_phase_and_wall_coverage(self, backend, algorithm):
        # A cyclic-GC pass landing between two spans is wall time no span
        # owns; keep the collector out of the coverage measurement.
        gc.disable()
        try:
            with Engine() as engine:
                cold, warm = (
                    self.traced(engine, backend, algorithm, p)
                    for p in (0.99, 0.98)
                )
        finally:
            gc.enable()
        for tree, hit in ((cold, False), (warm, True)):
            nodes = list(walk(tree))
            (build,) = [n for n in nodes if n["name"] == "network.build"]
            assert build["attrs"]["template_hit"] is hit
            assert build["attrs"]["tensors"] > 0
            assert tree_phase_seconds(tree)["build"] > 0
            planned = any(n["name"] == "plan.build" for n in nodes)
            assert planned is not hit
        # the acceptance bar: spans cover >= 95% of the traced wall
        covered = sum(child["dur_ns"] for child in cold["children"])
        assert covered / cold["dur_ns"] >= 0.95


class TestDensePhase:
    """``algorithm="dense"`` runs the SuperOp baseline under one
    ``baseline.superop`` span, so its time lands in the execute phase."""

    def test_dense_check_is_attributed(self):
        with Engine() as engine:
            tree = engine.check(CheckRequest(
                ideal=CircuitSpec.from_library("qft", num_qubits=3),
                noise=NoiseSpec(noises=7, seed=0),
                epsilon=0.05,
                config={"algorithm": "dense", "trace": True},
            )).result.trace
        assert "baseline.superop" in span_names(tree)
        phases = tree_phase_seconds(tree)
        assert phases["execute"] > 0
        assert sum(phases.values()) * 1e9 / tree["dur_ns"] >= 0.95


class TestCostOnSpans:
    """plan.compile says how many steps go to BLAS, and plan.execute
    carries the predicted cost it ran, so seconds-per-flop can be read
    per kernel path."""

    @pytest.mark.parametrize("backend", ["tdd", "dense", "einsum"])
    @pytest.mark.parametrize("max_intermediate_size", [None, 64])
    def test_compile_and_execute_attributes(
        self, backend, max_intermediate_size
    ):
        from repro import trace as T
        from repro.backends import get_backend
        from repro.backends.xp import compiled_for
        from repro.core.miter import alg2_trace_network
        from repro.library import qft
        from repro.noise import insert_random_noise
        from repro.tensornet import ContractionStats

        ideal = qft(5)
        network = alg2_trace_network(
            insert_random_noise(ideal, 3, seed=4), ideal
        )
        engine = get_backend(
            backend, max_intermediate_size=max_intermediate_size
        )
        plan = engine.plan_for(network)
        stats = ContractionStats()
        recorder = T.TraceRecorder()
        with T.recording(recorder):
            engine.contract_scalar(network, stats=stats)
        (compile_span,) = [
            s for s in recorder.spans if s.name == "plan.compile"
        ]
        (execute_span,) = [
            s for s in recorder.spans if s.name == "plan.execute"
        ]
        assert compile_span.attributes["blas_steps"] == (
            compiled_for(plan).blas_steps
        )
        if max_intermediate_size is None:
            assert compile_span.attributes["blas_steps"] > 0
        assert execute_span.attributes["predicted_cost"] == (
            plan.total_cost()
        ) == stats.predicted_cost


class TestWorkerSpanPropagation:
    def test_process_executor_folds_worker_spans(self):
        from repro import trace as T
        from repro.backends import get_backend
        from repro.core.miter import alg2_trace_network
        from repro.parallel import ProcessSliceExecutor

        ideal, noisy = pair()
        network = alg2_trace_network(noisy, ideal)
        with ProcessSliceExecutor(jobs=2) as executor:
            backend = get_backend(
                "einsum", max_intermediate_size=8, executor=executor
            )
            recorder = T.TraceRecorder()
            with T.recording(recorder):
                with T.span("root"):
                    backend.contract_scalar(network)
        tree = T.span_tree(recorder)
        dispatch = next(
            node for node in self._walk(tree)
            if node["name"] == "slices.dispatch"
        )
        workers = [
            child for child in dispatch["children"]
            if child["name"] == "slices.worker"
        ]
        assert workers, "no worker spans folded back"
        # submission order, and every worker span inside the dispatch
        assert [w["attrs"]["worker"] for w in workers] == list(
            range(len(workers))
        )
        for worker in workers:
            assert worker["t_ns"] >= dispatch["t_ns"]
            assert (
                worker["t_ns"] + worker["dur_ns"]
                <= dispatch["t_ns"] + dispatch["dur_ns"]
            )

    def test_untraced_parallel_run_ships_no_records(self):
        from repro.parallel.worker import run_slice_chunk
        from repro.backends import get_backend
        from repro.core.miter import alg2_trace_network
        from repro.tensornet.planner import iter_slice_assignments

        ideal, noisy = pair()
        network = alg2_trace_network(noisy, ideal)
        backend = get_backend("einsum", max_intermediate_size=8)
        plan = backend.plan_for(network)
        assignments = list(iter_slice_assignments(plan))
        _, stats = run_slice_chunk(
            backend.describe(), network, plan, assignments
        )
        assert "trace_spans" not in stats.extra
        _, traced = run_slice_chunk(
            backend.describe(), network, plan, assignments,
            trace_spans=True,
        )
        records = traced.extra["trace_spans"]
        assert records[0]["name"] == "slices.worker"
        json.dumps(records)  # plain picklable/JSON-able dicts

    def _walk(self, tree):
        yield tree
        for child in tree.get("children", ()):
            yield from self._walk(child)
