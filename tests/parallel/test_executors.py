"""Unit tests for the slice-level parallel execution subsystem."""

import pickle

import numpy as np
import pytest

from repro.backends import available_backends, get_backend
from repro.core.miter import algorithm_network
from repro.library import qft
from repro.noise import insert_random_noise
from repro.parallel import (
    ProcessSliceExecutor,
    SerialExecutor,
    chunk_assignments,
    make_executor,
)
from repro.parallel.executors import fold_measured_stats
from repro.parallel.worker import run_slice_chunk
from repro.tensornet import (
    ContractionStats,
    build_plan,
    iter_slice_assignments,
    slice_plan,
)

BACKENDS = ("tdd", "dense", "einsum")


@pytest.fixture(scope="module")
def sliced_workload():
    """A qft(3) alg2 network plus a plan sliced into many subplans."""
    ideal = qft(3)
    noisy = insert_random_noise(ideal, 2, seed=0)
    network = algorithm_network(noisy, ideal, "alg2")
    plan = build_plan(network)
    sliced = slice_plan(plan, max(1, plan.peak_size() // 4))
    assert sliced.num_slices() > 4  # parallelism must have work to split
    return network, sliced


@pytest.fixture(scope="module")
def reference(sliced_workload):
    network, _ = sliced_workload
    return get_backend("dense").contract_scalar(network)


@pytest.fixture(scope="module")
def pool():
    """One shared 2-worker pool for the whole module (pools are dear)."""
    with ProcessSliceExecutor(jobs=2, chunk_size=None) as executor:
        yield executor


class TestChunking:
    def test_chunks_cover_all_assignments_in_order(self):
        assignments = [{"a": i} for i in range(10)]
        chunks = chunk_assignments(assignments, jobs=2, chunk_size=3)
        assert [a for chunk in chunks for a in chunk] == assignments
        assert [len(c) for c in chunks] == [3, 3, 3, 1]

    def test_auto_chunking_targets_chunks_per_job(self):
        assignments = [{"a": i} for i in range(64)]
        chunks = chunk_assignments(assignments, jobs=2)
        assert [a for chunk in chunks for a in chunk] == assignments
        assert len(chunks) == 8  # 2 jobs * CHUNKS_PER_JOB
        assert all(len(c) == 8 for c in chunks)

    def test_small_inputs_never_produce_empty_chunks(self):
        chunks = chunk_assignments([{"a": 0}], jobs=8)
        assert chunks == [[{"a": 0}]]

    def test_chunk_size_validated(self):
        with pytest.raises(ValueError):
            chunk_assignments([{}], jobs=1, chunk_size=0)


class TestSerialExecutor:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_matches_inline_execution(
        self, sliced_workload, reference, backend_name
    ):
        network, plan = sliced_workload
        backend = get_backend(
            backend_name, executor=SerialExecutor(chunk_size=7)
        )
        value = backend.contract_scalar(network, plan=plan)
        assert np.isclose(value, reference, atol=1e-9)

    def test_partial_sums_compose(self, sliced_workload, reference):
        """Chunked partial executions sum to the full contraction."""
        network, plan = sliced_workload
        backend = get_backend("dense")
        assignments = list(iter_slice_assignments(plan))
        cut = len(assignments) // 3
        total = sum(
            backend.contract_scalar(network, plan=plan, assignments=part)
            for part in (
                assignments[:cut], assignments[cut:2 * cut],
                assignments[2 * cut:],
            )
        )
        assert np.isclose(total, reference, atol=1e-9)


class TestProcessSliceExecutor:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_matches_serial_execution(
        self, sliced_workload, reference, pool, backend_name
    ):
        network, plan = sliced_workload
        backend = get_backend(backend_name, executor=pool)
        stats = ContractionStats()
        value = backend.contract_scalar(network, plan=plan, stats=stats)
        assert np.isclose(value, reference, atol=1e-9)
        # Measured stats flow back from the workers; predictions are
        # recorded exactly once by the dispatching backend.
        assert stats.slice_count == plan.num_slices()
        assert stats.predicted_cost == plan.total_cost()
        if backend_name == "tdd":
            assert stats.max_nodes > 0
        else:
            assert stats.max_intermediate_size > 0
            assert stats.max_intermediate_size <= plan.peak_size()

    def test_unsliced_plans_never_touch_the_pool(self, sliced_workload):
        class Exploding(ProcessSliceExecutor):
            def _ensure_pool(self):  # pragma: no cover - guard
                raise AssertionError("pool touched for an unsliced plan")

        network, _ = sliced_workload
        backend = get_backend("dense", executor=Exploding(jobs=2))
        plain = build_plan(network)
        value = backend.contract_scalar(network, plan=plain)
        ref = get_backend("dense").contract_scalar(network, plan=plain)
        assert np.isclose(value, ref, atol=1e-12)

    def test_jobs_validated(self):
        with pytest.raises(ValueError):
            ProcessSliceExecutor(jobs=0)
        with pytest.raises(ValueError):
            ProcessSliceExecutor(jobs=2, chunk_size=0)

    def test_close_is_idempotent(self):
        executor = ProcessSliceExecutor(jobs=1)
        executor.close()
        executor.close()

    def test_make_executor_resolves_jobs(self):
        assert make_executor(None) is None
        assert make_executor(1) is None
        executor = make_executor(3)
        assert isinstance(executor, ProcessSliceExecutor)
        assert executor.jobs == 3
        executor.close()


class TestWorkerTransport:
    def test_payloads_pickle(self, sliced_workload):
        """Exactly what the pool ships must survive a pickle round-trip."""
        network, plan = sliced_workload
        spec = get_backend("einsum").describe()
        chunk = list(iter_slice_assignments(plan))[:3]
        payload = pickle.dumps((spec, network, plan, chunk))
        spec2, network2, plan2, chunk2 = pickle.loads(payload)
        assert spec2 == spec
        assert plan2.num_slices() == plan.num_slices()
        assert chunk2 == chunk

    def test_run_slice_chunk_in_process(self, sliced_workload, reference):
        """The worker entry point, called directly, sums its chunk."""
        network, plan = sliced_workload
        spec = get_backend("dense").describe()
        assignments = list(iter_slice_assignments(plan))
        total = 0j
        folded = ContractionStats()
        for chunk in chunk_assignments(assignments, jobs=2, chunk_size=16):
            value, stats = run_slice_chunk(spec, network, plan, chunk)
            total += value
            fold_measured_stats(folded, stats)
        assert np.isclose(total, reference, atol=1e-9)
        assert folded.max_intermediate_size > 0

    def test_blob_variant_caches_payload_per_digest(
        self, sliced_workload, reference
    ):
        """The executor's actual task fn: payload unpickled once, cached."""
        import hashlib

        from repro.parallel.worker import (
            _WORKER_PAYLOADS,
            run_slice_chunk_blob,
        )

        network, plan = sliced_workload
        blob = pickle.dumps((network, plan), pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha1(blob).hexdigest()
        spec = get_backend("dense").describe()
        assignments = list(iter_slice_assignments(plan))
        total = 0j
        for chunk in chunk_assignments(assignments, jobs=2):
            value, _ = run_slice_chunk_blob(spec, digest, blob, chunk)
            total += value
        assert np.isclose(total, reference, atol=1e-9)
        # one payload entry, reused across chunks; a new digest evicts it
        assert list(_WORKER_PAYLOADS) == [digest]
        cached = _WORKER_PAYLOADS[digest]
        run_slice_chunk_blob(spec, digest, blob, assignments[:1])
        assert _WORKER_PAYLOADS[digest] is cached

    def test_describe_spec_rebuilds_every_backend(self):
        from repro.parallel.worker import backend_for_spec

        for name in available_backends():
            spec = get_backend(
                name, order_method="anneal", max_intermediate_size=64
            ).describe()
            rebuilt = backend_for_spec(spec)
            assert rebuilt.name == name
            assert rebuilt.order_method == "anneal"
            assert rebuilt.max_intermediate_size == 64
            assert rebuilt.executor is None  # workers run slices inline
            assert backend_for_spec(spec) is rebuilt  # per-worker cache
