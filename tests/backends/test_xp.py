"""Tests for the array-namespace layer and batched slice execution.

Three concerns, mirroring the layers of :mod:`repro.backends.xp`:

* **truthful availability** — optional namespaces probe without import,
  registry entries for torch/cupy backends always exist, and a missing
  library surfaces as :class:`MissingDependencyError` at construction,
  never as an import error at ``import repro.backends`` time;
* **compiled plans** — each plan object is lowered once and keeps its
  lowering for its own lifetime, outside the plan's equality, ``repr``,
  digest and pickled bytes;
* **batched == looped == unsliced** — property tests pin the batched
  kernel to the reference loop and to the unsliced contraction within
  1e-9 on every backend, including ragged final chunks
  (``num_slices % slice_batch != 0``) and the ``slice_batch=1``
  degenerate chunking; on einsum the batched kernel must also beat the
  loop by at least ``MIN_BATCHED_SPEEDUP``;
* **BLAS lowering** — steps at or above ``BLAS_MIN_FLOPS`` that are
  plain matrix products run through ``tensordot`` and agree with the
  pure-einsum kernel to 1e-12, with identical contraction stats; every
  other step stays on einsum.
"""

import dataclasses
import pickle
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import trace as T
from repro.backends import (
    AUTO_SLICE_BATCH_BUDGET,
    DenseBackend,
    MissingDependencyError,
    NumpyEinsumBackend,
    TddBackend,
    TorchEinsumBackend,
    available_backends,
    backend_availability,
    get_backend,
    namespace_available,
    registered_backends,
    resolve_namespace,
)
from repro.backends.einsum import EinsumKernel
from repro.backends.xp import (
    BLAS_MIN_FLOPS,
    batched_matmul,
    compile_plan,
    compiled_for,
    tensordot_axes,
)
from repro.baseline import process_fidelity
from repro.core import fidelity_collective
from repro.core.miter import algorithm_network
from repro.core.session import CheckConfig
from repro.library import qft
from repro.noise import depolarizing, insert_random_noise
from repro.tensornet import (
    ContractionPlan,
    ContractionStats,
    ContractionStep,
    Tensor,
    TensorNetwork,
    build_plan,
    slice_plan,
)

TORCH_MISSING = namespace_available("torch")

requires_torch = pytest.mark.skipif(
    TORCH_MISSING is not None, reason=TORCH_MISSING or "torch installed"
)
requires_no_torch = pytest.mark.skipif(
    TORCH_MISSING is None, reason="torch is installed on this host"
)


# --- availability truth -----------------------------------------------------


class TestNamespaceAvailability:
    def test_numpy_always_available(self):
        assert namespace_available("numpy") is None

    def test_unknown_namespace_reports_reason(self):
        reason = namespace_available("tensorflow")
        assert reason is not None and "unknown" in reason

    @pytest.mark.parametrize("name", ["torch", "cupy"])
    def test_probe_matches_find_spec(self, name):
        import importlib.util

        missing = namespace_available(name)
        if importlib.util.find_spec(name) is None:
            assert missing is not None
            assert f"repro[{name}]" in missing
        else:
            assert missing is None

    def test_resolve_unknown_namespace(self):
        with pytest.raises(ValueError):
            resolve_namespace("tensorflow")

    def test_numpy_rejects_accelerator_device(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_namespace("numpy", device="cuda")
        assert "einsum-torch" in str(excinfo.value)

    @requires_no_torch
    def test_missing_namespace_raises_typed_import_error(self):
        with pytest.raises(MissingDependencyError) as excinfo:
            resolve_namespace("torch")
        assert issubclass(MissingDependencyError, ImportError)
        assert "repro[torch]" in str(excinfo.value)


class TestRegistryTruth:
    def test_optional_backends_always_registered(self):
        names = registered_backends()
        assert {"einsum-torch", "einsum-cupy"} <= set(names)

    def test_availability_table_covers_registry(self):
        table = backend_availability()
        assert set(table) == set(registered_backends())
        for name in ("tdd", "dense", "einsum"):
            assert table[name] is None
        assert table["einsum-torch"] == namespace_available("torch")
        assert table["einsum-cupy"] == namespace_available("cupy")

    def test_available_backends_are_instantiable(self):
        for name in available_backends():
            assert get_backend(name).name == name

    @requires_no_torch
    def test_unavailable_backend_fails_at_construction(self):
        # Registered (so the error is the dependency, not the name) but
        # constructing it raises the typed, hint-carrying ImportError.
        assert "einsum-torch" in registered_backends()
        assert "einsum-torch" not in available_backends()
        with pytest.raises(MissingDependencyError):
            get_backend("einsum-torch")

    def test_importing_backends_never_imports_optional_deps(self):
        root = str(Path(repro.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {root!r}); "
            "import repro.backends; "
            "assert 'torch' not in sys.modules, 'torch imported eagerly'; "
            "assert 'cupy' not in sys.modules, 'cupy imported eagerly'"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


class TestConfigValidation:
    def test_unavailable_backend_named_in_config_error(self):
        table = backend_availability()
        unavailable = [n for n, why in table.items() if why is not None]
        if not unavailable:
            pytest.skip("every registered backend is available here")
        with pytest.raises(ValueError) as excinfo:
            CheckConfig(backend=unavailable[0])
        assert "unavailable" in str(excinfo.value)

    def test_slice_batch_must_be_positive(self):
        with pytest.raises(ValueError):
            CheckConfig(slice_batch=0)

    def test_cpu_backend_rejects_cuda_device(self):
        with pytest.raises(ValueError) as excinfo:
            CheckConfig(backend="einsum", device="cuda")
        assert "einsum-torch" in str(excinfo.value)


# --- compiled plans ---------------------------------------------------------


def _tiny_sliced_plan():
    rng = np.random.default_rng(7)
    # A triangle of bond-4 edges: merging any pair leaves a rank-2
    # intermediate of 16 elements, so a bound of 4 forces slicing.
    tensors = [
        Tensor(rng.standard_normal((4, 4)), ["a", "b"]),
        Tensor(rng.standard_normal((4, 4)), ["b", "c"]),
        Tensor(rng.standard_normal((4, 4)), ["c", "a"]),
    ]
    network = TensorNetwork(tensors)
    plan = build_plan(network, max_intermediate_size=4)
    assert plan.slices, "fixture must force slicing"
    return network, plan


class TestCompiledPlans:
    def test_batch_label_reserved(self):
        _, plan = _tiny_sliced_plan()
        compiled = compile_plan(plan)
        assert any(compiled.input_batched)
        for cstep in compiled.steps:
            for subs in cstep.subscripts:
                assert 0 not in subs
            lhs, rhs, out = cstep.batched_subscripts
            assert (0 in lhs or 0 in rhs) == cstep.out_batched or (
                not cstep.out_batched
            )
            if cstep.out_batched:
                assert out[0] == 0

    def test_compiled_for_keeps_the_lowering_on_the_plan(self):
        _, plan = _tiny_sliced_plan()
        first = compiled_for(plan)
        assert compiled_for(plan) is first
        assert first == compile_plan(plan)
        # an equal plan object with the same digest lowers on its own
        twin = dataclasses.replace(plan)
        assert twin.digest() == plan.digest()
        assert compiled_for(twin) is not first
        assert compiled_for(twin) == first

    def test_steps_name_their_nodes(self):
        # each compiled step merges its plan step's nodes and writes node
        # n + k; the last step writes the root
        network = _wide_network(5)
        plan = build_plan(network)
        compiled = compile_plan(plan)
        count = len(plan.inputs)
        for k, (step, cstep) in enumerate(zip(plan.steps, compiled.steps)):
            assert (cstep.lhs, cstep.rhs) == (step.lhs, step.rhs)
            assert cstep.out == count + k
        assert compiled.root == compiled.steps[-1].out

    def test_einsum_path_reuses_compiled_plan(self):
        network, plan = _tiny_sliced_plan()
        backend = NumpyEinsumBackend(max_intermediate_size=4)
        value = backend.contract_scalar(network, plan=plan)
        assert compiled_for(plan) is compiled_for(plan)
        ref = DenseBackend().contract_scalar(network)
        assert abs(value - ref) < 1e-9


def _compile_spans(action):
    """How many ``plan.compile`` spans ``action()`` records."""
    recorder = T.TraceRecorder()
    with T.recording(recorder):
        action()
    return sum(span.name == "plan.compile" for span in recorder.spans)


class TestLoweringLifetime:
    """A lowering lives on its plan object: as long as the plan, never
    in its pickled bytes, equality or ``repr``."""

    @staticmethod
    def fresh_plan():
        return build_plan(_wide_network(11))

    def test_reset_drops_the_lowerings(self):
        ideal = qft(3)
        noisy = insert_random_noise(ideal, 2, seed=0)
        backend = get_backend("einsum")

        def check():
            fidelity_collective(noisy, ideal, backend=backend)

        assert _compile_spans(check) == 1
        assert _compile_spans(check) == 0
        backend.reset()
        assert _compile_spans(check) == 1

    def test_pickled_bytes_carry_no_lowering(self):
        plan = self.fresh_plan()
        before = pickle.dumps(plan)
        compiled_for(plan)
        plan.digest()
        assert pickle.dumps(plan) == before
        restored = pickle.loads(before)
        assert restored == plan
        assert _compile_spans(lambda: compiled_for(restored)) == 1
        assert compiled_for(restored) == compiled_for(plan)

    def test_a_replaced_copy_starts_without_one(self):
        plan = self.fresh_plan()
        compiled_for(plan)
        copy = dataclasses.replace(plan)
        assert _compile_spans(lambda: compiled_for(copy)) == 1
        assert _compile_spans(lambda: compiled_for(plan)) == 0

    def test_alg1_sliced_plan_lowers_apart_from_its_term_plan(self):
        from repro.core.miter import alg1_template

        ideal = qft(3)
        template = alg1_template(insert_random_noise(ideal, 2, seed=1), ideal)
        term_plan = build_plan(template.representative())
        term = compiled_for(term_plan)
        sliced_plan = template.sliced_plan(term_plan)
        assert _compile_spans(lambda: compiled_for(sliced_plan)) == 1
        sliced = compiled_for(sliced_plan)
        assert sliced is not term
        assert not any(term.input_batched)
        assert [
            position for position, batched in enumerate(sliced.input_batched)
            if batched
        ] == template.site_slots
        assert compiled_for(term_plan) is term

    def test_equality_and_repr_ignore_the_lowering(self):
        plan, twin = self.fresh_plan(), self.fresh_plan()
        compiled_for(plan)
        assert plan == twin and hash(plan) == hash(twin)
        assert repr(plan) == repr(twin)
        assert plan.digest() == twin.digest()

    def test_concurrent_lowering_of_one_plan(self):
        plan = self.fresh_plan()
        threads = 8  # more than cores, switching as often as it can
        barrier = threading.Barrier(threads, timeout=10)
        results, errors = [None] * threads, []

        def lower(index):
            try:
                barrier.wait()
                results[index] = compiled_for(plan)
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        workers = [
            threading.Thread(target=lower, args=(index,))
            for index in range(threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert all(result is results[0] for result in results)
        assert results[0] == compile_plan(plan)


class TestEffectiveSliceBatch:
    def test_unsliced_plan_never_batches(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 1, seed=0)
        backend = NumpyEinsumBackend()
        from repro.core.miter import algorithm_network

        network = algorithm_network(noisy, ideal, "alg2")
        plan = backend.plan_for(network)
        assert not plan.slices
        assert backend.effective_slice_batch(plan) == 1

    def test_explicit_slice_batch_pins(self):
        _, plan = _tiny_sliced_plan()
        assert NumpyEinsumBackend(slice_batch=5).effective_slice_batch(
            plan
        ) == 5
        assert NumpyEinsumBackend(slice_batch=1).effective_slice_batch(
            plan
        ) == 1

    def test_auto_batch_respects_budget_and_slice_count(self):
        _, plan = _tiny_sliced_plan()
        batch = NumpyEinsumBackend().effective_slice_batch(plan)
        assert 1 <= batch <= plan.num_slices()
        assert batch * plan.peak_size() <= max(
            AUTO_SLICE_BATCH_BUDGET, plan.peak_size()
        )

    def test_non_batching_backend_always_loops(self):
        _, plan = _tiny_sliced_plan()
        assert not TddBackend.supports_batched_slices
        assert TddBackend(slice_batch=64).effective_slice_batch(plan) == 1

    def test_bad_slice_batch_rejected_at_construction(self):
        with pytest.raises(ValueError):
            NumpyEinsumBackend(slice_batch=0)


# --- batched == looped == unsliced ------------------------------------------


@st.composite
def closed_networks(draw):
    """A random closed network: each label lands on exactly two slots."""
    num_tensors = draw(st.integers(min_value=2, max_value=4))
    num_edges = draw(st.integers(min_value=2, max_value=7))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    slots = [[] for _ in range(num_tensors)]
    dims = {}
    for e in range(num_edges):
        label = f"e{e}"
        dims[label] = int(rng.integers(2, 4))
        a, b = rng.integers(0, num_tensors, size=2)
        slots[int(a)].append(label)
        slots[int(b)].append(label)
    tensors = []
    for labels in slots:
        shape = tuple(dims[lab] for lab in labels)
        data = rng.uniform(-1, 1, size=shape) + 1j * rng.uniform(
            -1, 1, size=shape
        )
        tensors.append(Tensor(data, labels))
    return TensorNetwork(tensors)


class TestBatchedAgreesWithLooped:
    """The satellite invariant: batched == looped == unsliced to 1e-9."""

    @settings(max_examples=40, deadline=None)
    @given(
        network=closed_networks(),
        backend_cls=st.sampled_from([DenseBackend, NumpyEinsumBackend]),
        slice_batch=st.sampled_from([1, 2, 3, 7, None]),
        bound=st.sampled_from([2, 4, 16]),
    )
    def test_property(self, network, backend_cls, slice_batch, bound):
        # the Tensor.contract oracle shares no code with either kernel
        reference = network.contract().scalar()
        scale = max(1.0, abs(reference))
        looped = backend_cls(
            max_intermediate_size=bound, slice_batch=1
        ).contract_scalar(network)
        under_test = backend_cls(
            max_intermediate_size=bound, slice_batch=slice_batch
        ).contract_scalar(network)
        assert abs(looped - reference) < 1e-9 * scale
        assert abs(under_test - reference) < 1e-9 * scale
        assert abs(under_test - looped) < 1e-9 * scale

    @pytest.mark.parametrize("backend_name", ["tdd", "dense", "einsum"])
    @pytest.mark.parametrize("slice_batch", [1, 3, None])
    def test_circuit_fidelity_all_backends(self, backend_name, slice_batch):
        # 3 is deliberately ragged: the slice counts here are powers of
        # two, so the final chunk is short.  tdd accepts the knob but
        # loops regardless — agreement must hold either way.
        ideal = qft(3)
        noisy = insert_random_noise(
            ideal, 2, channel_factory=lambda: depolarizing(0.98), seed=13
        )
        ref = process_fidelity(noisy, ideal)
        backend = get_backend(
            backend_name, max_intermediate_size=8, slice_batch=slice_batch
        )
        result = fidelity_collective(noisy, ideal, backend=backend)
        assert abs(result.fidelity - ref) < 1e-9
        assert result.stats.slice_count > 1
        if backend.supports_batched_slices and slice_batch != 1:
            assert result.stats.batched_slice_calls > 0
        else:
            assert result.stats.batched_slice_calls == 0

    def test_oversized_slice_batch_is_one_chunk(self):
        network, plan = _tiny_sliced_plan()
        ref = DenseBackend().contract_scalar(network)
        value = NumpyEinsumBackend(
            max_intermediate_size=4, slice_batch=10**6
        ).contract_scalar(network)
        assert abs(value - ref) < 1e-9

    def test_stats_keep_per_slice_semantics(self):
        from repro.tensornet import ContractionStats

        network, plan = _tiny_sliced_plan()
        stats = ContractionStats()
        NumpyEinsumBackend(
            max_intermediate_size=4, slice_batch=4
        ).contract_scalar(network, stats=stats)
        assert 0 < stats.max_intermediate_size <= plan.peak_size()
        assert stats.batched_slice_calls >= 1


#: Floor on einsum's batched-over-looped speedup on the finely sliced
#: qft3 plan below (measured ~13x on a shared 2-CPU x86 container).
MIN_BATCHED_SPEEDUP = 5.0


class TestBatchedSpeedup:
    def test_batched_beats_the_per_slice_loop(self):
        """Auto ``slice_batch`` against ``slice_batch=1`` on one
        ~8k-slice plan: the same value, at least 5x faster (best of 3
        per side, both sides in this process)."""
        ideal = qft(3)
        noisy = insert_random_noise(ideal, 2, seed=0)
        network = algorithm_network(noisy, ideal, "alg2")
        plan = build_plan(network)
        sliced = slice_plan(plan, max(1, plan.peak_size() // 8))
        reference = DenseBackend().contract_scalar(network, plan=plan)
        scale = max(1.0, abs(reference))

        def best_of_3(slice_batch):
            backend = NumpyEinsumBackend(slice_batch=slice_batch)
            seconds = []
            for _ in range(3):
                start = time.perf_counter()
                value = backend.contract_scalar(network, plan=sliced)
                seconds.append(time.perf_counter() - start)
                assert abs(value - reference) < 1e-9 * scale
            return min(seconds)

        looped = best_of_3(1)
        batched = best_of_3(None)
        assert looped / batched >= MIN_BATCHED_SPEEDUP


# --- BLAS lowering ----------------------------------------------------------


def _wide_network(seed):
    """A random closed network whose plan steps straddle BLAS_MIN_FLOPS.

    Bonds of dimension 2-8 on tensors of up to 2**10 elements: small
    merges predict a few dozen flops, merges of two full tensors tens of
    thousands.
    """
    rng = np.random.default_rng(seed)
    num_tensors = int(rng.integers(3, 7))
    slots = [[] for _ in range(num_tensors)]
    sizes = [1] * num_tensors
    dims = {}
    for e in range(int(rng.integers(4, 13))):
        dim = int(rng.choice([2, 4, 8]))
        a, b = (int(x) for x in rng.choice(num_tensors, 2, replace=False))
        if max(sizes[a], sizes[b]) * dim > 2**10:
            continue
        label = f"e{e}"
        dims[label] = dim
        for t in (a, b):
            slots[t].append(label)
            sizes[t] *= dim
    tensors = []
    for labels in slots:
        shape = tuple(dims[lab] for lab in labels)
        data = rng.uniform(-1, 1, size=shape) + 1j * rng.uniform(
            -1, 1, size=shape
        )
        tensors.append(Tensor(data, labels))
    return TensorNetwork(tensors)


wide_networks = st.integers(min_value=0, max_value=2**32 - 1).map(
    _wide_network
)


def _einsum_only(compiled):
    """``compiled`` with every step left on einsum (the reference path)."""
    return dataclasses.replace(compiled, steps=tuple(
        dataclasses.replace(step, axes=None, matmul=None)
        for step in compiled.steps
    ))


def _execute(network, plan, compiled, slice_batch=None):
    """``contract_scalar``'s value and stats with ``compiled`` as lowering."""
    plan = dataclasses.replace(plan)  # a copy starts unlowered
    plan.lowered(lambda _: compiled)
    stats = ContractionStats()
    value = NumpyEinsumBackend(slice_batch=slice_batch).contract_scalar(
        network, stats=stats, plan=plan
    )
    return value, stats


class TestBlasLowering:
    @settings(max_examples=40, deadline=None)
    @given(
        network=wide_networks,
        bound=st.sampled_from([None, 64]),
        slice_batch=st.sampled_from([1, None]),
    )
    def test_lowered_agrees_with_pure_einsum(
        self, network, bound, slice_batch
    ):
        plan = build_plan(network, max_intermediate_size=bound)
        lowered = compile_plan(plan)
        for step, cstep in zip(plan.steps, lowered.steps):
            assert (cstep.axes is not None) == (
                step.flops >= BLAS_MIN_FLOPS
            )
        value, stats = _execute(network, plan, lowered, slice_batch)
        ref, ref_stats = _execute(
            network, plan, _einsum_only(lowered), slice_batch
        )
        # relative to the cancellation-free magnitude of the sum
        scale = abs(TensorNetwork([
            Tensor(np.abs(t.data), t.indices) for t in network.tensors
        ]).contract().scalar())
        assert abs(value - ref) <= 1e-12 * scale
        for field in (
            "num_pairwise_contractions",
            "max_intermediate_size",
            "max_intermediate_rank",
        ):
            assert getattr(stats, field) == getattr(ref_stats, field)

    def test_sample_networks_straddle_the_threshold(self):
        # The property above only means something if its networks mix
        # lowered and einsum steps.
        mixed = 0
        for seed in range(20):
            compiled = compile_plan(build_plan(_wide_network(seed)))
            if 0 < compiled.blas_steps < len(compiled.steps):
                mixed += 1
        assert mixed >= 5

    def test_matrix_product_axes(self):
        assert tensordot_axes(("a", "b"), ("b", "c"), ("a", "c")) == (
            (1,), (0,),
        )
        assert tensordot_axes(
            ("a", "b", "c"), ("d", "c", "a"), ("b", "d")
        ) == ((0, 2), (2, 1))
        # outer product: nothing shared
        assert tensordot_axes(("a",), ("b",), ("a", "b")) == ((), ())

    @pytest.mark.parametrize("lhs, rhs, out", [
        # a label in both operands and the output (a kept hyperedge)
        (("a", "b"), ("a", "c"), ("a", "b", "c")),
        # a repeated label inside one operand
        (("a", "a", "b"), ("b", "c"), ("c",)),
        (("a", "b"), ("b", "c", "c"), ("a",)),
        # a label summed from one operand only
        (("a", "b"), ("b", "c"), ("c",)),
        # survivors in an order tensordot does not produce
        (("a", "b"), ("b", "c"), ("c", "a")),
    ])
    def test_non_matrix_products_stay_on_einsum(self, lhs, rhs, out):
        assert tensordot_axes(lhs, rhs, out) is None
        dims = {label: 4 for label in lhs + rhs}
        rng = np.random.default_rng(3)
        a = rng.standard_normal(tuple(dims[x] for x in lhs))
        b = rng.standard_normal(tuple(dims[x] for x in rhs))
        size = 4 ** len(out)
        plan = ContractionPlan(
            inputs=(lhs, rhs),
            dims=dims,
            steps=(ContractionStep(
                0, 1, frozenset(set(lhs + rhs) - set(out)), out, size,
                max(size, BLAS_MIN_FLOPS),
            ),),
            order=(),
        )
        compiled = compile_plan(plan)
        assert compiled.blas_steps == 0
        assert batched_matmul(lhs, rhs, out, True, True, dims) is None
        kernel = EinsumKernel(resolve_namespace("numpy"), None)
        merged = kernel.merge(a, b, compiled.steps[0])
        symbols = {label: chr(ord("i") + n) for n, label in enumerate(dims)}
        spec = "{},{}->{}".format(*(
            "".join(symbols[x] for x in labels) for labels in (lhs, rhs, out)
        ))
        np.testing.assert_allclose(merged, np.einsum(spec, a, b))

    def test_small_steps_stay_on_einsum(self):
        _, plan = _tiny_sliced_plan()
        assert all(step.flops < BLAS_MIN_FLOPS for step in plan.steps)
        assert compile_plan(plan).blas_steps == 0

    @pytest.mark.parametrize("backend_name", ["dense", "einsum"])
    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    @pytest.mark.parametrize("bound", [None, 512])
    @pytest.mark.parametrize("slice_batch", [1, None])
    def test_agrees_with_superoperator_baseline(
        self, backend_name, algorithm, bound, slice_batch
    ):
        from repro.core import fidelity_individual
        from repro.core.miter import algorithm_network

        ideal = qft(5)
        noisy = insert_random_noise(
            ideal, 3, channel_factory=lambda: depolarizing(0.98), seed=4
        )
        ref = process_fidelity(noisy, ideal)
        backend = get_backend(
            backend_name, max_intermediate_size=bound,
            slice_batch=slice_batch,
        )
        # unsliced and sliced plans alike keep steps on both paths, and
        # every large step is lowered
        plan = backend.plan_for(algorithm_network(noisy, ideal, algorithm))
        large = sum(step.flops >= BLAS_MIN_FLOPS for step in plan.steps)
        assert 0 < compile_plan(plan).blas_steps == large < len(plan.steps)
        fidelity = (
            fidelity_collective if algorithm == "alg2"
            else fidelity_individual
        )
        assert abs(fidelity(noisy, ideal, backend=backend).fidelity - ref) < 1e-9


# --- batched matmul lowering -----------------------------------------------


class TestBatchedMatmulLowering:
    """Batched slice chunks run every plain matrix-product step as one
    ``matmul`` over ``(batch, m, k) × (batch, k, n)``."""

    @staticmethod
    def _sliced_alg2():
        from repro.core.miter import algorithm_network

        ideal = qft(4)
        network = algorithm_network(
            insert_random_noise(
                ideal, 2, channel_factory=lambda: depolarizing(0.98), seed=6
            ),
            ideal, "alg2",
        )
        return network, build_plan(network, max_intermediate_size=64)

    def test_every_batched_step_lowers(self):
        _, plan = self._sliced_alg2()
        compiled = compile_plan(plan)
        batched = [step for step in compiled.steps if step.out_batched]
        assert batched and all(step.matmul is not None for step in batched)
        assert all(
            step.matmul is None
            for step in compiled.steps if not step.out_batched
        )

    def test_sliced_alg2_agrees_with_tensor_contract(self, monkeypatch):
        from repro.backends.xp import NumpyNamespace

        network, plan = self._sliced_alg2()
        calls = []
        original = NumpyNamespace.matmul
        monkeypatch.setattr(
            NumpyNamespace, "matmul",
            lambda self, a, b: calls.append(1) or original(self, a, b),
        )
        value = NumpyEinsumBackend(
            max_intermediate_size=64
        ).contract_scalar(network, plan=plan)
        # the Tensor.contract oracle shares no code with the kernel
        reference = network.contract().scalar()
        assert calls, "no batched step ran as a matmul"
        assert abs(value - reference) < 1e-9 * max(1.0, abs(reference))

    @pytest.mark.parametrize("lhs_batched, rhs_batched", [
        (True, True), (True, False), (False, True),
    ])
    def test_matches_batched_einsum(self, lhs_batched, rhs_batched):
        # a transposed lhs, an rhs already in order, one unbatched side
        lhs, rhs, out = ("c", "a", "b"), ("c", "b", "d"), ("a", "d")
        dims = {"a": 2, "b": 3, "c": 4, "d": 5}
        rng = np.random.default_rng(11)

        def operand(labels, batched):
            shape = (6,) * batched + tuple(dims[x] for x in labels)
            return rng.standard_normal(shape) + 1j * rng.standard_normal(
                shape
            )

        a, b = operand(lhs, lhs_batched), operand(rhs, rhs_batched)
        lowered = batched_matmul(
            lhs, rhs, out, lhs_batched, rhs_batched, dims
        )
        assert lowered.lhs_axes is not None and lowered.rhs_axes is None
        spec = "{},{}->z{}".format(
            "z" * lhs_batched + "".join(lhs),
            "z" * rhs_batched + "".join(rhs),
            "".join(out),
        )
        np.testing.assert_allclose(
            lowered(resolve_namespace("numpy"), a, b),
            np.einsum(spec, a, b),
            rtol=1e-12,
        )


# --- the torch path ---------------------------------------------------------


def _install_fake_torch(monkeypatch):
    """A numpy-backed stand-in exposing the slice of torch the kernels use."""

    class _Device:
        def __init__(self, spec):
            spec = str(spec)
            if not spec or spec.split(":")[0] not in ("cpu", "cuda"):
                raise RuntimeError(f"Expected cpu or cuda, got {spec}")
            self.type = spec.split(":")[0]
            self._spec = spec

        def __str__(self):
            return self._spec

    class _Tensor(np.ndarray):
        """The tensor methods the namespace calls, on a host array."""

        def permute(self, axes):
            return self.transpose(axes)

        def cpu(self):
            return self

        def numpy(self):
            return np.asarray(self)

    def tensors(function):
        return lambda *args: np.asarray(function(*args)).view(_Tensor)

    fake = types.ModuleType("torch")
    fake.device = _Device
    fake.cuda = types.SimpleNamespace(is_available=lambda: False)
    fake.as_tensor = lambda array, device=None: np.asarray(array).view(
        _Tensor
    )
    fake.einsum = tensors(np.einsum)
    fake.tensordot = tensors(np.tensordot)
    fake.matmul = tensors(np.matmul)
    monkeypatch.setitem(sys.modules, "torch", fake)
    return fake


class TestTorchBackend:
    def test_fake_torch_drives_batched_contraction(self, monkeypatch):
        _install_fake_torch(monkeypatch)
        network, _ = _tiny_sliced_plan()
        ref = DenseBackend().contract_scalar(network)
        backend = TorchEinsumBackend(max_intermediate_size=4, slice_batch=3)
        assert backend.name == "einsum-torch"
        assert backend.resolved_device == "cpu"
        value = backend.contract_scalar(network)
        assert abs(value - ref) < 1e-9

    def test_fake_torch_rejects_unavailable_cuda(self, monkeypatch):
        _install_fake_torch(monkeypatch)
        with pytest.raises(ValueError) as excinfo:
            TorchEinsumBackend(device="cuda")
        assert "CUDA" in str(excinfo.value)

    @requires_torch
    def test_real_torch_agrees_with_numpy(self):
        ideal = qft(3)
        noisy = insert_random_noise(
            ideal, 2, channel_factory=lambda: depolarizing(0.98), seed=13
        )
        ref = process_fidelity(noisy, ideal)
        for slice_batch in (1, None):
            backend = get_backend(
                "einsum-torch",
                max_intermediate_size=64,
                slice_batch=slice_batch,
            )
            value = fidelity_collective(noisy, ideal, backend=backend)
            assert abs(value.fidelity - ref) < 1e-9
