"""Unit tests for the contraction-backend protocol and registry."""

import numpy as np
import pytest

from repro.baseline import process_fidelity
from repro.backends import (
    ContractionBackend,
    DenseBackend,
    NumpyEinsumBackend,
    TddBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
    unregister_backend,
)
from repro.backends.base import DEFAULT_PLAN_MEMO
from repro.core import (
    CheckConfig,
    CheckSession,
    fidelity_collective,
    fidelity_individual,
)
from repro.library import qft
from repro.noise import depolarizing, insert_random_noise


class TestRegistry:
    def test_builtins_registered(self):
        names = available_backends()
        assert {"tdd", "dense", "einsum"} <= set(names)
        assert names == sorted(names)

    def test_get_backend_instantiates(self):
        backend = get_backend("tdd", order_method="anneal")
        assert isinstance(backend, TddBackend)
        assert backend.name == "tdd"
        assert backend.order_method == "anneal"

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError) as excinfo:
            get_backend("sparse-gpu")
        message = str(excinfo.value)
        assert "sparse-gpu" in message
        for name in ("tdd", "dense", "einsum"):
            assert name in message

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_backend("tdd", TddBackend)

    def test_register_unregister_roundtrip(self):
        class NullBackend(ContractionBackend):
            name = "null-test"

            def contract_scalar(self, network, stats=None):
                return 0.0

        register_backend("null-test", NullBackend)
        try:
            assert "null-test" in available_backends()
            assert isinstance(get_backend("null-test"), NullBackend)
        finally:
            unregister_backend("null-test")
        assert "null-test" not in available_backends()

    def test_resolve_backend_passthrough(self):
        instance = DenseBackend()
        assert resolve_backend(instance) is instance
        assert isinstance(resolve_backend("dense"), DenseBackend)
        with pytest.raises(TypeError):
            resolve_backend(42)

    def test_bad_order_method_rejected_at_construction(self):
        with pytest.raises(ValueError):
            DenseBackend(order_method="tree_decompositon")  # typo


class TestDenseIsIndependent:
    """``dense`` is the reference the array kernel is checked against, so
    an unsliced dense contraction never runs through that kernel."""

    def test_unsliced_dense_never_calls_the_array_kernel(self, monkeypatch):
        from repro.backends.xp import NumpyNamespace
        from repro.core.miter import algorithm_network

        def refuse(*args):
            raise AssertionError("dense ran the array kernel")

        monkeypatch.setattr(NumpyNamespace, "einsum", refuse)
        monkeypatch.setattr(NumpyNamespace, "tensordot", refuse)
        ideal = qft(4)
        network = algorithm_network(
            insert_random_noise(ideal, 2, seed=5), ideal, "alg2"
        )
        value = DenseBackend().contract_scalar(network)
        ref = network.contract().scalar()
        assert abs(value - ref) <= 1e-9 * max(1.0, abs(ref))


class TestNamespaceTensordot:
    """Every usable array namespace contracts BLAS steps the same way."""

    @staticmethod
    def _usable_namespaces():
        from repro.backends import (
            NAMESPACES,
            namespace_available,
            resolve_namespace,
        )

        for name in NAMESPACES:
            if namespace_available(name) is not None:
                continue
            try:
                yield resolve_namespace(name)
            except ValueError:  # installed, but no device to run on
                continue

    def test_tensordot_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal(
            (2, 3, 4)
        )
        b = rng.standard_normal((4, 5, 3)) + 1j * rng.standard_normal(
            (4, 5, 3)
        )
        axes = ((1, 2), (2, 0))
        expected = np.tensordot(a, b, axes)
        names = []
        for xp in self._usable_namespaces():
            names.append(xp.name)
            merged = xp.tensordot(xp.from_host(a), xp.from_host(b), axes)
            assert tuple(merged.shape) == expected.shape
            assert abs(
                complex(xp.to_host(merged).sum()) - complex(expected.sum())
            ) < 1e-12 * np.abs(expected).sum()
        assert "numpy" in names


class TestCustomBackend:
    def test_custom_backend_drives_the_checker(self):
        calls = []

        class CountingDense(DenseBackend):
            name = "counting-dense"

            def kernel(self, network, plan, compiled, stats):
                calls.append(len(network.tensors))
                return super().kernel(network, plan, compiled, stats)

        register_backend("counting-dense", CountingDense)
        try:
            ideal = qft(2)
            noisy = insert_random_noise(ideal, 1, seed=0)
            out = CheckSession(
                CheckConfig(epsilon=0.05, backend="counting-dense")
            ).check(ideal, noisy)
            assert out.equivalent
            assert out.backend == "counting-dense"
            assert out.stats.backend == "counting-dense"
            assert calls, "custom backend was never invoked"
        finally:
            unregister_backend("counting-dense")


class TestCrossBackendAgreement:
    @pytest.fixture
    def pair(self):
        ideal = qft(3)
        noisy = insert_random_noise(
            ideal, 2, channel_factory=lambda: depolarizing(0.98), seed=13
        )
        return ideal, noisy

    @pytest.mark.parametrize("backend", ["tdd", "dense", "einsum"])
    def test_alg2_matches_dense_reference(self, pair, backend):
        ideal, noisy = pair
        ref = process_fidelity(noisy, ideal)
        value = fidelity_collective(noisy, ideal, backend=backend).fidelity
        assert np.isclose(value, ref, atol=1e-9), backend

    @pytest.mark.parametrize("backend", ["tdd", "dense", "einsum"])
    def test_alg1_matches_dense_reference(self, pair, backend):
        ideal, noisy = pair
        ref = process_fidelity(noisy, ideal)
        value = fidelity_individual(noisy, ideal, backend=backend).fidelity
        assert np.isclose(value, ref, atol=1e-9), backend

    def test_all_three_within_1e9_of_each_other(self, pair):
        ideal, noisy = pair
        values = [
            fidelity_collective(noisy, ideal, backend=b).fidelity
            for b in ("tdd", "dense", "einsum")
        ]
        assert max(values) - min(values) < 1e-9


class TestBackendState:
    def test_tdd_backend_reuses_manager(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 1, seed=0)
        backend = TddBackend()
        fidelity_collective(noisy, ideal, backend=backend)
        first_manager = backend.manager
        assert first_manager is not None
        fidelity_collective(noisy, ideal, backend=backend)
        assert backend.manager is first_manager
        backend.reset()
        assert backend.manager is None

    def test_einsum_backend_caches_plans(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 2, seed=0)
        backend = NumpyEinsumBackend()
        result = fidelity_individual(noisy, ideal, backend=backend)
        # One structure shared by all trace terms -> one cached plan.
        assert result.stats.terms_computed > 1
        assert len(backend._plan_cache) == 1

    def test_einsum_rejects_open_networks(self):
        from repro.tensornet import Tensor, TensorNetwork

        network = TensorNetwork([Tensor(np.eye(2), ["a", "b"])])
        with pytest.raises(ValueError):
            NumpyEinsumBackend().contract_scalar(network)


def ring(i):
    """A closed two-tensor network whose structure is unique to ``i``."""
    from repro.tensornet import Tensor, TensorNetwork

    a, b = f"a{i}", f"b{i}"
    return TensorNetwork([
        Tensor(np.eye(2), [a, b]), Tensor(np.eye(2), [b, a]),
    ])


class TestPlanMemoBound:
    """The backend plan memo is an LRU capped at DEFAULT_PLAN_MEMO."""

    def test_distinct_structures_never_exceed_the_cap(self):
        assert DEFAULT_PLAN_MEMO == 256
        backend = get_backend("dense")
        for i in range(DEFAULT_PLAN_MEMO + 1):
            backend.plan_for(ring(i))
        assert len(backend._plan_cache) == DEFAULT_PLAN_MEMO
        # the least recently used structure (the first) was evicted
        assert ring(0).structure_key() not in {
            key[0] for key in backend._plan_cache
        }
        assert ring(1).structure_key() in {
            key[0] for key in backend._plan_cache
        }

    def test_a_hit_refreshes_its_entry(self, monkeypatch):
        import repro.backends.base as base

        backend = get_backend("einsum")
        for i in range(DEFAULT_PLAN_MEMO):
            backend.plan_for(ring(i))
        first = backend.plan_for(ring(0))  # hit: now most recently used
        backend.plan_for(ring(DEFAULT_PLAN_MEMO))  # evicts ring(1)
        builds = []
        original = base.build_plan
        monkeypatch.setattr(
            base, "build_plan",
            lambda *a, **k: builds.append(1) or original(*a, **k),
        )
        assert backend.plan_for(ring(0)) is first
        assert builds == []
        backend.plan_for(ring(1))
        assert builds == [1]


class TestPlanKnobValidation:
    """CheckConfig and the backend constructor share one validator, so a
    bad plan knob fails with the same error text in both places."""

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("order_method", "tree_decompositon"),
            ("order_method", "gredy"),
            ("order_method", "hyper"),
            ("order_method", "sequential"),
            ("order_method", "greedy"),
            ("max_intermediate_size", 0),
            ("slice_batch", 0),
            ("plan_budget_seconds", -1.0),
            ("plan_seed", -1),
        ],
    )
    def test_config_and_backend_raise_same_error(self, knob, value):
        with pytest.raises((ValueError, TypeError)) as from_config:
            CheckConfig(**{knob: value})
        with pytest.raises((ValueError, TypeError)) as from_backend:
            get_backend("dense", **{knob: value})
        assert from_config.type is from_backend.type
        assert str(from_config.value) == str(from_backend.value)
        assert knob in str(from_config.value) or repr(value) in str(
            from_config.value
        )

    def test_one_default_order_method(self):
        from repro.cli import build_parser
        from repro.tensornet import (
            DEFAULT_ORDER_METHOD, Tensor, TensorNetwork, build_plan,
        )

        args = build_parser().parse_args(["plan", "x.qasm"])
        net = TensorNetwork([Tensor(np.eye(2), ["i", "j"]),
                             Tensor(np.eye(2), ["j", "i"])])
        assert DEFAULT_ORDER_METHOD == "min_fill"
        assert CheckConfig().order_method == DEFAULT_ORDER_METHOD
        assert get_backend("dense").order_method == DEFAULT_ORDER_METHOD
        assert build_plan(net).planner == DEFAULT_ORDER_METHOD
        assert args.order_method == DEFAULT_ORDER_METHOD


class TestOneContractionPath:
    """Scalars are contracted only through ContractionBackend; the
    second TDD engine and the deprecated front ends are gone."""

    def test_legacy_checker_not_exported(self):
        import repro
        import repro.core

        for name in (
            "EquivalenceChecker", "approx_equivalent", "jamiolkowski_fidelity",
        ):
            assert name not in repro.__all__
            assert not hasattr(repro.core, name)

    def test_tdd_package_has_no_second_engine(self):
        import repro.tdd

        for name in (
            "contract_network", "contract_network_scalar",
            "manager_for_network",
        ):
            assert name not in repro.tdd.__all__
            assert not hasattr(repro.tdd, name)
        assert not hasattr(ContractionBackend, "order_for")

    def test_one_plan_execution_driver(self):
        import repro.backends.xp as xp
        import repro.tensornet as tensornet
        from repro.tensornet import TensorNetwork

        for name in ("execute_plan", "BatchedSliceApplier", "circuit_trace"):
            assert name not in tensornet.__all__
            assert not hasattr(tensornet, name)
        for name in ("contract_slices_looped", "contract_slices_batched"):
            assert not hasattr(xp, name)
        assert not hasattr(TensorNetwork, "contract_scalar")
        # every engine supplies a kernel, none its own driver
        for cls in (TddBackend, DenseBackend, NumpyEinsumBackend):
            assert "contract_scalar" not in vars(cls)
            assert "execute_chunks" not in vars(cls)
            assert "kernel" in vars(cls)

    def test_no_cross_call_tensor_sharing(self):
        """Algorithm I runs as one plan execution, so no tensor is shared
        by identity across calls and no per-term template swap exists."""
        import inspect

        from repro.core import Alg1Template

        for method in (
            ContractionBackend.contract_scalar, ContractionBackend.kernel
        ):
            assert "cacheable_tensor_ids" not in inspect.signature(
                method
            ).parameters
        assert not hasattr(TddBackend(), "_conversion_cache")
        assert not hasattr(Alg1Template, "instantiate")
