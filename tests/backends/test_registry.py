"""Unit tests for the contraction-backend protocol and registry."""

import numpy as np
import pytest

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
from repro.core import (
    CheckConfig,
    CheckSession,
    fidelity_collective,
    fidelity_individual,
    jamiolkowski_fidelity_dense,
)
from repro.library import qft
from repro.noise import depolarizing, insert_random_noise


class TestRegistry:
    def test_builtins_registered(self):
        names = available_backends()
        assert {"tdd", "dense", "einsum"} <= set(names)
        assert names == sorted(names)

    def test_get_backend_instantiates(self):
        backend = get_backend("tdd", order_method="min_fill")
        assert isinstance(backend, TddBackend)
        assert backend.name == "tdd"
        assert backend.order_method == "min_fill"

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

            def contract_scalar(self, network, stats=None,
                                cacheable_tensor_ids=None):
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


class TestCustomBackend:
    def test_custom_backend_drives_the_checker(self):
        calls = []

        class CountingDense(DenseBackend):
            name = "counting-dense"

            def contract_scalar(self, network, stats=None,
                                cacheable_tensor_ids=None):
                calls.append(len(network.tensors))
                return super().contract_scalar(
                    network, stats=stats,
                    cacheable_tensor_ids=cacheable_tensor_ids,
                )

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
        ref = jamiolkowski_fidelity_dense(noisy, ideal)
        value = fidelity_collective(noisy, ideal, backend=backend).fidelity
        assert np.isclose(value, ref, atol=1e-9), backend

    @pytest.mark.parametrize("backend", ["tdd", "dense", "einsum"])
    def test_alg1_matches_dense_reference(self, pair, backend):
        ideal, noisy = pair
        ref = jamiolkowski_fidelity_dense(noisy, ideal)
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


class TestPlanKnobValidation:
    """CheckConfig and the backend constructor share one validator, so a
    bad plan knob fails with the same error text in both places."""

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("order_method", "tree_decompositon"),
            ("planner", "gredy"),
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
