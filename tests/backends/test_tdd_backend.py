"""Unit tests for contracting networks on the TDD backend."""

import numpy as np
import pytest

from repro.backends import TddBackend
from repro.circuits import QuantumCircuit
from repro.library import bernstein_vazirani, qft
from repro.tensornet import (
    ContractionStats,
    Tensor,
    TensorNetwork,
    circuit_to_network,
    close_trace,
)


class TestScalarAgreementWithDense:
    @pytest.mark.parametrize("build", [
        lambda: QuantumCircuit(2).h(0).cx(0, 1),
        lambda: qft(3),
        lambda: bernstein_vazirani(4),
        lambda: QuantumCircuit(3).h(0).cx(0, 1).t(1).cx(1, 2).s(2),
    ])
    def test_closed_trace(self, build):
        net = close_trace(circuit_to_network(build()))
        assert np.isclose(
            TddBackend().contract_scalar(net), net.contract().scalar()
        )

    def test_with_self_loop_tensor(self, rng):
        net = TensorNetwork([
            Tensor(rng.normal(size=(2, 2, 2)), ["a", "a", "b"]),
            Tensor(rng.normal(size=2), ["b"]),
        ])
        assert np.isclose(
            TddBackend().contract_scalar(net), net.contract().scalar()
        )

    def test_disconnected_components(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2))
        net = TensorNetwork([
            Tensor(a, ["i", "j"]), Tensor(a, ["j", "i"]),
            Tensor(b, ["k", "l"]), Tensor(b, ["l", "k"]),
        ])
        assert np.isclose(
            TddBackend().contract_scalar(net), net.contract().scalar()
        )

    def test_open_network_rejected(self, rng):
        net = TensorNetwork([Tensor(rng.normal(size=2), ["i"])])
        with pytest.raises(ValueError, match="open indices"):
            TddBackend().contract_scalar(net)


class TestManagerReuse:
    def test_shared_manager_across_contractions(self):
        net = close_trace(circuit_to_network(qft(3)))
        backend = TddBackend()
        v1 = backend.contract_scalar(net)
        manager = backend.manager
        hits_before = manager.stats["cont_cache_hits"]
        v2 = backend.contract_scalar(net)
        assert backend.manager is manager
        assert np.isclose(v1, v2)
        assert manager.stats["cont_cache_hits"] > hits_before

    def test_unshared_mode_keeps_no_manager(self):
        net = close_trace(circuit_to_network(qft(3)))
        backend = TddBackend(share_computed_table=False)
        backend.contract_scalar(net)
        assert backend.manager is None

    def test_stats_max_nodes_positive(self):
        net = close_trace(circuit_to_network(qft(3)))
        stats = ContractionStats()
        TddBackend().contract_scalar(net, stats=stats)
        assert stats.max_nodes >= 2


class TestConstruction:
    def test_non_default_spec_survives_the_registry_roundtrip(self, tmp_path):
        """TddBackend forwards its options by keyword, so every knob of a
        non-default describe() spec lands back on the same parameter."""
        from repro.backends import get_backend

        spec = TddBackend(
            order_method="anneal",
            share_computed_table=False,
            max_intermediate_size=32,
            plan_cache=str(tmp_path),
            device="cpu",
            slice_batch=3,
            plan_budget_seconds=0.5,
            plan_seed=11,
        ).describe()
        options = {k: v for k, v in spec.items() if k != "name"}
        assert get_backend(spec["name"], **options).describe() == spec

    def test_accelerator_device_rejected(self):
        with pytest.raises(ValueError, match="host CPU"):
            TddBackend(device="cuda")
