"""Unit tests for Algorithm I's shared network template."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.core import (
    alg1_template,
    fidelity_individual,
    jamiolkowski_fidelity_dense,
)
from repro.library import qft
from repro.noise import bit_flip, depolarizing, insert_random_noise
from repro.backends import TddBackend, get_backend


class TestTemplateConstruction:
    def test_slots_point_at_noise_tensors(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 2, seed=0)
        template = alg1_template(noisy, ideal)
        assert template is not None
        assert len(template.site_slots) == 2
        for slot, ops in zip(template.site_slots, template.site_kraus):
            tensor = template.network.tensors[slot]
            assert tensor.rank == 2
            assert np.allclose(
                tensor.data.reshape(2, 2), ops[0]
            )

    def test_instantiate_swaps_only_noise_slots(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 2, seed=0)
        template = alg1_template(noisy, ideal)
        net = template.instantiate((1, 2))
        shared = sum(
            1 for a, b in zip(template.network.tensors, net.tensors)
            if a is b
        )
        assert shared == len(net.tensors) - 2

    def test_instantiated_network_value(self):
        """Template networks give the same traces as freshly built ones."""
        from repro.core import alg1_trace_network, lower_kraus_selection

        ideal = qft(2)
        noisy = insert_random_noise(ideal, 2, seed=0)
        template = alg1_template(noisy, ideal)
        for selection in [(0, 0), (1, 3), (2, 1)]:
            from_template = template.instantiate(selection)
            fresh = alg1_trace_network(
                lower_kraus_selection(noisy, selection), ideal
            )
            assert np.isclose(
                TddBackend().contract_scalar(from_template),
                TddBackend().contract_scalar(fresh),
                atol=1e-9,
            )

    def test_untouched_wire_noise_falls_back(self):
        """Noise on a wire with no gates self-traces at closure; the
        template must refuse and Algorithm I must fall back correctly."""
        ideal = QuantumCircuit(2).h(0)
        noisy = QuantumCircuit(2).h(0)
        noisy.append(bit_flip(0.9), [1])
        assert alg1_template(noisy, ideal) is None
        result = fidelity_individual(noisy, ideal)
        ref = jamiolkowski_fidelity_dense(noisy, ideal)
        assert np.isclose(result.fidelity, ref, atol=1e-9)


class TestTemplatePathEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_dense_reference(self, k):
        ideal = qft(3)
        noisy = insert_random_noise(
            ideal, k, channel_factory=lambda: depolarizing(0.97), seed=k
        )
        result = fidelity_individual(noisy, ideal)
        ref = jamiolkowski_fidelity_dense(noisy, ideal)
        assert np.isclose(result.fidelity, ref, atol=1e-8)

    def test_local_optimisations_disable_template(self):
        """The optimised path (per-term cancellation) stays correct."""
        ideal = qft(3)
        noisy = insert_random_noise(ideal, 2, seed=5)
        plain = fidelity_individual(noisy, ideal).fidelity
        optimised = fidelity_individual(
            noisy, ideal, use_local_optimisations=True
        ).fidelity
        assert np.isclose(plain, optimised, atol=1e-8)

    def test_without_shared_table_still_correct(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 2, seed=3)
        ref = jamiolkowski_fidelity_dense(noisy, ideal)
        result = fidelity_individual(
            noisy, ideal,
            backend=get_backend("tdd", share_intermediates=False),
        )
        assert np.isclose(result.fidelity, ref, atol=1e-9)

    def test_template_speedup(self):
        """The shared table + template must beat cold-cache mode."""
        ideal = qft(3)
        noisy = insert_random_noise(ideal, 3, seed=1)
        warm = fidelity_individual(noisy, ideal)
        cold = fidelity_individual(
            noisy, ideal,
            backend=get_backend("tdd", share_intermediates=False),
        )
        assert warm.stats.time_seconds < cold.stats.time_seconds
