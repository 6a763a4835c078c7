"""Unit tests for the sampled-fidelity extension (paper future work)."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.core import (
    fidelity_sampled,
    mixed_unitary_decomposition,
)
from repro.backends import NumpyEinsumBackend, get_backend
from repro.baseline import process_fidelity
from repro.library import qft
from repro.noise import (
    amplitude_damping,
    bit_flip,
    depolarizing,
    insert_random_noise,
)


class TestMixedUnitaryDecomposition:
    def test_depolarizing(self):
        pairs = mixed_unitary_decomposition(depolarizing(0.97))
        assert pairs is not None
        weights = [w for w, _ in pairs]
        assert np.isclose(sum(weights), 1.0)
        assert np.isclose(weights[0], 0.97)

    def test_bit_flip(self):
        pairs = mixed_unitary_decomposition(bit_flip(0.9))
        assert pairs is not None
        assert np.isclose(pairs[1][0], 0.1)
        assert np.allclose(pairs[1][1], [[0, 1], [1, 0]])

    def test_amplitude_damping_not_mixed_unitary(self):
        assert mixed_unitary_decomposition(amplitude_damping(0.2)) is None


BACKENDS = ["tdd", "dense", "einsum"]


class TestFidelitySampled:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_exact_on_small_case(self, backend):
        ideal = qft(3)
        noisy = insert_random_noise(
            ideal, 3, channel_factory=lambda: depolarizing(0.95), seed=17
        )
        exact = process_fidelity(noisy, ideal)
        result = fidelity_sampled(
            noisy, ideal, num_samples=400, seed=5, backend=backend
        )
        assert abs(result.estimate - exact) < result.confidence_radius
        assert result.stats.backend == backend

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_agree(self, backend):
        """Same seed, same Kraus draws: every backend sums the same
        per-sample traces."""
        ideal = qft(4)
        noisy = insert_random_noise(ideal, 6, seed=2)
        reference = fidelity_sampled(noisy, ideal, seed=2).estimate
        estimate = fidelity_sampled(
            noisy, ideal, seed=2, backend=get_backend(backend)
        ).estimate
        assert abs(estimate - reference) < 1e-9

    def test_tdd_estimate_is_pinned(self):
        ideal = qft(4)
        noisy = insert_random_noise(ideal, 6, seed=2)
        result = fidelity_sampled(
            noisy, ideal, num_samples=200, seed=2, backend="tdd"
        )
        assert abs(result.estimate - 0.9899999999991047) < 1e-12

    def test_confidence_interval_shrinks(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 2, seed=3)
        small = fidelity_sampled(noisy, ideal, num_samples=10, seed=1)
        large = fidelity_sampled(noisy, ideal, num_samples=200, seed=1)
        assert large.confidence_radius < small.confidence_radius

    def test_bounds_clamped(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 1, seed=3)
        result = fidelity_sampled(noisy, ideal, num_samples=20, seed=0)
        assert 0.0 <= result.lower <= result.estimate <= result.upper <= 1.0

    def test_noiseless_circuit_gives_one(self):
        ideal = qft(2)
        result = fidelity_sampled(ideal, ideal, num_samples=5, seed=0)
        assert np.isclose(result.estimate, 1.0)

    def test_rejects_non_mixed_unitary(self):
        ideal = QuantumCircuit(1).h(0)
        noisy = QuantumCircuit(1).h(0)
        noisy.append(amplitude_damping(0.1), [0])
        with pytest.raises(ValueError):
            fidelity_sampled(noisy, ideal, num_samples=5)

    def test_unknown_backend_lists_choices(self):
        with pytest.raises(ValueError, match="tdd"):
            fidelity_sampled(qft(2), qft(2), num_samples=5, backend="bogus")

    def test_samples_share_one_plan(self):
        """Every sample has the same network structure, so a backend
        instance plans it once and reuses the plan."""
        ideal = qft(3)
        noisy = insert_random_noise(ideal, 3, seed=1)
        backend = NumpyEinsumBackend()
        result = fidelity_sampled(
            noisy, ideal, num_samples=20, seed=0, backend=backend
        )
        assert result.stats.terms_computed == 20
        assert len(backend._plan_cache) == 1

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            fidelity_sampled(qft(2), qft(2), num_samples=0)

    def test_stats_recorded(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 2, seed=3)
        result = fidelity_sampled(noisy, ideal, num_samples=15, seed=0)
        assert result.stats.terms_computed == 15
        assert result.num_samples == 15
