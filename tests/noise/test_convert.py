"""Unit tests for channel representation conversions."""

import math

import numpy as np
import pytest

from repro.linalg import random_kraus_set
from repro.noise import (
    KrausChannel,
    amplitude_damping,
    bit_flip,
    choi_to_kraus,
    depolarizing,
    kraus_from_superop,
    superop_to_choi,
    thermal_relaxation,
)


class TestSuperopChoiRoundTrip:
    @pytest.mark.parametrize("factory", [
        lambda: bit_flip(0.9),
        lambda: depolarizing(0.95),
        lambda: amplitude_damping(0.3),
    ])
    def test_superop_to_choi_matches_direct(self, factory):
        channel = factory()
        via_superop = superop_to_choi(channel.matrix_rep())
        direct = channel.choi_matrix(normalised=False)
        assert np.allclose(via_superop, direct, atol=1e-10)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            superop_to_choi(np.eye(3))


class TestChoiToKraus:
    def test_recovers_channel_action(self, rng):
        from repro.linalg import random_density_matrix

        channel = depolarizing(0.9)
        kraus = choi_to_kraus(channel.choi_matrix(normalised=False))
        rebuilt = KrausChannel(kraus, validate=False)
        rho = random_density_matrix(2, rng=rng)
        assert np.allclose(rebuilt.apply(rho), channel.apply(rho), atol=1e-9)

    def test_rank_matches_minimal_kraus(self):
        kraus = choi_to_kraus(bit_flip(0.8).choi_matrix(normalised=False))
        assert len(kraus) == 2

    def test_rejects_negative_choi(self):
        with pytest.raises(ValueError):
            choi_to_kraus(np.diag([1.0, -1.0, 1.0, 1.0]))

    def test_random_channel_roundtrip(self, rng):
        from repro.linalg import random_density_matrix

        ops = random_kraus_set(2, 3, rng)
        channel = KrausChannel(ops)
        rebuilt = kraus_from_superop(channel.matrix_rep())
        rho = random_density_matrix(2, rng=rng)
        assert np.allclose(
            rebuilt.apply(rho), channel.apply(rho), atol=1e-8
        )
        assert rebuilt.is_cptp(atol=1e-7)


class TestThermalRelaxation:
    def test_cptp(self):
        assert thermal_relaxation(50.0, 70.0, 1.0).is_cptp(atol=1e-8)

    def test_population_decay_rate(self):
        t1, t = 50.0, 10.0
        channel = thermal_relaxation(t1, t1, t)
        rho = np.diag([0.0, 1.0])  # excited state
        out = channel.apply(rho)
        assert np.isclose(np.real(out[1, 1]), math.exp(-t / t1), atol=1e-9)

    def test_coherence_decay_rate(self):
        t1, t2, t = 50.0, 30.0, 7.0
        channel = thermal_relaxation(t1, t2, t)
        rho = np.full((2, 2), 0.5)
        out = channel.apply(rho)
        assert np.isclose(
            abs(out[0, 1]), 0.5 * math.exp(-t / t2), atol=1e-9
        )

    def test_zero_time_is_identity(self):
        channel = thermal_relaxation(50.0, 70.0, 0.0)
        rho = np.array([[0.4, 0.2], [0.2, 0.6]], dtype=complex)
        assert np.allclose(channel.apply(rho), rho, atol=1e-10)

    def test_unphysical_t2_rejected(self):
        with pytest.raises(ValueError):
            thermal_relaxation(10.0, 25.0, 1.0)

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            thermal_relaxation(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            thermal_relaxation(1.0, 1.0, -0.5)

    def test_usable_in_equivalence_checking(self):
        from repro.circuits import QuantumCircuit
        from repro.baseline import process_fidelity
        from repro.core import fidelity_collective

        ideal = QuantumCircuit(2).h(0).cx(0, 1)
        noisy = QuantumCircuit(2).h(0)
        noisy.append(thermal_relaxation(100.0, 60.0, 2.0), [0])
        noisy.cx(0, 1)
        ref = process_fidelity(noisy, ideal)
        result = fidelity_collective(noisy, ideal)
        assert np.isclose(result.fidelity, ref, atol=1e-8)
