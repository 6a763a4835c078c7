"""Property-based tests for noise channels and fidelity invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.baseline import process_fidelity
from repro.core import jamiolkowski_fidelity_kraus
from repro.linalg import (
    is_density_matrix,
    random_density_matrix,
    random_kraus_set,
    random_unitary,
)
from repro.noise import (
    KrausChannel,
    amplitude_damping,
    bit_flip,
    bit_phase_flip,
    depolarizing,
    insert_random_noise,
    phase_damping,
    phase_flip,
)

probabilities = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)
channel_factories = st.sampled_from([
    bit_flip, phase_flip, bit_phase_flip, depolarizing,
    amplitude_damping, phase_damping,
])


class TestChannelInvariants:
    @given(channel_factories, probabilities)
    @settings(max_examples=60, deadline=None)
    def test_cptp(self, factory, p):
        assert factory(p).is_cptp()

    @given(channel_factories, probabilities, st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_maps_states_to_states(self, factory, p, seed):
        rho = random_density_matrix(2, rng=np.random.default_rng(seed))
        out = factory(p).apply(rho)
        assert is_density_matrix(out, atol=1e-7)

    @given(channel_factories, probabilities)
    @settings(max_examples=40, deadline=None)
    def test_matrix_rep_consistent(self, factory, p):
        channel = factory(p)
        rho = random_density_matrix(2, rng=np.random.default_rng(7))
        via_rep = (channel.matrix_rep() @ rho.reshape(-1)).reshape(2, 2)
        assert np.allclose(via_rep, channel.apply(rho), atol=1e-9)

    @given(st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_kraus_channels_cptp(self, num_ops, seed):
        ops = random_kraus_set(2, num_ops, np.random.default_rng(seed))
        assert KrausChannel(ops).is_cptp()


class TestFidelityInvariants:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        u = random_unitary(4, rng)
        kraus = random_kraus_set(4, 3, rng)
        f = jamiolkowski_fidelity_kraus(kraus, u)
        assert -1e-9 <= f <= 1 + 1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_unitary_self_fidelity_one(self, seed):
        u = random_unitary(4, np.random.default_rng(seed))
        assert np.isclose(jamiolkowski_fidelity_kraus([u], u), 1.0)

    @given(probabilities)
    @settings(max_examples=30, deadline=None)
    def test_depolarising_identity_fidelity(self, p):
        """One depolarising site against the identity: F_J == p."""
        noisy = QuantumCircuit(1)
        noisy.append(depolarizing(p), [0])
        assert np.isclose(
            process_fidelity(noisy, QuantumCircuit(1)), p,
            atol=1e-9,
        )

    @given(st.integers(0, 2**32 - 1), st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_more_noise_never_helps(self, seed, k):
        """Appending depolarising noise cannot increase fidelity."""
        ideal = QuantumCircuit(2).h(0).cx(0, 1)
        lighter = insert_random_noise(ideal, k, seed=seed)
        heavier = insert_random_noise(lighter, 1, seed=seed + 1)
        f_light = process_fidelity(lighter, ideal)
        f_heavy = process_fidelity(heavier, ideal)
        assert f_heavy <= f_light + 1e-9
