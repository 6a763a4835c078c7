"""Unit tests for Kraus channels."""

import numpy as np
import pytest

from repro.gates.standard import X_MATRIX, Y_MATRIX, Z_MATRIX
from repro.linalg import dagger, is_density_matrix, random_density_matrix
from repro.noise import (
    KrausChannel,
    amplitude_damping,
    bit_flip,
    bit_phase_flip,
    depolarizing,
    pauli_channel,
    phase_damping,
    phase_flip,
    two_qubit_depolarizing,
    unitary_channel,
)


class TestKrausChannelBasics:
    def test_needs_operators(self):
        with pytest.raises(ValueError):
            KrausChannel([])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            KrausChannel([np.eye(2), np.eye(4)])

    def test_cptp_validation(self):
        with pytest.raises(ValueError):
            KrausChannel([np.eye(2) * 2])

    def test_identity_channel(self):
        channel = unitary_channel(np.eye(2), "id")
        rho = np.diag([0.3, 0.7])
        assert np.allclose(channel.apply(rho), rho)

    def test_is_unitary_channel(self):
        assert unitary_channel(np.eye(2)).is_unitary_channel()
        assert not bit_flip(0.9).is_unitary_channel()


class TestCanonicalNoises:
    @pytest.mark.parametrize("factory", [
        bit_flip, phase_flip, bit_phase_flip, depolarizing,
        amplitude_damping, phase_damping,
    ])
    def test_cptp(self, factory):
        assert factory(0.9).is_cptp()

    @pytest.mark.parametrize("factory", [bit_flip, depolarizing])
    def test_probability_range(self, factory):
        with pytest.raises(ValueError):
            factory(1.5)

    def test_bit_flip_action(self):
        p = 0.8
        rho = np.diag([1.0, 0.0])
        out = bit_flip(p).apply(rho)
        assert np.allclose(out, np.diag([p, 1 - p]))

    def test_phase_flip_kills_coherence(self):
        rho = np.array([[0.5, 0.5], [0.5, 0.5]])
        out = phase_flip(0.5).apply(rho)  # fully dephasing at p=0.5
        assert np.allclose(out, np.diag([0.5, 0.5]))

    def test_bit_phase_flip_matches_y(self):
        p = 0.7
        rho = random_density_matrix(2, rng=np.random.default_rng(0))
        expected = p * rho + (1 - p) * Y_MATRIX @ rho @ Y_MATRIX
        assert np.allclose(bit_phase_flip(p).apply(rho), expected)

    def test_depolarizing_fixed_point(self):
        # The maximally mixed state is invariant.
        rho = np.eye(2) / 2
        assert np.allclose(depolarizing(0.7).apply(rho), rho)

    def test_depolarizing_paper_form(self):
        p = 0.9
        rho = random_density_matrix(2, rng=np.random.default_rng(1))
        q = (1 - p) / 3
        expected = p * rho + q * (
            X_MATRIX @ rho @ X_MATRIX
            + Y_MATRIX @ rho @ Y_MATRIX
            + Z_MATRIX @ rho @ Z_MATRIX
        )
        assert np.allclose(depolarizing(p).apply(rho), expected)

    def test_amplitude_damping_decays_excited(self):
        gamma = 0.3
        rho = np.diag([0.0, 1.0])  # |1><1|
        out = amplitude_damping(gamma).apply(rho)
        assert np.allclose(out, np.diag([gamma, 1 - gamma]))

    def test_pauli_channel_probabilities(self):
        channel = pauli_channel(0.1, 0.2, 0.3)
        assert channel.is_cptp()

    def test_pauli_channel_rejects_oversum(self):
        with pytest.raises(ValueError):
            pauli_channel(0.5, 0.4, 0.3)

    def test_two_qubit_depolarizing(self):
        channel = two_qubit_depolarizing(0.95)
        assert channel.num_qubits == 2
        assert channel.num_kraus == 16
        assert channel.is_cptp()


class TestMatrixRep:
    def test_matches_vectorised_action(self, rng):
        """M_E (row-stacking) applied to vec(rho) equals vec(E(rho))."""
        channel = depolarizing(0.9)
        rho = random_density_matrix(2, rng=rng)
        vec_out = channel.matrix_rep() @ rho.reshape(-1)
        assert np.allclose(vec_out.reshape(2, 2), channel.apply(rho))

    def test_paper_example_bit_flip(self):
        """Paper Example 4: M_N = p I(x)I + (1-p) X(x)X."""
        p = 0.9
        expected = p * np.eye(4) + (1 - p) * np.kron(X_MATRIX, X_MATRIX)
        assert np.allclose(bit_flip(p).matrix_rep(), expected)

    def test_unitary_channel_rep(self):
        u = np.diag([1, 1j])
        rep = unitary_channel(u).matrix_rep()
        assert np.allclose(rep, np.kron(u, np.conjugate(u)))

    @pytest.mark.parametrize("p", [0.999, 0.9, 0.37])
    @pytest.mark.parametrize("factory", [
        bit_flip, phase_flip, bit_phase_flip, depolarizing,
        amplitude_damping, phase_damping, two_qubit_depolarizing,
        lambda p: pauli_channel((1 - p) / 2, (1 - p) / 4, (1 - p) / 8),
        lambda p: depolarizing(p).tensor(amplitude_damping(1 - p)),
    ])
    def test_equals_the_kron_sum_bit_for_bit(self, factory, p):
        """The broadcast form sums the same products in the same order
        as ``sum(np.kron(K, K*))``: equal values and equal bytes."""
        channel = factory(p)
        expected = sum(
            np.kron(op, np.conjugate(op)) for op in channel.kraus_operators
        )
        rep = channel.matrix_rep()
        assert rep.dtype == expected.dtype
        assert np.array_equal(rep, expected)
        assert rep.tobytes() == expected.tobytes()


class TestChoi:
    def test_choi_is_density_matrix(self):
        choi = depolarizing(0.9).choi_matrix()
        assert is_density_matrix(choi, atol=1e-8)

    def test_identity_choi_is_maximally_entangled(self):
        choi = unitary_channel(np.eye(2)).choi_matrix()
        expected = np.zeros((4, 4), dtype=complex)
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 0.5
        assert np.allclose(choi, expected)

    def test_unnormalised_trace(self):
        choi = bit_flip(0.8).choi_matrix(normalised=False)
        assert np.isclose(np.trace(choi), 2.0)


class TestChannelAlgebra:
    def test_compose_probabilities(self):
        # Two bit flips compose into a bit flip with p' = p^2 + (1-p)^2.
        p = 0.9
        composed = bit_flip(p).compose(bit_flip(p))
        rho = np.diag([1.0, 0.0])
        p_eff = p * p + (1 - p) * (1 - p)
        assert np.allclose(
            composed.apply(rho), np.diag([p_eff, 1 - p_eff])
        )

    def test_tensor_width(self):
        channel = bit_flip(0.9).tensor(phase_flip(0.9))
        assert channel.num_qubits == 2
        assert channel.num_kraus == 4

    def test_dagger_of_unitary_channel(self):
        u = np.diag([1, 1j])
        adjoint = unitary_channel(u).dagger()
        assert np.allclose(adjoint.kraus_operators[0], dagger(u))

    def test_conjugate(self):
        conj = phase_flip(0.9).conjugate()
        for op, orig in zip(
            conj.kraus_operators, phase_flip(0.9).kraus_operators
        ):
            assert np.allclose(op, np.conjugate(orig))
