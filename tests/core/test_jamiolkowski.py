"""Unit tests for Jamiolkowski fidelity definitions and properties."""

import numpy as np
import pytest

from repro.baseline import SuperOp, process_fidelity, process_fidelity_choi
from repro.circuits import QuantumCircuit
from repro.core import (
    average_fidelity_from_jamiolkowski,
    fidelity_from_traces,
    jamiolkowski_distance,
    jamiolkowski_fidelity_kraus,
)
from repro.linalg import random_statevector, random_unitary
from repro.noise import (
    KrausChannel,
    bit_flip,
    depolarizing,
    insert_random_noise,
)


class TestTraceFormula:
    def test_identity_channel(self):
        assert np.isclose(
            jamiolkowski_fidelity_kraus([np.eye(2)], np.eye(2)), 1.0
        )

    def test_global_phase_invariant(self):
        u = np.diag([1, 1j])
        assert np.isclose(
            jamiolkowski_fidelity_kraus([1j * u], u), 1.0
        )

    def test_orthogonal_unitaries(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.isclose(
            jamiolkowski_fidelity_kraus([x], np.eye(2)), 0.0
        )

    def test_matches_choi_definition(self, rng):
        """The trace formula equals F(rho_E, rho_U) (paper Sec. III)."""
        u = random_unitary(4, rng)
        channel = KrausChannel(
            depolarizing(0.9).tensor(bit_flip(0.8)).kraus_operators,
            validate=False,
        )
        via_traces = jamiolkowski_fidelity_kraus(
            channel.kraus_operators, u
        )
        via_choi = process_fidelity_choi(
            SuperOp(channel.matrix_rep()), SuperOp(np.kron(u, u.conj()))
        )
        assert np.isclose(via_traces, via_choi, atol=1e-8)

    def test_fidelity_from_traces_normalisation(self):
        assert np.isclose(fidelity_from_traces([4.0], 4), 1.0)
        assert np.isclose(fidelity_from_traces([2.0, 2.0], 4), 0.5)


class TestDenseCircuitPath:
    def test_noiseless_is_one(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        assert np.isclose(
            process_fidelity(circuit, circuit), 1.0
        )

    def test_depolarising_on_identity(self):
        """One depolarising channel vs identity: F_J = p + (1-p)/... ."""
        p = 0.9
        noisy = QuantumCircuit(1)
        noisy.append(depolarizing(p), [0])
        ideal = QuantumCircuit(1)
        # F_J = |tr(sqrt(p) I)|^2/4 + 3 * |tr(sqrt(q) P)|^2/4 = p.
        assert np.isclose(process_fidelity(noisy, ideal), p)

    def test_haar_average_interpretation(self, rng):
        """F_J relates to the average output fidelity over random inputs:
        avg F(E(psi), U psi) ~= (d F_J + 1) / (d + 1)."""
        ideal = QuantumCircuit(2).h(0).cx(0, 1).s(1)
        noisy = insert_random_noise(
            ideal, 2, channel_factory=lambda: depolarizing(0.92), seed=3
        )
        fj = process_fidelity(noisy, ideal)
        predicted = average_fidelity_from_jamiolkowski(fj, 4)
        u = ideal.to_matrix()
        superop = SuperOp(noisy).data
        samples = []
        for _ in range(300):
            psi = random_statevector(4, rng)
            rho_in = np.outer(psi, psi.conj()).reshape(-1)
            rho_out = (superop @ rho_in).reshape(4, 4)
            samples.append(
                float(np.real(np.conjugate(u @ psi) @ rho_out @ (u @ psi)))
            )
        assert np.isclose(np.mean(samples), predicted, atol=0.01)


class TestMetricProperties:
    def test_distance_at_extremes(self):
        assert jamiolkowski_distance(1.0) == 0.0
        assert jamiolkowski_distance(0.0) == 1.0

    def test_stability_under_ancilla(self):
        """F_J(E (x) I, U (x) I) == F_J(E, U) (paper property 1)."""
        p = 0.85
        noisy = QuantumCircuit(1)
        noisy.append(bit_flip(p), [0])
        ideal = QuantumCircuit(1)
        base = process_fidelity(noisy, ideal)

        noisy2 = QuantumCircuit(2)
        noisy2.append(bit_flip(p), [0])
        ideal2 = QuantumCircuit(2)
        extended = process_fidelity(noisy2, ideal2)
        assert np.isclose(base, extended, atol=1e-9)

    def test_chaining_inequality(self):
        """C_J(E1 o E2, U1 o U2) <= C_J(E1,U1) + C_J(E2,U2)."""
        p1, p2 = 0.9, 0.8
        ideal = QuantumCircuit(1).h(0)

        noisy_a = QuantumCircuit(1).h(0)
        noisy_a.append(bit_flip(p1), [0])
        noisy_b = QuantumCircuit(1)
        noisy_b.append(phase_flip_like(p2), [0])
        noisy_b.h(0)

        combined = QuantumCircuit(1).h(0)
        combined.append(bit_flip(p1), [0])
        combined.append(phase_flip_like(p2), [0])
        combined.h(0)
        ideal_combined = QuantumCircuit(1).h(0).h(0)

        c_a = jamiolkowski_distance(
            process_fidelity(noisy_a, ideal)
        )
        c_b = jamiolkowski_distance(
            process_fidelity(noisy_b, ideal)
        )
        c_all = jamiolkowski_distance(
            process_fidelity(combined, ideal_combined)
        )
        assert c_all <= c_a + c_b + 1e-9


def phase_flip_like(p):
    from repro.noise import phase_flip

    return phase_flip(p)
