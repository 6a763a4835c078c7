"""End-to-end checks with multi-qubit noise channels.

The paper's experiments use 1-qubit depolarising noise, but the
algorithms are defined for arbitrary-width channels: Algorithm II's
``M_N`` then spans 2l qubits.  These tests pin that path against the
dense reference.
"""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.core import (
    CheckConfig,
    CheckSession,
    fidelity_collective,
    fidelity_individual,
    jamiolkowski_fidelity_dense,
)
from repro.linalg import random_kraus_set
from repro.noise import KrausChannel, two_qubit_depolarizing


def ghz(n):
    circuit = QuantumCircuit(n, f"ghz{n}").h(0)
    for q in range(n - 1):
        circuit.cx(q, q + 1)
    return circuit


class TestTwoQubitDepolarizing:
    def test_alg2_matches_dense(self):
        ideal = ghz(3)
        noisy = QuantumCircuit(3).h(0)
        noisy.append(two_qubit_depolarizing(0.98), [0, 1])
        noisy.cx(0, 1).cx(1, 2)
        ref = jamiolkowski_fidelity_dense(noisy, ideal, max_terms=None)
        result = fidelity_collective(noisy, ideal)
        assert np.isclose(result.fidelity, ref, atol=1e-8)

    def test_alg1_matches_dense(self):
        ideal = ghz(2)
        noisy = QuantumCircuit(2).h(0).cx(0, 1)
        noisy.append(two_qubit_depolarizing(0.95), [0, 1])
        ref = jamiolkowski_fidelity_dense(noisy, ideal, max_terms=None)
        result = fidelity_individual(noisy, ideal)
        assert result.stats.terms_total == 16
        assert np.isclose(result.fidelity, ref, atol=1e-8)

    def test_non_adjacent_qubits(self):
        """Channel on non-adjacent qubits (0, 2) exercises embedding."""
        ideal = ghz(3)
        noisy = ghz(3)
        noisy.append(two_qubit_depolarizing(0.97), [0, 2])
        ref = jamiolkowski_fidelity_dense(noisy, ideal, max_terms=None)
        result = fidelity_collective(noisy, ideal)
        assert np.isclose(result.fidelity, ref, atol=1e-8)

    def test_reversed_qubit_order(self):
        ideal = ghz(2)
        noisy = ghz(2)
        noisy.append(two_qubit_depolarizing(0.97), [1, 0])
        ref = jamiolkowski_fidelity_dense(noisy, ideal, max_terms=None)
        result = fidelity_collective(noisy, ideal)
        assert np.isclose(result.fidelity, ref, atol=1e-8)


class TestArbitraryKrausChannels:
    def test_random_two_qubit_channel(self, rng):
        """A Haar-random CPTP channel (not mixed-unitary, 3 Kraus ops)."""
        channel = KrausChannel(random_kraus_set(4, 3, rng), "rand2q")
        ideal = ghz(2)
        noisy = ghz(2)
        noisy.append(channel, [0, 1])
        ref = jamiolkowski_fidelity_dense(noisy, ideal, max_terms=None)
        f1 = fidelity_individual(noisy, ideal).fidelity
        f2 = fidelity_collective(noisy, ideal).fidelity
        assert np.isclose(f1, ref, atol=1e-8)
        assert np.isclose(f2, ref, atol=1e-8)

    def test_mixed_widths_in_one_circuit(self, rng):
        from repro.noise import bit_flip

        ideal = ghz(3)
        noisy = QuantumCircuit(3).h(0)
        noisy.append(bit_flip(0.95), [1])
        noisy.cx(0, 1)
        noisy.append(two_qubit_depolarizing(0.98), [1, 2])
        noisy.cx(1, 2)
        ref = jamiolkowski_fidelity_dense(noisy, ideal, max_terms=None)
        f2 = fidelity_collective(noisy, ideal).fidelity
        f1 = fidelity_individual(noisy, ideal).fidelity
        assert np.isclose(f2, ref, atol=1e-8)
        assert np.isclose(f1, ref, atol=1e-8)

    def test_checker_with_two_qubit_noise(self):
        ideal = ghz(3)
        noisy = ghz(3)
        noisy.append(two_qubit_depolarizing(0.999), [0, 1])
        out = CheckSession(CheckConfig(epsilon=0.01)).check(ideal, noisy)
        assert out.equivalent
