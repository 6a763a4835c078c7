"""Unit tests for the benchmark circuit generators."""

import math

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.library import (
    bernstein_vazirani,
    grover,
    mod_mult_7x15,
    multi_controlled_x,
    qft,
    qft_dagger,
    quantum_volume,
    randomized_benchmarking,
)
from repro.linalg import allclose_up_to_global_phase


class TestBernsteinVazirani:
    @pytest.mark.parametrize("n", [2, 4, 6, 9])
    def test_gate_count(self, n):
        assert bernstein_vazirani(n).num_gates == 3 * (n - 1) + 2

    def test_finds_secret(self):
        secret = [1, 0, 1]
        circuit = bernstein_vazirani(4, secret)
        vec = circuit.statevector()
        probs = np.abs(vec) ** 2
        # Data qubits must equal the secret; ancilla is in |->.
        data_of = lambda idx: idx >> 1
        support = {data_of(i) for i in np.nonzero(probs > 1e-9)[0]}
        assert support == {0b101}

    def test_secret_validation(self):
        with pytest.raises(ValueError):
            bernstein_vazirani(3, [1, 2])

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            bernstein_vazirani(1)


class TestQft:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_unitary_is_dft(self, n):
        d = 2**n
        omega = np.exp(2j * np.pi / d)
        dft = np.array(
            [[omega ** (i * j) for j in range(d)] for i in range(d)]
        ) / math.sqrt(d)
        assert np.allclose(qft(n).to_matrix(), dft)

    def test_without_swaps_is_bit_reversed(self):
        n = 3
        full = qft(n).to_matrix()
        noswap = qft(n, with_swaps=False).to_matrix()
        from oracles import permutation_matrix

        reversal = permutation_matrix(list(reversed(range(n))))
        assert np.allclose(reversal @ noswap, full)

    def test_decomposed_matches(self):
        a = qft(3).to_matrix()
        b = qft(3, decompose=True).to_matrix()
        assert allclose_up_to_global_phase(a, b)

    def test_dagger_inverts(self):
        n = 3
        product = qft_dagger(n).to_matrix() @ qft(n).to_matrix()
        assert np.allclose(product, np.eye(2**n), atol=1e-9)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            qft(0)


class TestGrover:
    @pytest.mark.parametrize("n,min_prob", [(3, 0.9), (4, 0.9)])
    def test_success_probability(self, n, min_prob):
        circuit = grover(n)
        vec = circuit.statevector()
        data = n - 1
        marked = 2**data - 1
        prob = sum(
            abs(vec[i]) ** 2
            for i in range(2**n)
            if (i >> 1) == marked
        )
        assert prob > min_prob

    def test_custom_marked_item(self):
        circuit = grover(3, marked=1)
        vec = circuit.statevector()
        prob = sum(
            abs(vec[i]) ** 2 for i in range(8) if (i >> 1) == 1
        )
        assert prob > 0.9

    def test_marked_out_of_range(self):
        with pytest.raises(ValueError):
            grover(3, marked=4)

    def test_iterations_override(self):
        one = grover(3, iterations=1)
        two = grover(3, iterations=2)
        assert two.num_gates > one.num_gates


class TestMultiControlledX:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_truth_table(self, k):
        circuit = QuantumCircuit(k + 1)
        multi_controlled_x(circuit, list(range(k)), k)
        mat = circuit.to_matrix()
        dim = 2 ** (k + 1)
        expected = np.eye(dim)
        expected[dim - 2:, dim - 2:] = np.array([[0, 1], [1, 0]])
        assert allclose_up_to_global_phase(mat, expected)


class TestQuantumVolume:
    def test_shape(self):
        circuit = quantum_volume(4, 3, seed=0)
        assert circuit.num_qubits == 4
        assert circuit.name == "qv_n4d3"

    def test_unitary(self):
        circuit = quantum_volume(3, 2, seed=1)
        mat = circuit.to_matrix()
        assert np.allclose(mat @ mat.conj().T, np.eye(8), atol=1e-9)

    def test_deterministic_seed(self):
        a = quantum_volume(3, 3, seed=5).to_matrix()
        b = quantum_volume(3, 3, seed=5).to_matrix()
        assert np.allclose(a, b)

    def test_opaque_blocks(self):
        circuit = quantum_volume(4, 2, seed=0, decompose=False)
        assert all(inst.name == "su4" for inst in circuit)

    def test_default_depth_square(self):
        circuit = quantum_volume(3, seed=0)
        assert circuit.name == "qv_n3d3"

    def test_too_small(self):
        with pytest.raises(ValueError):
            quantum_volume(1)


class TestModMult:
    def test_gate_count_matches_paper(self):
        circuit = mod_mult_7x15()
        assert circuit.num_qubits == 5
        assert circuit.num_gates == 14

    def test_uncontrolled_permutation(self):
        mat = mod_mult_7x15(controlled=False).to_matrix()
        for y in range(1, 15):
            out = int(np.argmax(np.abs(mat[:, y])))
            assert out == (7 * y) % 15

    def test_controlled_acts_only_when_control_set(self):
        mat = mod_mult_7x15().to_matrix()
        # The first gate is H on the control, so compare against the
        # circuit without it: build the controlled part manually.
        circuit = mod_mult_7x15()
        body = QuantumCircuit(5)
        for inst in list(circuit)[1:]:
            body.append(inst.operation, inst.qubits)
        u = body.to_matrix()
        # Control clear (block 0..15): identity.
        assert np.allclose(u[:16, :16], np.eye(16), atol=1e-9)

    def test_controlled_applies_u7(self):
        circuit = mod_mult_7x15()
        body = QuantumCircuit(5)
        for inst in list(circuit)[1:]:
            body.append(inst.operation, inst.qubits)
        u = body.to_matrix()
        u7 = mod_mult_7x15(controlled=False).to_matrix()
        assert np.allclose(u[16:, 16:], u7, atol=1e-9)


class TestRandomizedBenchmarking:
    def test_identity_overall(self):
        circuit = randomized_benchmarking(2, 6, seed=9)
        assert allclose_up_to_global_phase(
            circuit.to_matrix(), np.eye(4)
        )

    def test_gate_count(self):
        assert randomized_benchmarking(2, 6, seed=0).num_gates == 7

    def test_single_qubit(self):
        circuit = randomized_benchmarking(1, 10, seed=3)
        assert allclose_up_to_global_phase(
            circuit.to_matrix(), np.eye(2)
        )

    def test_zero_length(self):
        circuit = randomized_benchmarking(2, 0, seed=0)
        assert circuit.num_gates == 1  # just the recovery

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            randomized_benchmarking(0)
        with pytest.raises(ValueError):
            randomized_benchmarking(2, -1)
