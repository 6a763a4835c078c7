"""Dense super-operator semantics of circuits, through the baseline SuperOp."""

import numpy as np

from repro.baseline import SuperOp
from repro.circuits import QuantumCircuit
from repro.linalg import is_density_matrix, projector
from repro.noise import bit_flip, depolarizing
from oracles import double_circuit


def evolve(circuit, rho=None):
    """Apply the circuit's SuperOp to ``rho`` (default ``|0..0><0..0|``)."""
    d = 2**circuit.num_qubits
    if rho is None:
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = 1.0
    return (SuperOp(circuit).data @ rho.reshape(-1)).reshape(d, d)


class TestEvolveDensity:
    def test_unitary_circuit_matches_statevector(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        rho = evolve(circuit)
        assert np.allclose(rho, projector(circuit.statevector()))

    def test_trace_preserved_with_noise(self):
        circuit = QuantumCircuit(2).h(0)
        circuit.append(depolarizing(0.9), [0])
        circuit.cx(0, 1)
        circuit.append(bit_flip(0.8), [1])
        rho = evolve(circuit)
        assert np.isclose(np.trace(rho).real, 1.0)
        assert is_density_matrix(rho, atol=1e-8)

    def test_full_depolarisation(self):
        circuit = QuantumCircuit(1)
        # p=0 depolarising: rho -> (X rho X + Y rho Y + Z rho Z)/3; applied
        # to |0><0| this yields diag(1/3, 2/3).
        circuit.append(depolarizing(0.0), [0])
        rho = evolve(circuit)
        assert np.allclose(rho, np.diag([1 / 3, 2 / 3]))

    def test_custom_input(self):
        circuit = QuantumCircuit(1).x(0)
        rho_in = np.diag([0.2, 0.8])
        rho_out = evolve(circuit, rho_in)
        assert np.allclose(rho_out, np.diag([0.8, 0.2]))


class TestSuperoperatorMatrix:
    def test_identity_circuit(self):
        circuit = QuantumCircuit(1)
        assert np.allclose(SuperOp(circuit).data, np.eye(4))

    def test_matches_doubled_circuit(self, rng):
        """SuperOp evolution equals the doubled circuit's matrix, built
        gate by gate from ``M_N`` and ``U (x) U*`` independently."""
        from repro.linalg import random_density_matrix

        circuit = QuantumCircuit(2).h(0)
        circuit.append(depolarizing(0.9), [0])
        circuit.cx(0, 1)
        mat = double_circuit(circuit).to_matrix()
        rho = random_density_matrix(4, rng=rng)
        out_vec = mat @ rho.reshape(-1)
        assert np.allclose(out_vec.reshape(4, 4), evolve(circuit, rho))

    def test_composition_of_channels(self):
        circuit = QuantumCircuit(1)
        circuit.append(bit_flip(0.9), [0])
        circuit.append(bit_flip(0.9), [0])
        single = bit_flip(0.9).matrix_rep()
        assert np.allclose(SuperOp(circuit).data, single @ single)

    def test_noisy_circuit_is_trace_preserving(self):
        circuit = QuantumCircuit(2).h(0)
        circuit.append(depolarizing(0.9), [0])
        circuit.cx(0, 1)
        assert SuperOp(circuit).is_trace_preserving(atol=1e-8)
