"""Unit tests for miter constructions."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.core import (
    alg1_trace_network,
    alg2_trace_network,
    double_circuit,
    lower_kraus_selection,
    miter_circuit,
)
from repro.noise import bit_flip, depolarizing
from repro.tensornet import min_fill_order


class TestLowerKrausSelection:
    def test_replaces_channels(self):
        circuit = QuantumCircuit(1).h(0)
        circuit.append(bit_flip(0.9), [0])
        lowered = lower_kraus_selection(circuit, (1,))
        assert lowered.is_unitary_circuit is True  # all Gate instructions
        assert np.allclose(
            lowered[1].operation.matrix,
            bit_flip(0.9).kraus_operators[1],
        )

    def test_selection_length_checked(self):
        circuit = QuantumCircuit(1).h(0)
        with pytest.raises(ValueError):
            lower_kraus_selection(circuit, (0,))

    def test_kraus_index_range(self):
        circuit = QuantumCircuit(1)
        circuit.append(bit_flip(0.9), [0])
        with pytest.raises(ValueError):
            lower_kraus_selection(circuit, (2,))


class TestMiterCircuit:
    def test_identity_when_equal(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        miter = miter_circuit(circuit, circuit)
        assert np.allclose(miter.to_matrix(), np.eye(4))

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            miter_circuit(QuantumCircuit(1), QuantumCircuit(2))


class TestDoubleCircuit:
    def test_unitary_gets_conjugate_twin(self):
        circuit = QuantumCircuit(1).s(0)
        doubled = double_circuit(circuit)
        assert doubled.num_qubits == 2
        assert len(doubled) == 2
        u = doubled.to_matrix()
        s = np.diag([1, 1j])
        assert np.allclose(u, np.kron(s, np.conjugate(s)))

    def test_noise_becomes_matrix_rep(self):
        p = 0.9
        circuit = QuantumCircuit(1)
        circuit.append(bit_flip(p), [0])
        doubled = double_circuit(circuit)
        assert len(doubled) == 1
        assert doubled[0].qubits == (0, 1)
        assert np.allclose(
            doubled[0].operation.matrix, bit_flip(p).matrix_rep()
        )

    def test_doubled_implements_superoperator(self):
        """The doubled circuit's matrix equals M_E = sum_i E_i (x) E_i*."""
        from repro.baseline import SuperOp

        circuit = QuantumCircuit(2).h(0)
        circuit.append(depolarizing(0.9), [0])
        circuit.cx(0, 1)
        circuit.append(bit_flip(0.8), [1])
        doubled = double_circuit(circuit)
        # Doubled qubit layout is (q0, q1, q0', q1'), i.e. row bits then
        # column bits of the row-stacked vectorisation — exactly M_E.
        assert np.allclose(
            doubled.to_matrix(), SuperOp(circuit).data
        )


class TestTraceNetworks:
    def test_alg1_trace_value(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        net = alg1_trace_network(circuit, circuit)
        order = min_fill_order(net)
        value = net.contract(order=order).scalar()
        assert np.isclose(value, 4.0)  # tr(I) on 2 qubits

    def test_alg2_equivalence_value(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1).t(1)
        net = alg2_trace_network(circuit, circuit)
        order = min_fill_order(net)
        value = net.contract(order=order).scalar()
        assert np.isclose(value, 16.0)  # |tr(I)|^2 on 2 qubits

    def test_alg1_with_local_optimisations(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1).swap(0, 1)
        net = alg1_trace_network(
            circuit, circuit, use_local_optimisations=True
        )
        order = min_fill_order(net)
        value = net.contract(order=order).scalar()
        assert np.isclose(value, 4.0)

    def test_alg2_width_mismatch(self):
        with pytest.raises(ValueError):
            alg2_trace_network(QuantumCircuit(1), QuantumCircuit(2))
