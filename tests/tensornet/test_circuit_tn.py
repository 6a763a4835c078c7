"""Unit tests for circuit -> tensor network conversion and closure."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit, eliminate_final_swaps
from repro.library import qft
from repro.noise import bit_flip
from repro.tensornet import circuit_to_network, close_trace, connect


def dense_trace(circuit, permutation=None):
    """tr of a circuit's matrix, contracted by the Tensor.contract oracle."""
    return close_trace(
        circuit_to_network(circuit), permutation=permutation
    ).contract().scalar()


class TestConversion:
    def test_labels_advance_per_wire(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        cnet = circuit_to_network(circuit)
        assert cnet.input_labels == ["q0.0", "q1.0"]
        assert cnet.output_labels == ["q0.2", "q1.1"]

    def test_noise_rejected(self):
        circuit = QuantumCircuit(1)
        circuit.append(bit_flip(0.9), [0])
        with pytest.raises(ValueError):
            circuit_to_network(circuit)

    def test_prefix(self):
        cnet = circuit_to_network(QuantumCircuit(1).h(0), prefix="L.")
        assert cnet.input_labels == ["L.q0.0"]

    def test_memoised_plans_share_labels_with_the_network(self):
        """Labels are interned across builds, and a plan's input label
        tuples are the tensors' own, so memoised plans hold no copies."""
        from repro.tensornet import plan_from_order

        first = close_trace(circuit_to_network(qft(3)))
        second = close_trace(circuit_to_network(qft(3)))
        for a, b in zip(first.tensors, second.tensors):
            assert all(x is y for x, y in zip(a.indices, b.indices))
        plan = plan_from_order(first)
        for labels, tensor in zip(plan.inputs, first.tensors):
            assert labels is tensor.indices

    def test_open_contraction_matches_matrix(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1).s(1)
        cnet = circuit_to_network(circuit)
        result = cnet.network.contract()
        out = result.transpose(cnet.output_labels + cnet.input_labels)
        assert np.allclose(out.data.reshape(4, 4), circuit.to_matrix())


class TestCloseTrace:
    def test_trace_of_unitary(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1).t(0)
        value = dense_trace(circuit)
        assert np.isclose(value, np.trace(circuit.to_matrix()))

    def test_empty_circuit(self):
        assert np.isclose(dense_trace(QuantumCircuit(3)), 8.0)

    def test_partially_empty_wires(self):
        circuit = QuantumCircuit(3).h(0)  # wires 1, 2 untouched
        value = dense_trace(circuit)
        expected = np.trace(circuit.to_matrix())
        assert np.isclose(value, expected)

    def test_permutation_closure_swap(self):
        circuit = QuantumCircuit(2).h(0).swap(0, 1)
        stripped, perm = eliminate_final_swaps(circuit)
        value = dense_trace(stripped, permutation=perm)
        assert np.isclose(value, np.trace(circuit.to_matrix()))

    def test_permutation_closure_qft(self):
        circuit = qft(4)
        stripped, perm = eliminate_final_swaps(circuit)
        assert np.isclose(
            dense_trace(stripped, permutation=perm),
            np.trace(circuit.to_matrix()),
        )

    def test_permutation_of_untouched_wires(self):
        # Closing an empty 2-qubit circuit through a swap computes
        # tr(SWAP) = 2.
        circuit = QuantumCircuit(2)
        assert np.isclose(dense_trace(circuit, permutation=[1, 0]), 2.0)

    def test_bad_permutation(self):
        circuit = QuantumCircuit(2).h(0)
        with pytest.raises(ValueError):
            close_trace(circuit_to_network(circuit), permutation=[0, 0])


class TestConnect:
    def test_serial_composition(self):
        a = QuantumCircuit(2).h(0).cx(0, 1)
        b = QuantumCircuit(2).s(1).cx(1, 0)
        joined = connect(circuit_to_network(a), circuit_to_network(b, "B."))
        result = joined.network.contract()
        out = result.transpose(joined.output_labels + joined.input_labels)
        expected = b.to_matrix() @ a.to_matrix()
        assert np.allclose(out.data.reshape(4, 4), expected)

    def test_width_mismatch(self):
        a = circuit_to_network(QuantumCircuit(1).h(0))
        b = circuit_to_network(QuantumCircuit(2).h(0), "B.")
        with pytest.raises(ValueError):
            connect(a, b)


class TestBackendAgreement:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_qft_trace_matches_dense(self, n):
        circuit = qft(n)
        assert np.isclose(
            dense_trace(circuit), np.trace(circuit.to_matrix())
        )
