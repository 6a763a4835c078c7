"""Unit tests for miter constructions and the test oracles."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.core import alg1_template, alg2_trace_network
from repro.core.miter import miter_ops
from repro.library import qft
from repro.noise import bit_flip, depolarizing
from repro.tensornet import min_fill_order, plan_from_order
from oracles import (
    double_circuit,
    lower_kraus_selection,
    miter_circuit,
    permutation_matrix,
    trace_network,
)


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
        net = alg1_template(
            circuit, circuit, use_local_optimisations=False
        ).network
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
        net = alg1_template(
            circuit, circuit, use_local_optimisations=True
        ).network
        order = min_fill_order(net)
        value = net.contract(order=order).scalar()
        assert np.isclose(value, 4.0)

    @pytest.mark.parametrize("circuit", [
        QuantumCircuit(2).h(0).cx(0, 1).t(0),
        QuantumCircuit(3),  # every wire closes on an identity
        QuantumCircuit(3).h(0),  # wires 1 and 2 untouched
    ], ids=["unitary", "empty", "partly_empty"])
    def test_closed_trace_of_a_circuit(self, circuit):
        value = trace_network(circuit).contract().scalar()
        assert np.isclose(value, np.trace(circuit.to_matrix()))

    def test_memoised_plans_share_labels_with_the_network(self):
        """Labels are interned across builds, and a plan's input label
        tuples are the tensors' own, so memoised plans hold no copies."""
        first, second = trace_network(qft(3)), trace_network(qft(3))
        for a, b in zip(first.tensors, second.tensors):
            assert all(x is y for x, y in zip(a.indices, b.indices))
        plan = plan_from_order(first)
        for labels, tensor in zip(plan.inputs, first.tensors):
            assert labels is tensor.indices

    def test_alg2_width_mismatch(self):
        with pytest.raises(ValueError):
            alg2_trace_network(QuantumCircuit(1), QuantumCircuit(2))

    @pytest.mark.parametrize("optimise", [True, False])
    def test_alg1_trace_of_two_different_circuits(self, optimise):
        a = QuantumCircuit(2).h(0).cx(0, 1)
        b = QuantumCircuit(2).s(1).cx(1, 0)
        net = alg1_template(a, b, use_local_optimisations=optimise).network
        expected = np.trace(b.to_matrix().conj().T @ a.to_matrix())
        assert np.isclose(net.contract().scalar(), expected)

    @pytest.mark.parametrize(
        "perm", [[1, 0], [0, 2, 1], [1, 2, 0], [2, 0, 1], [3, 2, 1, 0]]
    )
    def test_trace_through_a_wire_permutation(self, perm):
        circuit = swap_circuit(perm)
        assert np.allclose(circuit.to_matrix(), permutation_matrix(perm))
        value = trace_network(circuit).contract().scalar()
        assert np.isclose(value, np.trace(permutation_matrix(perm)))


def swap_circuit(perm):
    """SWAPs routing qubit ``q``'s state to wire ``perm[q]``."""
    circuit = QuantumCircuit(len(perm))
    holder = list(range(len(perm)))  # holder[w]: the qubit now on wire w
    for wire, qubit in sorted((w, q) for q, w in enumerate(perm)):
        current = holder.index(qubit)
        if current != wire:
            circuit.swap(wire, current)
            holder[wire], holder[current] = holder[current], holder[wire]
    return circuit


class TestMiterLabels:
    def test_labels_advance_per_wire(self):
        circuit = QuantumCircuit(3).h(0).cx(0, 1).t(1).h(0)
        assert [t.indices for t in trace_network(circuit).tensors] == [
            ("q0.1", "q0.0"),
            ("q0.2", "q1.1", "q0.1", "q1.0"),
            ("q1.0", "q1.1"),  # the last output closes on the input
            ("q0.0", "q0.2"),
            (),  # wire 2: a self-traced identity
        ]

    def test_untouched_wire_closes_on_an_identity(self):
        tensors = trace_network(QuantumCircuit(2).h(0)).tensors
        assert tensors[-1].indices == ()
        assert np.isclose(tensors[-1].data, 2.0)

    def test_doubled_network_labels_the_primed_wires(self):
        circuit = QuantumCircuit(2).h(0).t(0)
        net = alg2_trace_network(
            circuit, QuantumCircuit(2), use_local_optimisations=False
        )
        assert [t.indices for t in net.tensors] == [
            ("q0.1", "q0.0"), ("q2.1", "q2.0"),
            ("q0.0", "q0.1"), ("q2.0", "q2.1"),
            (), (),  # wire 1 and its primed copy 3
        ]

    def test_noisy_ideal_rejected(self):
        noisy = QuantumCircuit(1)
        noisy.append(bit_flip(0.9), [0])
        with pytest.raises(ValueError, match="noise channels"):
            miter_ops(QuantumCircuit(1), noisy)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="same width"):
            miter_ops(QuantumCircuit(1), QuantumCircuit(2))


class TestPermutationMatrix:
    def test_identity(self):
        assert np.allclose(permutation_matrix([0, 1]), np.eye(4))

    def test_swap(self):
        swap = QuantumCircuit(2).swap(0, 1).to_matrix()
        assert np.allclose(permutation_matrix([1, 0]), swap)

    def test_three_cycle(self):
        mat = permutation_matrix([1, 2, 0])
        assert np.allclose(mat @ mat.conj().T, np.eye(8))
        assert np.allclose(np.linalg.matrix_power(mat, 3), np.eye(8))
