"""Unit tests for the dense Qiskit-style baseline."""

import numpy as np
import pytest

from repro.baseline import (
    MemoryLimitExceeded,
    Operator,
    SuperOp,
    average_gate_fidelity,
    estimate_superop_bytes,
    process_fidelity,
    process_fidelity_choi,
)
from repro.circuits import QuantumCircuit
from repro.core import fidelity_collective
from repro.library import qft
from repro.noise import bit_flip, depolarizing, insert_random_noise, phase_flip
from oracles import double_circuit


class TestOperator:
    def test_from_circuit(self):
        op = Operator(QuantumCircuit(1).h(0))
        assert op.dim == 2 and op.is_unitary()

    def test_adjoint_compose_identity(self):
        op = Operator(qft(2))
        composed = op.compose(op.adjoint())
        assert np.allclose(composed.data, np.eye(4), atol=1e-10)

    def test_tensor(self):
        a = Operator(np.eye(2))
        b = Operator(np.diag([1, -1]))
        assert a.tensor(b).dim == 4

    def test_equiv_up_to_phase(self):
        op = Operator(qft(2))
        shifted = Operator(np.exp(0.3j) * op.data)
        assert op.equiv(shifted)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Operator(np.zeros((2, 3)))


class TestSuperOp:
    def test_identity_circuit(self):
        sop = SuperOp(QuantumCircuit(2))
        assert np.allclose(sop.data, np.eye(16))

    def test_matches_doubled_circuit(self):
        circuit = QuantumCircuit(2).h(0)
        circuit.append(depolarizing(0.9), [0])
        circuit.cx(0, 1)
        sop = SuperOp(circuit)
        assert np.allclose(sop.data, double_circuit(circuit).to_matrix())

    def test_trace_preserving(self):
        circuit = QuantumCircuit(2).h(0)
        circuit.append(bit_flip(0.8), [1])
        assert SuperOp(circuit).is_trace_preserving()

    def test_choi_normalised_trace(self):
        circuit = QuantumCircuit(1).h(0)
        choi = SuperOp(circuit).to_choi(normalised=True)
        assert np.isclose(np.trace(choi).real, 1.0)

    def test_compose(self):
        a = SuperOp(QuantumCircuit(1).x(0))
        b = SuperOp(QuantumCircuit(1).h(0))
        composed = a.compose(b)
        direct = SuperOp(QuantumCircuit(1).x(0).h(0))
        assert np.allclose(composed.data, direct.data)

    def test_memory_guard_triggers(self):
        with pytest.raises(MemoryLimitExceeded):
            SuperOp(QuantumCircuit(7), memory_limit_bytes=8 * 1024**3)

    def test_memory_guard_passes_small(self):
        SuperOp(QuantumCircuit(3), memory_limit_bytes=8 * 1024**3)

    def test_estimate_monotone(self):
        assert estimate_superop_bytes(7) > estimate_superop_bytes(6)

    def test_from_matrix(self):
        mat = np.eye(16)
        sop = SuperOp(mat)
        assert sop.num_qubits == 2


class TestProcessFidelity:
    def test_noiseless_is_one(self):
        circuit = qft(3)
        assert np.isclose(process_fidelity(circuit, circuit), 1.0)

    def test_matches_core_definition(self):
        ideal = qft(3)
        noisy = insert_random_noise(ideal, 3, seed=21)
        baseline = process_fidelity(noisy, ideal)
        reference = fidelity_collective(noisy, ideal, backend="tdd").fidelity
        assert np.isclose(baseline, reference, atol=1e-9)

    def test_identity_target_default(self):
        circuit = QuantumCircuit(1)
        circuit.append(bit_flip(0.9), [0])
        assert np.isclose(process_fidelity(circuit), 0.9, atol=1e-9)

    def test_operator_target(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 1, seed=3)
        f1 = process_fidelity(noisy, ideal)
        f2 = process_fidelity(noisy, Operator(ideal))
        assert np.isclose(f1, f2)

    def test_choi_path_agrees(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 2, seed=3)
        f_fast = process_fidelity(noisy, ideal)
        f_choi = process_fidelity_choi(noisy, ideal)
        assert np.isclose(f_fast, f_choi, atol=1e-7)

    def test_rejects_a_target_that_is_not_a_square_matrix(self):
        with pytest.raises(ValueError, match=r"\(16,\).*\(4, 4\)"):
            process_fidelity(QuantumCircuit(2), np.ones(16))

    def test_rejects_a_target_of_another_width(self):
        with pytest.raises(ValueError, match=r"\(8, 8\).*\(4, 4\)"):
            process_fidelity(qft(2), qft(3))

    def test_choi_path_rejects_channels_of_different_widths(self):
        with pytest.raises(ValueError, match="2 qubits.* 3"):
            process_fidelity_choi(qft(2), qft(3))

    def test_type_error(self):
        with pytest.raises(TypeError):
            process_fidelity("not a circuit")

    def test_memory_limit_propagates(self):
        with pytest.raises(MemoryLimitExceeded):
            process_fidelity(
                QuantumCircuit(8),
                QuantumCircuit(8),
                memory_limit_bytes=8 * 1024**3,
            )


class TestNoisyVsNoisy:
    """``process_fidelity_choi``: Definition 1 between two noisy circuits."""

    def test_identical_noisy_circuits(self):
        noisy = insert_random_noise(qft(2), 2, seed=4)
        assert np.isclose(
            process_fidelity_choi(noisy, noisy), 1.0, atol=1e-7
        )

    def test_reduces_to_unitary_case(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 2, seed=4)
        general = process_fidelity_choi(noisy, ideal)
        special = fidelity_collective(noisy, ideal, backend="tdd").fidelity
        assert np.isclose(general, special, atol=1e-6)

    def test_two_different_noisy_circuits(self):
        a = QuantumCircuit(1).h(0)
        a.append(phase_flip(0.9), [0])
        b = QuantumCircuit(1).h(0)
        b.append(phase_flip(0.8), [0])
        f = process_fidelity_choi(a, b)
        assert 0.9 < f < 1.0


class TestAverageGateFidelity:
    def test_relation_to_process_fidelity(self):
        circuit = QuantumCircuit(1)
        circuit.append(depolarizing(0.9), [0])
        fpro = process_fidelity(circuit)
        favg = average_gate_fidelity(circuit)
        assert np.isclose(favg, (2 * fpro + 1) / 3)
