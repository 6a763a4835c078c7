"""Unit tests for exact (noiseless) unitary equivalence checking."""

import math

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.core import check_unitary_equivalence, unitary_equivalent
from repro.library import qft
from repro.noise import bit_flip

BACKENDS = ["tdd", "dense", "einsum"]


class TestEquivalentPairs:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_identical_circuits(self, backend):
        circuit = qft(4)
        result = check_unitary_equivalence(circuit, circuit, backend=backend)
        assert result.equivalent
        assert result.stats.backend == backend
        assert np.isclose(result.trace_ratio, 1.0)
        assert np.isclose(result.fidelity, 1.0)

    def test_global_phase_ignored(self):
        a = QuantumCircuit(1).rz(math.pi, 0)  # e^{-i pi/2} Z
        b = QuantumCircuit(1).z(0)
        assert unitary_equivalent(a, b)

    def test_different_decompositions(self):
        # H = e^{i pi/2} Rz(pi/2) Rx(pi/2) Rz(pi/2)  up to phase.
        a = QuantumCircuit(1).h(0)
        b = QuantumCircuit(1)
        b.rz(math.pi / 2, 0).rx(math.pi / 2, 0).rz(math.pi / 2, 0)
        assert unitary_equivalent(a, b)

    def test_commuted_gates(self):
        a = QuantumCircuit(2).z(0).cx(0, 1)
        b = QuantumCircuit(2).cx(0, 1).z(0)  # Z on control commutes
        assert unitary_equivalent(a, b)

    def test_swap_as_three_cx(self):
        a = QuantumCircuit(2).swap(0, 1)
        b = QuantumCircuit(2).cx(0, 1).cx(1, 0).cx(0, 1)
        assert unitary_equivalent(a, b)

    def test_miter_cancellation_shortcut(self):
        """Equal circuits should need almost no decision-diagram work."""
        circuit = qft(5)
        result = check_unitary_equivalence(circuit, circuit, backend="tdd")
        assert result.equivalent
        assert result.stats.max_nodes <= 4


class TestInequivalentPairs:
    def test_extra_gate_detected(self):
        a = qft(3)
        b = qft(3).x(0)
        result = check_unitary_equivalence(a, b)
        assert not result.equivalent
        assert result.trace_ratio < 1.0

    def test_near_miss_quantified(self):
        a = QuantumCircuit(1)
        b = QuantumCircuit(1).rz(0.01, 0)
        result = check_unitary_equivalence(a, b)
        assert not result.equivalent
        assert result.fidelity > 0.999  # tiny rotation, tiny infidelity

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("optimise", [True, False])
    def test_fidelity_matches_dense(self, backend, optimise):
        a = qft(2)
        b = qft(2).t(1)
        result = check_unitary_equivalence(
            a, b, use_local_optimisations=optimise, backend=backend
        )
        ua, ub = a.to_matrix(), b.to_matrix()
        expected = abs(np.trace(ua.conj().T @ ub)) ** 2 / 16
        assert np.isclose(result.fidelity, expected, atol=1e-9)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_agree(self, backend):
        a = qft(4)
        b = qft(4).rz(0.3, 2).cx(0, 3)
        reference = check_unitary_equivalence(
            a, b, use_local_optimisations=False
        )
        result = check_unitary_equivalence(
            a, b, use_local_optimisations=False, backend=backend
        )
        assert abs(result.trace_ratio - reference.trace_ratio) < 1e-9
        assert abs(result.fidelity - reference.fidelity) < 1e-9
        assert result.equivalent == reference.equivalent


class TestValidation:
    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            check_unitary_equivalence(qft(2), qft(3))

    def test_noisy_circuit_rejected(self):
        noisy = QuantumCircuit(1)
        noisy.append(bit_flip(0.9), [0])
        with pytest.raises(ValueError):
            check_unitary_equivalence(QuantumCircuit(1), noisy)

    def test_noisy_error_names_the_noisy_front_ends(self):
        noisy = QuantumCircuit(1)
        noisy.append(bit_flip(0.9), [0])
        with pytest.raises(ValueError, match="CheckSession or Engine"):
            check_unitary_equivalence(noisy, QuantumCircuit(1))

    def test_unknown_backend_lists_choices(self):
        with pytest.raises(ValueError, match="tdd"):
            check_unitary_equivalence(qft(2), qft(2), backend="bogus")

    def test_without_optimisations(self):
        circuit = qft(3)
        result = check_unitary_equivalence(
            circuit, circuit, use_local_optimisations=False
        )
        assert result.equivalent
