"""Unit tests for the wire-stack cancellation pass (Sec. IV-C).

The pass runs under the miter shrink's inverse-pair rule, as every
check runs it; ``tests/core/test_miter_shrink.py`` covers the rotation
to the first noise and the miter-level edge cases.  Rotations are
paired like any other gate, by their product: the shrink never merges
two rotations into one.
"""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit, cancel_on_wire_stacks
from repro.core.miter import alg1_template, miter_ops, shrink_miter
from repro.gates.standard import rz_gate
from repro.noise import bit_flip


def kept(circuit):
    """Names of the gates the shrink keeps of ``circuit`` (empty ``U``)."""
    ops = miter_ops(
        circuit, QuantumCircuit(circuit.num_qubits),
        use_local_optimisations=False,
    )
    return [op.operation.name for op in shrink_miter(ops)]


class TestInversePairs:
    def test_hh_cancels(self):
        assert kept(QuantumCircuit(1).h(0).h(0)) == []

    def test_ssdg_cancels(self):
        assert kept(QuantumCircuit(1).s(0).sdg(0)) == []

    def test_cx_different_direction_kept(self):
        assert kept(QuantumCircuit(2).cx(0, 1).cx(1, 0)) == ["cx", "cx"]

    def test_cascading_cancellation(self):
        # h x x h collapses completely once the inner pair goes.
        assert kept(QuantumCircuit(1).h(0).x(0).x(0).h(0)) == []

    def test_interposed_gate_blocks(self):
        assert kept(QuantumCircuit(1).h(0).t(0).h(0)) == ["h", "t", "h"]

    def test_noise_blocks_cancellation(self):
        # the first channel leads, so the rotation keeps the order
        circuit = QuantumCircuit(1)
        circuit.append(bit_flip(0.9), [0])
        circuit.h(0)
        circuit.append(bit_flip(0.8), [0])
        circuit.h(0)
        assert kept(circuit) == ["bit_flip", "h", "bit_flip", "h"]

    def test_partial_shared_wire_not_cancelled(self):
        # cx(0,1) and cx(0,2): share wire 0 only; must not pair.
        assert kept(QuantumCircuit(3).cx(0, 1).cx(0, 2)) == ["cx", "cx"]


class TestWireStacks:
    def test_rule_sees_only_same_tuple_tops(self):
        asked = []

        def cancels(top, op):
            asked.append((top.name, op.name))
            return top.name == op.name == "h"

        circuit = QuantumCircuit(2).h(0).cx(0, 1).cx(1, 0).t(1).h(1).h(1)
        out = cancel_on_wire_stacks(circuit.instructions, cancels)
        assert [inst.name for inst in out] == ["h", "cx", "cx", "t"]
        # never asked about the cx pair: their qubit tuples differ
        assert asked == [("t", "h"), ("h", "h")]

    def test_popping_exposes_the_operation_below(self):
        circuit = QuantumCircuit(2).x(0).cx(0, 1).cx(0, 1).x(0)
        out = cancel_on_wire_stacks(
            circuit.instructions, lambda top, op: top.name == op.name
        )
        assert out == []


def shrunk_trace(circuit):
    """``tr(C)``, contracted from what the shrink keeps of ``C``."""
    empty = QuantumCircuit(circuit.num_qubits)
    return alg1_template(circuit, empty).network.contract().scalar()


def rotations(gate, angles):
    """One-qubit circuit of ``gate`` rotations by ``angles``, in order."""
    circuit = QuantumCircuit(1)
    for angle in angles:
        getattr(circuit, gate)(angle, 0)
    return circuit


class TestRotationPairs:
    """Rotations pair only when their product is the identity.

    The shrink never merges two rotations into one: a pair whose angles
    do not cancel stays as two tensors, and the trace is unchanged.
    """

    @pytest.mark.parametrize("gate", ["rx", "ry", "rz", "p"])
    def test_opposite_angles_cancel(self, gate):
        assert kept(rotations(gate, [0.3, -0.3])) == []

    @pytest.mark.parametrize("gate", ["rx", "ry", "rz", "p"])
    def test_adjacent_rotations_are_kept_unmerged(self, gate):
        circuit = rotations(gate, [0.3, 0.4])
        assert kept(circuit) == [gate, gate]
        assert np.isclose(shrunk_trace(circuit), np.trace(circuit.to_matrix()))

    @pytest.mark.parametrize("gate", ["rx", "ry", "rz"])
    def test_angles_summing_to_4pi_cancel(self, gate):
        assert kept(rotations(gate, [np.pi, 3 * np.pi])) == []

    @pytest.mark.parametrize("gate", ["rx", "ry", "rz"])
    def test_angles_summing_to_2pi_are_minus_identity_and_kept(self, gate):
        # rotations have period 4π: a 2π sum is -I, whose trace is -2
        circuit = rotations(gate, [np.pi, np.pi])
        assert kept(circuit) == [gate, gate]
        assert np.isclose(shrunk_trace(circuit), -2.0)

    def test_p_gate_period_is_2pi(self):
        assert kept(rotations("p", [np.pi / 2, 3 * np.pi / 2])) == []

    def test_nested_inverse_rotations_cancel_in_one_pass(self):
        assert kept(rotations("rz", [0.1, 0.2, -0.2, -0.1])) == []

    def test_a_summed_angle_is_not_cancelled(self):
        # rz(0.2) rz(0.3) rz(-0.5) is the identity, but no adjacent pair is
        circuit = rotations("rz", [0.2, 0.3, -0.5])
        assert kept(circuit) == ["rz", "rz", "rz"]
        assert np.isclose(shrunk_trace(circuit), 2.0)

    def test_different_axes_are_kept(self):
        assert kept(QuantumCircuit(1).rx(0.3, 0).rz(-0.3, 0)) == ["rx", "rz"]

    def test_different_wires_are_kept(self):
        assert kept(QuantumCircuit(2).rz(0.3, 0).rz(-0.3, 1)) == ["rz", "rz"]

    def test_noise_blocks_pairing(self):
        circuit = QuantumCircuit(1)
        circuit.append(bit_flip(0.9), [0])
        circuit.rz(0.3, 0)
        circuit.append(bit_flip(0.8), [0])
        circuit.rz(-0.3, 0)
        assert kept(circuit) == ["bit_flip", "rz", "bit_flip", "rz"]

    def test_interposed_gate_blocks_pairing(self):
        circuit = QuantumCircuit(1).rz(0.3, 0).h(0).rz(-0.3, 0)
        assert kept(circuit) == ["rz", "h", "rz"]

    def test_a_daggered_rotation_cancels_its_original(self):
        circuit = QuantumCircuit(1)
        circuit.append(rz_gate(0.3).dagger(), [0])
        circuit.rz(0.3, 0)
        assert kept(circuit) == []

    def test_two_daggered_rotations_are_kept(self):
        # rz_dg keeps params=(θ,) but its matrix is rz(-θ): the pair is
        # rz(-0.6), not the identity
        circuit = QuantumCircuit(1)
        circuit.append(rz_gate(0.3).dagger(), [0])
        circuit.append(rz_gate(0.3).dagger(), [0])
        assert kept(circuit) == ["rz_dg", "rz_dg"]
        assert np.isclose(shrunk_trace(circuit), np.trace(circuit.to_matrix()))

    def test_trace_kept_on_a_mixed_circuit(self):
        circuit = (
            QuantumCircuit(2)
            .rz(0.2, 0).rz(0.3, 0)
            .cx(0, 1)
            .rx(1.0, 1).rx(-1.0, 1)
            .ry(0.5, 0).ry(0.6, 0)
        )
        assert kept(circuit) == ["rz", "rz", "cx", "ry", "ry"]
        assert np.isclose(shrunk_trace(circuit), np.trace(circuit.to_matrix()))
