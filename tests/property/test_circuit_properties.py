"""Property-based tests on circuits and trace networks."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit, cancel_adjacent_gates
from repro.backends import TddBackend
from repro.tensornet import circuit_to_network, close_trace

GATE_POOL = ["h", "x", "y", "z", "s", "sdg", "t", "tdg"]


@st.composite
def random_circuits(draw, max_qubits=3, max_gates=10):
    n = draw(st.integers(1, max_qubits))
    circuit = QuantumCircuit(n)
    num_gates = draw(st.integers(0, max_gates))
    for _ in range(num_gates):
        if n >= 2 and draw(st.booleans()):
            pair = draw(
                st.permutations(list(range(n))).map(lambda p: p[:2])
            )
            circuit.cx(pair[0], pair[1])
        else:
            name = draw(st.sampled_from(GATE_POOL))
            getattr(circuit, name)(draw(st.integers(0, n - 1)))
    return circuit


class TestTraceNetworks:
    @given(random_circuits())
    @settings(max_examples=50, deadline=None)
    def test_network_trace_matches_dense(self, circuit):
        net = close_trace(circuit_to_network(circuit))
        assert np.isclose(
            net.contract().scalar(),
            np.trace(circuit.to_matrix()),
            atol=1e-8,
        )

    @given(random_circuits())
    @settings(max_examples=40, deadline=None)
    def test_tdd_trace_matches_dense(self, circuit):
        net = close_trace(circuit_to_network(circuit))
        assert np.isclose(
            TddBackend().contract_scalar(net),
            np.trace(circuit.to_matrix()),
            atol=1e-8,
        )


class TestPasses:
    @given(random_circuits())
    @settings(max_examples=50, deadline=None)
    def test_cancellation_preserves_unitary(self, circuit):
        optimised = cancel_adjacent_gates(circuit)
        assert len(optimised) <= len(circuit)
        assert np.allclose(
            optimised.to_matrix(), circuit.to_matrix(), atol=1e-9
        )

    @given(random_circuits())
    @settings(max_examples=30, deadline=None)
    def test_inverse_composes_to_identity(self, circuit):
        miter = circuit.compose(circuit.inverse())
        assert np.allclose(
            miter.to_matrix(), np.eye(2**circuit.num_qubits), atol=1e-8
        )

    @given(random_circuits())
    @settings(max_examples=30, deadline=None)
    def test_full_cancellation_of_miter(self, circuit):
        """U followed by U† cancels to nothing gate-by-gate."""
        miter = circuit.compose(circuit.inverse())
        optimised = cancel_adjacent_gates(miter)
        assert len(optimised) == 0
