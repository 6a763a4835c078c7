"""The miter shrink: rotate to the first noise, cancel inverse pairs.

``use_local_optimisations`` (on by default) lowers both algorithms'
networks from the shrunk undoubled miter.  These tests pin what the
shrink keeps on the edge cases (noise first or last, noise on an
untouched wire, no noise, a SWAP tail, mutually inverse channels), that
it only ever removes tensors, and that every backend × algorithm ×
slicing combination agrees with the superoperator baseline with the
shrink on and off.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.baseline import process_fidelity
from repro.circuits import QuantumCircuit
from repro.core import fidelity_collective, fidelity_individual
from repro.core.miter import (
    alg1_template,
    alg2_trace_network,
    miter_ops,
)
from repro.gates import Gate
from repro.library import qft
from repro.noise import KrausChannel, bit_flip, depolarizing

BACKENDS = ["tdd", "dense", "einsum"]
FIDELITY = {"alg1": fidelity_individual, "alg2": fidelity_collective}


def _noisy(ideal, positions, channel, qubits):
    """``ideal`` with ``channel`` before each instruction index in
    ``positions`` (``len(ideal)`` appends)."""
    noisy = QuantumCircuit(ideal.num_qubits)
    for index, inst in enumerate(ideal):
        if index in positions:
            noisy.append(channel, qubits)
        noisy.append(inst.operation, inst.qubits)
    if len(ideal) in positions:
        noisy.append(channel, qubits)
    return noisy


def _swap_tail():
    ideal = QuantumCircuit(3).h(0).cx(0, 1).rz(0.3, 2).swap(0, 2).swap(1, 2)
    return _noisy(ideal, {2}, depolarizing(0.95), [1]), ideal


def _inverse_channels():
    s = np.diag([1, 1j])
    ideal = qft(3)
    noisy = _noisy(ideal, {2}, KrausChannel([s]), [1])
    return _noisy(noisy, {3}, KrausChannel([s.conj().T]), [1]), ideal


CASES = {
    "noise_first": lambda: (
        _noisy(qft(3), {0}, depolarizing(0.9), [1]), qft(3)
    ),
    "noise_last": lambda: (
        _noisy(qft(3), {len(qft(3))}, depolarizing(0.9), [0]), qft(3)
    ),
    "untouched_wire": lambda: (
        _noisy(QuantumCircuit(3).h(0).cx(0, 1), {1}, bit_flip(0.9), [2]),
        QuantumCircuit(3).h(0).cx(0, 1),
    ),
    "noise_free": lambda: (qft(3), qft(3)),
    "swap_tail": _swap_tail,
    "inverse_channels": _inverse_channels,
}


def kept_names(noisy, ideal):
    return [op.operation.name for op in miter_ops(noisy, ideal)]


class TestWhatTheShrinkKeeps:
    def test_noise_first_starts_the_miter_and_the_rest_cancels(self):
        noisy, ideal = CASES["noise_first"]()
        ops = miter_ops(noisy, ideal)
        assert ops[0].operation is noisy[0].operation
        assert len(ops) < len(noisy) + len(ideal)

    def test_noise_last_leaves_only_the_channel(self):
        noisy, ideal = CASES["noise_last"]()
        assert kept_names(noisy, ideal) == ["depolarizing"]

    def test_noise_on_an_untouched_wire_self_traces(self):
        noisy, ideal = CASES["untouched_wire"]()
        assert kept_names(noisy, ideal) == ["bit_flip"]
        network = alg2_trace_network(noisy, ideal)
        (site,) = network.noise_sites
        assert network.tensors[site.slot].indices == ()
        template = alg1_template(noisy, ideal)
        assert template.network.tensors[site.slot].indices == ("kraus0",)

    def test_a_noise_free_miter_cancels_to_nothing(self):
        noisy, ideal = CASES["noise_free"]()
        assert miter_ops(noisy, ideal) == []
        network = alg2_trace_network(noisy, ideal)
        # one closed identity wire per qubit and primed copy
        assert len(network.tensors) == 6
        assert all(tensor.indices == () for tensor in network.tensors)
        assert fidelity_collective(noisy, ideal).fidelity == 1.0

    def test_a_swap_tail_cancels_across_the_seam(self):
        noisy, ideal = CASES["swap_tail"]()
        assert "swap" not in kept_names(noisy, ideal)

    def test_mutually_inverse_channels_are_both_kept(self):
        noisy, ideal = CASES["inverse_channels"]()
        network = alg2_trace_network(noisy, ideal)
        assert len(network.noise_sites) == noisy.num_noise_sites == 2
        slots = [site.slot for site in network.noise_sites]
        assert slots == sorted(slots)  # circuit order

    def test_an_impostor_with_the_same_name_is_not_cancelled(self):
        """The inverse check reads matrices, never labels: a noisy gate
        named like the ideal one but doing something else stays."""
        ideal = QuantumCircuit(1).h(0)
        noisy = QuantumCircuit(1)
        noisy.append(Gate("h", np.diag([1.0, 1.0j])), [0])
        noisy.append(bit_flip(0.9), [0])
        assert kept_names(noisy, ideal) == ["bit_flip", "h", "h"]
        for fidelity in FIDELITY.values():
            assert abs(
                fidelity(noisy, ideal).fidelity
                - process_fidelity(noisy, ideal)
            ) < 1e-9

    def test_self_inverse_gates_cancel_by_their_product(self):
        ideal = QuantumCircuit(2).h(0)
        noisy = QuantumCircuit(2).h(0).cx(0, 1).cx(0, 1)
        noisy.append(bit_flip(0.9), [1])
        assert kept_names(noisy, ideal) == ["bit_flip"]

    def test_a_shrunk_template_refills_every_site(self):
        noisy, ideal = CASES["inverse_channels"]()
        engine = get_backend("einsum")
        for p in (0.9, 0.8):
            pair = _noisy(ideal, {2}, bit_flip(p), [1]), ideal
            fidelity_collective(*pair, backend=engine)
        assert len(engine._templates) == 1
        result = fidelity_collective(noisy, ideal, backend=engine)
        assert abs(result.fidelity - process_fidelity(noisy, ideal)) < 1e-9


class TestAgreementMatrix:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("use_local_optimisations", [False, True])
    @pytest.mark.parametrize("max_intermediate_size", [None, 16])
    @pytest.mark.parametrize("algorithm", sorted(FIDELITY))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_agrees_with_the_superoperator_baseline(
        self, backend, algorithm, max_intermediate_size,
        use_local_optimisations, case,
    ):
        noisy, ideal = CASES[case]()
        engine = get_backend(
            backend, max_intermediate_size=max_intermediate_size
        )
        result = FIDELITY[algorithm](
            noisy, ideal, backend=engine,
            use_local_optimisations=use_local_optimisations,
        )
        assert abs(result.fidelity - process_fidelity(noisy, ideal)) < 1e-9


GATES_1Q = ["h", "x", "s", "sdg", "t", "tdg"]


@st.composite
def noisy_pairs(draw):
    """A random ideal circuit and a noisy copy with at least one channel
    and some gates dropped, so pairs need not cancel fully."""
    n = draw(st.integers(1, 3))
    ideal = QuantumCircuit(n)
    noisy = QuantumCircuit(n)
    for _ in range(draw(st.integers(0, 12))):
        if n >= 2 and draw(st.booleans()):
            a, b = draw(st.permutations(list(range(n))))[:2]
            step = ("cx", (a, b))
        else:
            step = (
                draw(st.sampled_from(GATES_1Q)),
                (draw(st.integers(0, n - 1)),),
            )
        getattr(ideal, step[0])(*step[1])
        if draw(st.integers(0, 9)) > 0:  # usually the noisy copy has it
            getattr(noisy, step[0])(*step[1])
        if draw(st.integers(0, 3)) == 0:
            noisy.append(depolarizing(0.9), [draw(st.integers(0, n - 1))])
    if noisy.num_noise_sites == 0:
        noisy.append(bit_flip(0.95), [draw(st.integers(0, n - 1))])
    return noisy, ideal


#: Algorithm I terms summed per side: a drawn pair may carry up to 12
#: depolarising channels (4^12 terms).  Enumeration order depends only on the Kraus
#: norms, so both sides sum the same terms in the same order.
ALG1_MAX_TERMS = 4096


class TestShrinkProperties:
    @given(noisy_pairs())
    @settings(max_examples=60, deadline=None)
    def test_shrink_only_removes_tensors_and_keeps_the_value(self, pair):
        noisy, ideal = pair
        for algorithm, build, options in (
            ("alg1", lambda opt: alg1_template(
                noisy, ideal, use_local_optimisations=opt).network,
             {"max_terms": ALG1_MAX_TERMS}),
            ("alg2", lambda opt: alg2_trace_network(
                noisy, ideal, use_local_optimisations=opt), {}),
        ):
            shrunk, full = build(True), build(False)
            assert len(shrunk.tensors) <= len(full.tensors)
            assert len(shrunk.noise_sites) == len(full.noise_sites)
            values = [
                FIDELITY[algorithm](
                    noisy, ideal, backend=get_backend("einsum"),
                    use_local_optimisations=opt, **options,
                ).fidelity
                for opt in (True, False)
            ]
            assert abs(values[0] - values[1]) < 1e-12
