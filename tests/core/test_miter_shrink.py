"""The miter shrink and fusion: rotate to the first noise, cancel
inverse pairs, fuse one-qubit gates into their neighbours.

``use_local_optimisations`` (on by default) lowers both algorithms'
networks from the shrunk and fused undoubled miter.  These tests pin
what the shrink keeps on the edge cases (noise first or last, noise on
an untouched wire, no noise, a SWAP tail, mutually inverse channels) and
what the fusion makes of a kept list (folds after and before a gate,
across the seam, channels as barriers), that both only ever remove
tensors, and that every backend × algorithm × slicing combination
agrees with the superoperator baseline unshrunk, shrunk and fused.
"""

from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.baseline import process_fidelity
from repro.circuits import QuantumCircuit, is_channel
from repro.core import fidelity_collective, fidelity_individual
from repro.core import miter
from repro.core.miter import (
    FusedGate,
    MiterOp,
    alg1_template,
    alg2_trace_network,
    fuse_gates,
    gate_data,
    kraus_stack,
    miter_ops,
    shrink_miter,
)
from repro.gates import Gate, cx_gate, h_gate, s_gate, t_gate
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


def _gate_differs():
    """Gates between and after the sites survive the cancel pass."""
    ideal = QuantumCircuit(3).h(0).cx(0, 1).rz(0.4, 2).t(1).cx(1, 2).s(2)
    noisy = QuantumCircuit(3).h(0).cx(0, 1).rz(0.5, 2)
    noisy.append(depolarizing(0.9), [1])
    noisy.t(1).cx(1, 2)
    noisy.append(bit_flip(0.9), [2])
    return noisy, ideal


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
    "two_sites": lambda: (
        _noisy(qft(4), {3, 9}, depolarizing(0.9), [2]), qft(4)
    ),
    "gate_differs": _gate_differs,
}


def shrunk(noisy, ideal):
    """What the cancel pass alone keeps of the miter."""
    return shrink_miter(
        miter_ops(noisy, ideal, use_local_optimisations=False)
    )


def kept_names(noisy, ideal):
    return [op.operation.name for op in shrunk(noisy, ideal)]


def fused_names(noisy, ideal):
    return [op.operation.name for op in miter_ops(noisy, ideal)]


class TestWhatTheShrinkKeeps:
    def test_noise_first_starts_the_miter_and_the_rest_cancels(self):
        noisy, ideal = CASES["noise_first"]()
        ops = shrunk(noisy, ideal)
        assert ops[0].operation is noisy[0].operation
        assert len(ops) < len(noisy) + len(ideal)
        assert miter_ops(noisy, ideal) == ops

    def test_noise_last_leaves_only_the_channel(self):
        noisy, ideal = CASES["noise_last"]()
        assert kept_names(noisy, ideal) == ["depolarizing"]
        assert fused_names(noisy, ideal) == ["depolarizing"]

    def test_noise_on_an_untouched_wire_self_traces(self):
        noisy, ideal = CASES["untouched_wire"]()
        assert kept_names(noisy, ideal) == ["bit_flip"]
        assert fused_names(noisy, ideal) == ["bit_flip"]
        network = alg2_trace_network(noisy, ideal)
        (site,) = network.noise_sites
        assert network.tensors[site.slot].indices == ()
        template = alg1_template(noisy, ideal)
        assert template.network.tensors[site.slot].indices == ("kraus0",)

    def test_a_noise_free_miter_cancels_to_nothing(self):
        noisy, ideal = CASES["noise_free"]()
        assert shrunk(noisy, ideal) == []
        assert miter_ops(noisy, ideal) == []
        network = alg2_trace_network(noisy, ideal)
        # one closed identity wire per qubit and primed copy
        assert len(network.tensors) == 6
        assert all(tensor.indices == () for tensor in network.tensors)
        assert fidelity_collective(noisy, ideal).fidelity == 1.0

    def test_a_swap_tail_cancels_across_the_seam(self):
        noisy, ideal = CASES["swap_tail"]()
        assert "swap" not in kept_names(noisy, ideal)
        assert fused_names(noisy, ideal) == kept_names(noisy, ideal)

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
        # both gates sit between the channel and itself across the seam
        assert fused_names(noisy, ideal) == ["bit_flip", "h+h"]
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
        assert fused_names(noisy, ideal) == ["bit_flip"]

    def test_a_shrunk_template_refills_every_site(self):
        noisy, ideal = CASES["inverse_channels"]()
        engine = get_backend("einsum")
        for p in (0.9, 0.8):
            pair = _noisy(ideal, {2}, bit_flip(p), [1]), ideal
            fidelity_collective(*pair, backend=engine)
        assert len(engine._templates) == 1
        result = fidelity_collective(noisy, ideal, backend=engine)
        assert abs(result.fidelity - process_fidelity(noisy, ideal)) < 1e-9


#: A one-qubit channel whose Kraus operators are not unitary: with one
#: of them in each channel's place, the op list's product is one trace
#: term of the miter.
LEAK = KrausChannel([np.diag([1.0, 0.6]), np.diag([0.0, 0.8])])


def op(gate, *qubits, adjoint=False):
    return MiterOp(gate, tuple(qubits), adjoint)


def channel(*qubits):
    return MiterOp(LEAK, tuple(qubits))


def no_one_qubit_gate_beside_a_gate(ops, num_qubits):
    """Whether each one-qubit gate's neighbours on its wire, cyclically,
    are channels: a gate there would have taken it in."""
    for q in range(num_qubits):
        wire = [o for o in ops if q in o.qubits]
        for i, o in enumerate(wire):
            if len(o.qubits) > 1 or is_channel(o.operation):
                continue
            for j in (i - 1, (i + 1) % len(wire)):
                if j % len(wire) != i and not is_channel(wire[j].operation):
                    return False
    return True


def dense_trace(ops, num_qubits, kraus=0):
    """``tr`` of the ops' product, each embedded with ``np.kron`` (a
    channel as its ``kraus``-th operator), the slow, obvious way."""
    total = np.eye(2**num_qubits, dtype=complex)
    for o in ops:
        matrix = (
            o.operation.kraus_operators[kraus]
            if hasattr(o.operation, "kraus_operators") else o.matrix()
        )
        q = o.qubits[0]
        assert o.qubits == tuple(range(q, q + len(o.qubits)))
        factors = [np.eye(2)] * q + [matrix]
        factors += [np.eye(2)] * (num_qubits - q - len(o.qubits))
        total = reduce(np.kron, factors) @ total
    return np.trace(total)


#: Kept lists and what the fusion makes of them (names, in list order).
FUSIONS = {
    "after_and_before": (
        [channel(0), op(h_gate(), 1), op(cx_gate(), 0, 1),
         op(t_gate(), 1), op(s_gate(), 0, adjoint=True)],
        [LEAK.name, "h+cx+t+s"],
    ),
    "held_at_the_end_across_the_seam": (
        [channel(0), op(cx_gate(), 0, 1), channel(1), op(h_gate(), 1)],
        [LEAK.name, "h+cx", LEAK.name],
    ),
    "held_before_the_first_channel_across_the_seam": (
        [channel(0), op(h_gate(), 1), channel(1), op(cx_gate(), 0, 1)],
        [LEAK.name, LEAK.name, "cx+h"],
    ),
    "between_channels": (
        [channel(0), op(h_gate(), 0), channel(0), op(t_gate(), 0),
         op(s_gate(), 0)],
        [LEAK.name, "h", LEAK.name, "t+s"],
    ),
    "both_ends_of_one_channel": (
        [op(h_gate(), 0), channel(0), op(t_gate(), 0)],
        ["t+h", LEAK.name],
    ),
    "gates_only": (
        [op(h_gate(), 0), op(cx_gate(), 0, 1), op(t_gate(), 1),
         op(s_gate(), 1), op(h_gate(), 1, adjoint=True)],
        ["h+cx+t+s+h"],
    ),
}


class TestWhatTheFusionKeeps:
    @pytest.mark.parametrize("case", sorted(FUSIONS))
    def test_fused_list_and_its_trace(self, case):
        ops, names = FUSIONS[case]
        fused = fuse_gates(ops)
        assert [o.operation.name for o in fused] == names
        assert not any(
            o.adjoint for o in fused if isinstance(o.operation, FusedGate)
        )
        for kraus in (0, 1):
            assert abs(
                dense_trace(fused, 2, kraus) - dense_trace(ops, 2, kraus)
            ) < 1e-12

    def test_a_gate_nothing_folds_into_is_kept_as_it_came(self):
        ops = [channel(0), op(cx_gate(), 0, 1), channel(0), channel(1)]
        assert fuse_gates(ops) == ops

    def test_channels_keep_their_objects_and_order(self):
        ops, _ = FUSIONS["between_channels"]
        kept = [o for o in fuse_gates(ops) if o.operation is LEAK]
        assert kept == [o for o in ops if o.operation is LEAK]

    @pytest.mark.parametrize("case", ["two_sites", "gate_differs"])
    def test_the_default_miter_is_the_fused_shrunk_miter(self, case):
        noisy, ideal = CASES[case]()
        fused = miter_ops(noisy, ideal)
        assert [o.operation.name for o in fused] == [
            o.operation.name for o in fuse_gates(shrunk(noisy, ideal))
        ]
        assert len(fused) < len(shrunk(noisy, ideal))
        assert no_one_qubit_gate_beside_a_gate(fused, ideal.num_qubits)

    @pytest.mark.parametrize("algorithm", sorted(FIDELITY))
    def test_a_p_sweep_refills_one_fused_template_bit_identically(
        self, algorithm
    ):
        def make(p):
            return _noisy(qft(4), {3, 9}, depolarizing(p), [2]), qft(4)

        def build(noisy, ideal):
            if algorithm == "alg1":
                return alg1_template(noisy, ideal).network
            return alg2_trace_network(noisy, ideal)

        engine = get_backend("einsum")
        for p in (0.9, 0.8, 0.7):
            FIDELITY[algorithm](*make(p), backend=engine)
        assert len(engine._templates) == 1
        (template,) = engine._templates.values()
        noisy, ideal = make(0.7)
        assert any(
            isinstance(o.operation, FusedGate) for o in miter_ops(noisy, ideal)
        )
        if algorithm == "alg1":
            data = [kraus_stack(inst.operation.kraus_operators, True)
                    for inst in noisy.noise_instructions()]
        else:
            data = [gate_data(inst.operation.matrix_rep())
                    for inst in noisy.noise_instructions()]
        refilled = template.network.refill(data)
        fresh = build(noisy, ideal)
        assert refilled.noise_sites == fresh.noise_sites
        assert refilled.structure_key() == fresh.structure_key()
        for ours, theirs in zip(refilled.tensors, fresh.tensors):
            assert ours.indices == theirs.indices
            assert np.array_equal(ours.data, theirs.data)

    def test_the_gate_differs_case_pins_its_fused_list(self):
        noisy, ideal = CASES["gate_differs"]()
        assert kept_names(noisy, ideal) == [
            "depolarizing", "t", "cx", "bit_flip", "s", "cx", "t", "rz", "rz"
        ]
        assert fused_names(noisy, ideal) == [
            "depolarizing", "t+cx", "bit_flip", "s+cx+t+rz+rz"
        ]


#: The miter each agreement case contracts: the paper's (unshrunk), the
#: cancel pass alone, and the default (shrunk, then fused).
MITERS = ["unshrunk", "shrunk", "fused"]


def fidelity_on(miter_kind, fidelity, *args, **options):
    if miter_kind == "shrunk":
        with mock.patch.object(miter, "fuse_gates", list):
            return fidelity(*args, use_local_optimisations=True, **options)
    return fidelity(
        *args, use_local_optimisations=miter_kind != "unshrunk", **options
    )


class TestAgreementMatrix:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("miter_kind", MITERS)
    @pytest.mark.parametrize("max_intermediate_size", [None, 16])
    @pytest.mark.parametrize("algorithm", sorted(FIDELITY))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_agrees_with_the_superoperator_baseline(
        self, backend, algorithm, max_intermediate_size, miter_kind, case,
    ):
        noisy, ideal = CASES[case]()
        engine = get_backend(
            backend, max_intermediate_size=max_intermediate_size
        )
        result = fidelity_on(
            miter_kind, FIDELITY[algorithm], noisy, ideal, backend=engine,
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

    @given(noisy_pairs())
    @settings(max_examples=60, deadline=None)
    def test_fusion_only_removes_tensors_and_keeps_the_value(self, pair):
        noisy, ideal = pair
        with mock.patch.object(miter, "fuse_gates", list):
            before = alg2_trace_network(noisy, ideal)
        after = alg2_trace_network(noisy, ideal)
        assert len(after.tensors) <= len(before.tensors)
        assert len(after.noise_sites) == len(before.noise_sites)
        for ours, theirs in zip(after.noise_sites, before.noise_sites):
            assert len(ours.labels) == len(theirs.labels)
            assert np.array_equal(
                after.tensors[ours.slot].data, before.tensors[theirs.slot].data
            )
        values = [
            get_backend("einsum").contract_scalar(network)
            / 4**ideal.num_qubits
            for network in (after, before)
        ]
        assert abs(values[0] - values[1]) < 1e-12
        assert no_one_qubit_gate_beside_a_gate(
            miter_ops(noisy, ideal), ideal.num_qubits
        )
