"""Miter constructions for trace computation.

The reversible-miter idea (Yamashita & Markov) specialised to the paper's
two algorithms:

* Algorithm I contracts the miter ``U† E_i`` for every Kraus selection
  ``E_i``.  :func:`alg1_template` builds it once with every noise site's
  Kraus operators stacked on an open axis, so the terms are the slices
  of one plan; :func:`lower_kraus_selection` materialises one selection
  as a plain matrix-gate circuit (the sampling estimator's path) and
  :func:`miter_circuit` appends the reversed ideal circuit.
* Algorithm II contracts a single *doubled* miter where each unitary ``V``
  is accompanied by ``V*`` on a primed qubit copy and each noise ``N``
  becomes its matrix representation ``M_N = sum_k N_k (x) N_k*`` spanning
  both copies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from ..circuits import QuantumCircuit, cancel_adjacent_gates, eliminate_final_swaps
from ..gates import Gate
from ..tensornet import Tensor, TensorNetwork, circuit_to_network, close_trace
from ..tensornet.planner import ContractionPlan


def lower_kraus_selection(
    circuit: QuantumCircuit, selection: Sequence[int]
) -> QuantumCircuit:
    """Replace each noise channel with one of its Kraus operators.

    ``selection[k]`` picks the Kraus operator of the k-th noise site (in
    circuit order).  The result contains only matrix gates, so it can be
    converted to a tensor network directly.
    """
    sites = [i for i, inst in enumerate(circuit) if inst.is_noise]
    if len(selection) != len(sites):
        raise ValueError(
            f"selection length {len(selection)} != {len(sites)} noise sites"
        )
    lowered = QuantumCircuit(circuit.num_qubits, f"{circuit.name}_sel")
    site = 0
    for inst in circuit:
        if inst.is_noise:
            ops = inst.operation.kraus_operators
            j = selection[site]
            if not 0 <= j < len(ops):
                raise ValueError(
                    f"Kraus index {j} out of range at site {site} "
                    f"({len(ops)} operators)"
                )
            lowered.append(Gate(f"kraus{site}.{j}", ops[j]), inst.qubits)
            site += 1
        else:
            lowered.append(inst.operation, inst.qubits)
    return lowered


def miter_circuit(
    noisy: QuantumCircuit, ideal: QuantumCircuit
) -> QuantumCircuit:
    """The circuit ``U† . E`` whose trace Algorithm I needs.

    ``noisy`` may contain channels (they survive into the miter); ``ideal``
    must be unitary.
    """
    if ideal.num_qubits != noisy.num_qubits:
        raise ValueError("ideal and noisy circuits must have the same width")
    return noisy.compose(ideal.inverse())


def double_circuit(circuit: QuantumCircuit) -> QuantumCircuit:
    """Algorithm II's doubled circuit on ``2n`` qubits.

    Qubit ``q`` keeps its label; its primed copy is ``q + n``.  Unitary
    gates get a conjugated twin on the primed copy; each noise channel
    ``N`` is replaced by the (generally non-unitary) gate ``M_N`` acting on
    the original qubits followed by their primed copies.
    """
    n = circuit.num_qubits
    doubled = QuantumCircuit(2 * n, f"{circuit.name}_doubled")
    for inst in circuit:
        primed = [q + n for q in inst.qubits]
        if inst.is_noise:
            channel = inst.operation
            doubled.append(
                Gate(f"M[{channel.name}]", channel.matrix_rep()),
                list(inst.qubits) + primed,
            )
        else:
            gate = inst.operation
            doubled.append(gate, inst.qubits)
            doubled.append(gate.conjugate(), primed)
    return doubled


def alg1_trace_network(
    noisy_selected: QuantumCircuit,
    ideal: QuantumCircuit,
    use_local_optimisations: bool = False,
) -> TensorNetwork:
    """Closed network whose scalar is ``tr(U† E_i)``.

    With ``use_local_optimisations`` the miter is first simplified by
    adjacent-gate cancellation and trailing-SWAP elimination (Sec. IV-C);
    the SWAP permutation is folded into the trace closure.
    """
    miter = miter_circuit(noisy_selected, ideal)
    permutation = None
    if use_local_optimisations:
        miter, permutation = eliminate_final_swaps(miter)
        miter = cancel_adjacent_gates(miter)
    return close_trace(circuit_to_network(miter), permutation=permutation)


def kraus_order(
    kraus_operators: Sequence[np.ndarray], dominant_first: bool
) -> List[int]:
    """The order Algorithm I visits one noise site's Kraus operators in.

    With ``dominant_first`` the indices sort by decreasing Frobenius
    norm (stable, so ties keep channel order); otherwise channel order.
    """
    indices = list(range(len(kraus_operators)))
    if dominant_first:
        indices.sort(
            key=lambda j: -float(np.linalg.norm(kraus_operators[j]))
        )
    return indices


@dataclass
class Alg1Template:
    """Algorithm I's miter network with each noise site's Kraus stack.

    ``network`` is the trace network of ``tr(U† E)`` in which the tensor
    of noise site ``s`` carries a leading open axis labelled
    ``kraus{s}`` over the site's Kraus operators, in enumeration order.
    Fixing every Kraus label to one value selects one trace term
    ``tr(U† E_i)``, so the terms are the slices of one sliced plan
    (:meth:`sliced_plan`) — the structure-reuse idea the paper borrows
    from Li et al. [24], taken to a single contraction.
    """

    network: TensorNetwork
    #: tensor index in ``network.tensors`` of each noise site
    site_slots: List[int]

    @property
    def kraus_labels(self) -> Tuple[str, ...]:
        """The stacked Kraus axis label of each noise site."""
        return tuple(
            self.network.tensors[slot].indices[0] for slot in self.site_slots
        )

    def representative(self) -> TensorNetwork:
        """The closed network of the first trace term (every Kraus label at 0).

        Every term shares its structure, so its plan serves them all.
        """
        tensors = list(self.network.tensors)
        for slot in self.site_slots:
            stacked = tensors[slot]
            tensors[slot] = Tensor(stacked.data[0], stacked.indices[1:])
        return TensorNetwork(tensors)

    def sliced_plan(self, plan: ContractionPlan) -> ContractionPlan:
        """``plan`` (built for :meth:`representative`) over every trace term.

        The Kraus labels join each noise site's input and lead the
        plan's ``slices``, ahead of any memory slices, so
        :func:`~repro.tensornet.planner.iter_slice_assignments` visits
        terms in enumeration order and each term's memory slices
        consecutively.  The pairwise steps are unchanged: sliced labels
        never reach them.
        """
        inputs = list(plan.inputs)
        dims = dict(plan.dims)
        for slot, label in zip(self.site_slots, self.kraus_labels):
            inputs[slot] = (label,) + inputs[slot]
            dims[label] = self.network.tensors[slot].data.shape[0]
        return replace(
            plan,
            inputs=tuple(inputs),
            dims=dims,
            slices=self.kraus_labels + plan.slices,
        )


def alg1_template(
    noisy: QuantumCircuit,
    ideal: QuantumCircuit,
    dominant_first: bool = True,
    use_local_optimisations: bool = False,
) -> Alg1Template:
    """Build Algorithm I's Kraus-stacked miter network.

    With ``use_local_optimisations`` the SWAP-tail and adjacent-gate
    cancellation passes run once on the channel-bearing miter (noise
    channels are barriers to cancellation), so every term shares the
    simplified network.  Stacking happens before the trace closure, so a
    noise on an otherwise untouched wire self-traces to a vector over its
    Kraus axis like any other contraction.
    """
    miter = miter_circuit(noisy, ideal)
    permutation = None
    if use_local_optimisations:
        miter, permutation = eliminate_final_swaps(miter)
        miter = cancel_adjacent_gates(miter)
    lowered = QuantumCircuit(miter.num_qubits, f"{miter.name}_stacked")
    stacks: List[List[np.ndarray]] = []
    slots: List[int] = []
    for position, inst in enumerate(miter):
        if inst.is_noise:
            ops = inst.operation.kraus_operators
            stacks.append([ops[j] for j in kraus_order(ops, dominant_first)])
            slots.append(position)
            lowered.append(
                Gate(f"kraus{len(slots) - 1}", stacks[-1][0]), inst.qubits
            )
        else:
            lowered.append(inst.operation, inst.qubits)
    cnet = circuit_to_network(lowered)
    # circuit_to_network keeps one tensor per instruction, in order
    tensors = cnet.network.tensors
    for site, (slot, ops) in enumerate(zip(slots, stacks)):
        tensor = tensors[slot]
        tensors[slot] = Tensor(
            np.stack([np.reshape(op, tensor.data.shape) for op in ops]),
            (f"kraus{site}",) + tensor.indices,
        )
    return Alg1Template(close_trace(cnet, permutation=permutation), slots)


def alg2_trace_network(
    noisy: QuantumCircuit,
    ideal: QuantumCircuit,
    use_local_optimisations: bool = False,
) -> TensorNetwork:
    """Closed doubled network whose scalar is ``sum_i |tr(U† E_i)|^2``.

    This is ``tr((U† (x) U^T) M_E)`` contracted as one network of width
    ``2n``.
    """
    if ideal.num_qubits != noisy.num_qubits:
        raise ValueError("ideal and noisy circuits must have the same width")
    doubled_miter = double_circuit(noisy).compose(double_circuit(ideal.inverse()))
    permutation = None
    if use_local_optimisations:
        doubled_miter, permutation = eliminate_final_swaps(doubled_miter)
        doubled_miter = cancel_adjacent_gates(doubled_miter)
    return close_trace(circuit_to_network(doubled_miter), permutation=permutation)


def algorithm_network(
    noisy: QuantumCircuit, ideal: QuantumCircuit, algorithm: str
) -> TensorNetwork:
    """The network the chosen algorithm contracts.

    ``"alg2"`` gives the doubled network of the single collective
    contraction; ``"alg1"`` gives the representative trace-term network
    Algorithm I plans (:meth:`Alg1Template.representative` — every term
    shares its structure, so one term stands for planning/reporting
    purposes).  Shared by the CLI ``plan`` command and the backends
    micro-benchmark.
    """
    if algorithm == "alg1":
        return alg1_template(noisy, ideal).representative()
    if algorithm == "alg2":
        return alg2_trace_network(noisy, ideal)
    raise ValueError(f"unknown algorithm {algorithm!r}; choose alg1 or alg2")
