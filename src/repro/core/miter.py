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

Both networks are :class:`MiterNetwork` objects that record where their
noise tensors sit.  :func:`memoised_miter` keeps one per structure in
the backend's template memo, so a request that changes only channel
values refills those tensors instead of rebuilding the network.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .. import trace as _trace
from ..circuits import QuantumCircuit, cancel_adjacent_gates, eliminate_final_swaps
from ..gates import Gate
from ..tensornet import Tensor, TensorNetwork, circuit_to_network, close_trace
from ..tensornet.circuit_tn import CircuitNetwork, trace_closure
from ..tensornet.planner import ContractionPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..backends import ContractionBackend
    from ..backends.base import PlanFold


class NoiseSite(NamedTuple):
    """Where one noise site's tensor sits in a closed miter network."""

    #: index of the site's tensor in ``network.tensors``
    slot: int
    #: the tensor's labels before the trace closure's self-trace
    labels: Tuple[str, ...]


class MiterNetwork(TensorNetwork):
    """A closed miter network that knows where its noise tensors sit.

    ``noise_sites[s]`` locates the tensor of the circuit's ``s``-th noise
    site, so a request that changes only the channels' values can reuse
    the network and replace just those tensors (:meth:`refill`).
    """

    def __init__(
        self, tensors: Sequence[Tensor], noise_sites: Sequence[NoiseSite] = ()
    ):
        super().__init__(tensors)
        self.noise_sites: Tuple[NoiseSite, ...] = tuple(noise_sites)

    def refill(self, site_data: Sequence[np.ndarray]) -> "MiterNetwork":
        """The same network with new values in its noise tensors.

        ``site_data[s]`` is site ``s``'s tensor before the closure,
        shaped for :attr:`NoiseSite.labels`.  It is self-traced over those
        labels exactly as the closure traced the original, so the result
        equals a fresh build bit for bit.  The tensor list is copied and
        no array of this network is written to.
        """
        if len(site_data) != len(self.noise_sites):
            raise ValueError(
                f"{len(site_data)} noise tensors for "
                f"{len(self.noise_sites)} noise sites"
            )
        tensors = list(self.tensors)
        for site, data in zip(self.noise_sites, site_data):
            tensors[site.slot] = Tensor(data, site.labels).self_trace()
        return MiterNetwork(tensors, self.noise_sites)


def _close_miter(
    cnet: CircuitNetwork,
    permutation: Optional[Sequence[int]],
    slots: Sequence[int],
) -> MiterNetwork:
    """:func:`close_trace`, recording the noise tensors at ``slots``."""
    patched, relabel = trace_closure(cnet, permutation)
    sites = [
        NoiseSite(
            slot, tuple(relabel.get(label, label)
                        for label in patched[slot].indices)
        )
        for slot in slots
    ]
    return MiterNetwork(
        [tensor.relabel(relabel).self_trace() for tensor in patched], sites
    )


def gate_data(matrix: np.ndarray) -> np.ndarray:
    """A ``2^k x 2^k`` matrix as the data of its rank-2k gate tensor."""
    qubits = matrix.shape[0].bit_length() - 1
    return np.reshape(matrix, (2,) * (2 * qubits))


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
    return _doubled(circuit)[0]


def _doubled(circuit: QuantumCircuit) -> Tuple[QuantumCircuit, List[Gate]]:
    """:func:`double_circuit` plus its ``M_N`` gates, in circuit order."""
    n = circuit.num_qubits
    doubled = QuantumCircuit(2 * n, f"{circuit.name}_doubled")
    noise_gates: List[Gate] = []
    for inst in circuit:
        primed = [q + n for q in inst.qubits]
        if inst.is_noise:
            channel = inst.operation
            noise_gates.append(
                Gate(f"M[{channel.name}]", channel.matrix_rep())
            )
            doubled.append(noise_gates[-1], list(inst.qubits) + primed)
        else:
            gate = inst.operation
            doubled.append(gate, inst.qubits)
            doubled.append(gate.conjugate(), primed)
    return doubled, noise_gates


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


def kraus_stack(
    kraus_operators: Sequence[np.ndarray], dominant_first: bool
) -> np.ndarray:
    """One noise site's Kraus operators in :func:`kraus_order`, stacked.

    Each operator is reshaped to its gate tensor, so the stack is the
    data of the site's tensor in :func:`alg1_template` (leading axis:
    the site's ``kraus{s}`` label).
    """
    return np.stack([
        gate_data(kraus_operators[j])
        for j in kraus_order(kraus_operators, dominant_first)
    ])


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

    network: MiterNetwork

    @property
    def site_slots(self) -> List[int]:
        """Tensor index in ``network.tensors`` of each noise site."""
        return [site.slot for site in self.network.noise_sites]

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
    stacks: List[np.ndarray] = []
    slots: List[int] = []
    for position, inst in enumerate(miter):
        if inst.is_noise:
            ops = inst.operation.kraus_operators
            stacks.append(kraus_stack(ops, dominant_first))
            slots.append(position)
            # a placeholder of the right shape: the stack replaces it
            lowered.append(Gate(f"kraus{len(slots) - 1}", ops[0]), inst.qubits)
        else:
            lowered.append(inst.operation, inst.qubits)
    cnet = circuit_to_network(lowered)
    # circuit_to_network keeps one tensor per instruction, in order
    tensors = cnet.network.tensors
    for site, (slot, stack) in enumerate(zip(slots, stacks)):
        tensors[slot] = Tensor(stack, (f"kraus{site}",) + tensors[slot].indices)
    return Alg1Template(_close_miter(cnet, permutation, slots))


def alg2_trace_network(
    noisy: QuantumCircuit,
    ideal: QuantumCircuit,
    use_local_optimisations: bool = False,
) -> MiterNetwork:
    """Closed doubled network whose scalar is ``sum_i |tr(U† E_i)|^2``.

    This is ``tr((U† (x) U^T) M_E)`` contracted as one network of width
    ``2n``.  Its :attr:`~MiterNetwork.noise_sites` locate the ``M_N``
    tensors.  Adjacent-gate cancellation may drop a pair of ``M_N``
    whose product is the identity (mutually inverse unitary channels);
    the network then has fewer sites than ``noisy`` has noises.
    """
    if ideal.num_qubits != noisy.num_qubits:
        raise ValueError("ideal and noisy circuits must have the same width")
    doubled_noisy, noise_gates = _doubled(noisy)
    doubled_miter = doubled_noisy.compose(double_circuit(ideal.inverse()))
    permutation = None
    if use_local_optimisations:
        doubled_miter, permutation = eliminate_final_swaps(doubled_miter)
        doubled_miter = cancel_adjacent_gates(doubled_miter)
    # the passes keep every surviving operation object
    marked = {id(gate) for gate in noise_gates}
    slots = [
        position for position, inst in enumerate(doubled_miter)
        if id(inst.operation) in marked
    ]
    return _close_miter(circuit_to_network(doubled_miter), permutation, slots)


def algorithm_network(
    noisy: QuantumCircuit, ideal: QuantumCircuit, algorithm: str
) -> TensorNetwork:
    """The network the chosen algorithm contracts.

    ``"alg2"`` gives the doubled network of the single collective
    contraction; ``"alg1"`` gives the representative trace-term network
    Algorithm I plans (:meth:`Alg1Template.representative` — every term
    shares its structure, so one term stands for planning/reporting
    purposes).  The CLI ``plan`` command reports on it.
    """
    if algorithm == "alg1":
        return alg1_template(noisy, ideal).representative()
    if algorithm == "alg2":
        return alg2_trace_network(noisy, ideal)
    raise ValueError(f"unknown algorithm {algorithm!r}; choose alg1 or alg2")


def miter_key(
    algorithm: str,
    noisy: QuantumCircuit,
    ideal: QuantumCircuit,
    use_local_optimisations: bool,
) -> bytes:
    """Content key of everything a request fixes about its miter.

    It covers both circuits' widths, the qubits and matrix bytes of every
    unitary gate of either circuit, each noise site's position and
    qubits, and ``use_local_optimisations``.  Channel values are left
    out: requests that differ only in them share one template and refill
    its noise tensors.  Algorithm I's key adds each site's Kraus count,
    which sizes its stacked axis.  With ``use_local_optimisations`` the
    gates' names and parameters join the key, because rotation merging
    reads them.
    """
    layout: List[object] = [
        algorithm, bool(use_local_optimisations),
        ideal.num_qubits, noisy.num_qubits, len(ideal),
    ]
    matrices: List[np.ndarray] = []
    for circuit in (ideal, noisy):
        for inst in circuit:
            op = inst.operation
            if inst.is_noise:
                terms = len(op.kraus_operators) if algorithm == "alg1" else 0
                layout.append(("~", inst.qubits, terms))
            else:
                layout.append(
                    (op.name, op.params, inst.qubits)
                    if use_local_optimisations else inst.qubits
                )
                matrices.append(op.matrix)
    # the layout fixes every matrix's size, so the joined bytes parse
    # one way only
    content = repr(layout).encode() + b"".join(matrices)
    return hashlib.blake2b(content, digest_size=16).digest()


@dataclass(frozen=True)
class MiterTemplate:
    """One entry of a backend's miter template memo."""

    #: the closed network of the request that built the entry
    network: MiterNetwork
    #: the plan every refill runs on (Algorithm I: the Kraus-sliced plan)
    plan: ContractionPlan
    #: Algorithm I's plan of one trace term (``None`` for Algorithm II)
    term_plan: Optional[ContractionPlan] = None
    #: ``plan``'s noise-free steps contracted once
    #: (:meth:`~repro.backends.ContractionBackend.fold_constants`);
    #: ``None`` until the entry's first hit, and after it when the
    #: backend or its memory bound declined
    fold: Optional["PlanFold"] = None
    #: whether a hit has offered the backend the fold (only the first does)
    fold_tried: bool = False


def memoised_miter(
    engine: "ContractionBackend",
    algorithm: str,
    noisy: QuantumCircuit,
    ideal: QuantumCircuit,
    use_local_optimisations: bool,
    build: Callable[[], MiterNetwork],
    plan: Callable[[MiterNetwork], MiterTemplate],
    site_data: Callable[[], List[np.ndarray]],
) -> Tuple[MiterNetwork, MiterTemplate]:
    """The request's miter network and its template, built once per structure.

    Looks up :func:`miter_key` in the backend's template memo
    (:meth:`~repro.backends.ContractionBackend.lookup_template`).  A hit
    copies the template's tensor list and replaces only the noise
    tensors with ``site_data()`` (:meth:`MiterNetwork.refill`); its
    plan comes with it.  A miss runs ``build()`` and then ``plan(network)``
    and memoises the result, unless cancellation dropped a noise site
    (see :func:`alg2_trace_network`): such a network cannot be refilled.

    The entry's first hit also asks the backend to fold the plan: every
    step no noise tensor (and no sliced label) reaches is contracted once
    and held in the entry (:attr:`MiterTemplate.fold`), which replaces
    the memo entry.  That hit and every later one then contract only the
    steps the noise tensors reach.  A structure checked once holds no
    fold.

    The lookup, build and refill run inside one ``network.build`` span
    (attributes ``template_hit`` and ``tensors``); planning stays outside
    it, in its own phase, and so does the fold (``plan.fold``).
    """
    with _trace.span("network.build") as build_span:
        key = miter_key(algorithm, noisy, ideal, use_local_optimisations)
        template = engine.lookup_template(key)
        if template is not None:
            network = template.network.refill(site_data())
        else:
            network = build()
        build_span.set(
            template_hit=template is not None, tensors=len(network.tensors)
        )
    if template is None:
        template = plan(network)
        if len(network.noise_sites) == len(noisy.noise_instructions()):
            engine.store_template(key, template)
    elif not template.fold_tried:
        template = replace(
            template,
            fold=engine.fold_constants(
                network, template.plan,
                [site.slot for site in network.noise_sites],
            ),
            fold_tried=True,
        )
        engine.store_template(key, template)
    return network, template
