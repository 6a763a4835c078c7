"""Miter constructions for trace computation.

The reversible-miter idea (Yamashita & Markov) specialised to the paper's
two algorithms:

* Algorithm I contracts the miter ``U† E_i`` for every Kraus selection
  ``E_i``.  :func:`alg1_template` builds it once with every noise site's
  Kraus operators stacked on an open axis, so the terms are the slices
  of one plan; :meth:`Alg1Template.term` fixes one selection (the
  sampling estimator's path).  A noise-free pair gives the plain miter
  ``B† A`` of the exact unitary check.
* Algorithm II contracts a single *doubled* miter where each unitary ``V``
  is accompanied by ``V*`` on a primed qubit copy and each noise ``N``
  becomes its matrix representation ``M_N = sum_k N_k (x) N_k*`` spanning
  both copies.

Both networks are lowered straight from the miter's operation list
(:func:`miter_ops`), never through an intermediate circuit.  With
``use_local_optimisations`` (the default) that list is first *shrunk*
in one O(gates) pass: it is rotated to start at the first noise site
(the trace is cyclic), and every gate of ``E`` that meets its own
inverse in ``U†`` cancels with it (:func:`shrink_miter`).  Noise
channels are barriers and are never removed, so every site survives in
circuit order.  Shrinking the undoubled miter shrinks both copies of
the doubled one.

Both networks are :class:`MiterNetwork` objects that record where their
noise tensors sit.  :func:`memoised_miter` keeps one per structure in
the backend's template memo, so a request that changes only channel
values refills those tensors instead of rebuilding the network.
"""

from __future__ import annotations

import hashlib
import sys
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
from ..circuits import QuantumCircuit, cancel_on_wire_stacks, is_channel
from ..gates import Gate
from ..linalg import ATOL
from ..tensornet import Tensor, TensorNetwork
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


def gate_data(matrix: np.ndarray) -> np.ndarray:
    """A ``2^k x 2^k`` matrix as the data of its rank-2k gate tensor."""
    qubits = matrix.shape[0].bit_length() - 1
    return np.reshape(matrix, (2,) * (2 * qubits))


class MiterOp(NamedTuple):
    """One operation of the undoubled miter ``E · U†``."""

    #: a :class:`~repro.gates.Gate` or a noise channel
    operation: object
    qubits: Tuple[int, ...]
    #: whether the gate enters daggered (the gates of ``U†``)
    adjoint: bool = False

    def matrix(self) -> np.ndarray:
        """The gate's matrix as it acts in the miter."""
        matrix = self.operation.matrix
        return matrix.conj().T if self.adjoint else matrix


def _inverse_pair(top: MiterOp, op: MiterOp) -> bool:
    """Whether ``op · top`` is the identity, so both can be dropped.

    The same gate under opposite adjoint flags (one object, or equal
    matrices) is decided without arithmetic; anything else by the
    matrix product.  Channels never pair.
    """
    first, second = top.operation, op.operation
    if not (isinstance(first, Gate) and isinstance(second, Gate)):
        return False
    if top.adjoint != op.adjoint and (
        first is second or np.array_equal(first.matrix, second.matrix)
    ):
        return True
    product = op.matrix() @ top.matrix()
    return np.allclose(product, np.eye(product.shape[0]), atol=ATOL)


def miter_ops(
    noisy: QuantumCircuit,
    ideal: QuantumCircuit,
    use_local_optimisations: bool = True,
) -> List[MiterOp]:
    """The operations of the miter ``E · U†`` whose trace is contracted.

    ``noisy``'s instructions in order, then ``ideal``'s reversed and
    daggered.  With ``use_local_optimisations`` the list is shrunk
    (:func:`shrink_miter`).
    """
    if ideal.num_qubits != noisy.num_qubits:
        raise ValueError("ideal and noisy circuits must have the same width")
    if not ideal.is_unitary_circuit:
        raise ValueError("cannot invert a circuit containing noise channels")
    ops = [MiterOp(inst.operation, inst.qubits) for inst in noisy]
    ops.extend(
        MiterOp(inst.operation, inst.qubits, True)
        for inst in reversed(ideal.instructions)
    )
    return shrink_miter(ops) if use_local_optimisations else ops


def shrink_miter(ops: Sequence[MiterOp]) -> List[MiterOp]:
    """The miter's operations with every inverse pair cancelled.

    The list is first rotated to start at its first noise site, if any:
    ``tr(A B) = tr(B A)``, so the gates before the first noise move
    behind ``U†`` and meet their inverses there, and the sites stay in
    circuit order.  Then one :func:`~repro.circuits.cancel_on_wire_stacks`
    pass drops every pair of adjacent gates whose product is the
    identity; channels are barriers.
    """
    first = next(
        (i for i, op in enumerate(ops) if is_channel(op.operation)), 0
    )
    return cancel_on_wire_stacks(
        list(ops[first:]) + list(ops[:first]), _inverse_pair
    )


def _miter_network(
    ops: Sequence[MiterOp],
    num_qubits: int,
    doubled: bool,
    site_data: Optional[Callable[[object], np.ndarray]] = None,
) -> MiterNetwork:
    """The closed trace network of ``ops``, lowered directly.

    Each gate becomes one tensor (plus its conjugate twin on the primed
    wires ``q + num_qubits`` when ``doubled``); each noise site ``s``
    becomes one tensor with data ``site_data(channel)`` over its output
    and input wires (both copies when ``doubled``; undoubled, the data
    is a Kraus stack on a leading ``kraus{s}`` axis).  Wire ``w`` is
    labelled ``q{w}.{t}`` after its ``t``-th operation, and its last
    output is labelled ``q{w}.0``, its input, which closes the trace;
    an untouched wire closes on an identity tensor.  Labels are
    interned: every network of a miter, and every plan memoised for it,
    shares one copy of each label.
    """
    width = 2 * num_qubits if doubled else num_qubits
    closing = [sys.intern(f"q{w}.0") for w in range(width)]
    touches = [0] * num_qubits
    for op in ops:
        for q in op.qubits:
            touches[q] += 1
    labels = list(closing)
    time = [0] * num_qubits
    tensors: List[Tensor] = []
    sites: List[NoiseSite] = []
    computed: dict = {}
    for op in ops:
        wires = list(op.qubits)
        if doubled:
            wires += [q + num_qubits for q in op.qubits]
        for q in op.qubits:
            time[q] += 1
        single = any(touches[q] == 1 for q in op.qubits)
        ins = [labels[w] for w in wires]
        outs = []
        for w in wires:
            q = w % num_qubits
            outs.append(
                closing[w] if time[q] == touches[q]
                else sys.intern(f"q{w}.{time[q]}")
            )
            labels[w] = outs[-1]
        if is_channel(op.operation):
            channel = op.operation
            if id(channel) not in computed:
                computed[id(channel)] = site_data(channel)
            site_labels = tuple(outs + ins)
            if not doubled:
                site_labels = (f"kraus{len(sites)}",) + site_labels
            sites.append(NoiseSite(len(tensors), site_labels))
            tensor = Tensor(computed[id(channel)], site_labels)
            tensors.append(tensor.self_trace() if single else tensor)
            continue
        matrix = op.matrix()
        k = len(op.qubits)
        shape = (2,) * (2 * k)
        tensor = Tensor(matrix.reshape(shape), outs[:k] + ins[:k])
        tensors.append(tensor.self_trace() if single else tensor)
        if doubled:
            tensor = Tensor(matrix.conj().reshape(shape), outs[k:] + ins[k:])
            tensors.append(tensor.self_trace() if single else tensor)
    for w in range(width):
        if not touches[w % num_qubits]:
            eye = Tensor(np.eye(2), (closing[w], closing[w]))
            tensors.append(eye.self_trace())
    return MiterNetwork(tensors, sites)


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

    def term(self, selection: Sequence[int]) -> TensorNetwork:
        """The closed network of one trace term ``tr(U† E_i)``.

        ``selection[s]`` indexes site ``s``'s Kraus stack, whose
        operators are in :func:`kraus_order` (channel order when the
        template was built with ``dominant_first=False``).
        """
        tensors = list(self.network.tensors)
        for slot, j in zip(self.site_slots, selection):
            stacked = tensors[slot]
            tensors[slot] = Tensor(stacked.data[j], stacked.indices[1:])
        return TensorNetwork(tensors)

    def representative(self) -> TensorNetwork:
        """The closed network of the first trace term (every Kraus label at 0).

        Every term shares its structure, so its plan serves them all.
        """
        return self.term([0] * len(self.network.noise_sites))

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
    use_local_optimisations: bool = True,
) -> Alg1Template:
    """Build Algorithm I's Kraus-stacked miter network.

    With ``use_local_optimisations`` the channel-bearing miter is shrunk
    once (:func:`shrink_miter`; noise channels are barriers), so every
    term shares the smaller network.  Noise site ``s``'s tensor is its
    :func:`kraus_stack` with a leading ``kraus{s}`` axis.  Stacking
    happens before the trace closure, so a noise on an otherwise
    untouched wire self-traces to a vector over its Kraus axis like any
    other contraction.
    """
    return Alg1Template(_miter_network(
        miter_ops(noisy, ideal, use_local_optimisations),
        ideal.num_qubits,
        doubled=False,
        site_data=lambda channel: kraus_stack(
            channel.kraus_operators, dominant_first
        ),
    ))


def alg2_trace_network(
    noisy: QuantumCircuit,
    ideal: QuantumCircuit,
    use_local_optimisations: bool = True,
) -> MiterNetwork:
    """Closed doubled network whose scalar is ``sum_i |tr(U† E_i)|^2``.

    This is ``tr((U† (x) U^T) M_E)`` contracted as one network of width
    ``2n``.  Its :attr:`~MiterNetwork.noise_sites` locate the ``M_N``
    tensors, one per noise site of ``noisy``, in circuit order.  With
    ``use_local_optimisations`` the undoubled miter is shrunk first
    (:func:`shrink_miter`), which drops both copies of every cancelled
    pair.
    """
    return _miter_network(
        miter_ops(noisy, ideal, use_local_optimisations),
        ideal.num_qubits,
        doubled=True,
        site_data=lambda channel: gate_data(channel.matrix_rep()),
    )


def algorithm_network(
    noisy: QuantumCircuit,
    ideal: QuantumCircuit,
    algorithm: str,
    use_local_optimisations: bool = True,
) -> TensorNetwork:
    """The network the chosen algorithm contracts.

    ``"alg2"`` gives the doubled network of the single collective
    contraction; ``"alg1"`` gives the representative trace-term network
    Algorithm I plans (:meth:`Alg1Template.representative` — every term
    shares its structure, so one term stands for planning/reporting
    purposes).  The CLI ``plan`` command reports on it.
    """
    if algorithm == "alg1":
        return alg1_template(
            noisy, ideal, use_local_optimisations=use_local_optimisations
        ).representative()
    if algorithm == "alg2":
        return alg2_trace_network(noisy, ideal, use_local_optimisations)
    raise ValueError(f"unknown algorithm {algorithm!r}; choose alg1 or alg2")


def miter_key(
    algorithm: str,
    noisy: QuantumCircuit,
    ideal: QuantumCircuit,
    use_local_optimisations: bool,
) -> bytes:
    """Content key of everything a request fixes about its miter.

    It joins both circuits'
    :meth:`~repro.circuits.QuantumCircuit.layout_digest` (widths, every
    gate's name, parameters, qubits and matrix bytes, and each noise
    site's position and qubits) with the algorithm and
    ``use_local_optimisations``.  Channel values are left out: requests
    that differ only in them share one template and refill its noise
    tensors.  Algorithm I's key adds each site's Kraus count, which
    sizes its stacked axis.  The digests are memoised on the circuits,
    so keying a memoised ideal and a noisy circuit filled from a
    memoised placement costs O(noise sites).
    """
    terms = (
        [inst.num_kraus for inst in noisy.noise_instructions()]
        if algorithm == "alg1" else []
    )
    head = repr((algorithm, bool(use_local_optimisations), terms)).encode()
    content = head + ideal.layout_digest() + noisy.layout_digest()
    return hashlib.blake2b(content, digest_size=16).digest()


def noise_site_data(
    noisy: QuantumCircuit, data: Callable[[object], np.ndarray]
) -> List[np.ndarray]:
    """``data(channel)`` of each noise site of ``noisy``, in circuit order.

    Computed once per distinct channel object: the sites of a filled
    noise placement share one channel, and so one array, which a refill
    only reads.
    """
    computed = {}
    arrays = []
    for inst in noisy.noise_instructions():
        channel = inst.operation
        if id(channel) not in computed:
            computed[id(channel)] = data(channel)
        arrays.append(computed[id(channel)])
    return arrays


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
    and memoises the result: the shrink keeps every noise site, so every
    network can be refilled.

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
