"""Circuit → tensor-network conversion and trace closure.

Every instruction becomes one rank-2k tensor; wires are tracked as index
labels ``{prefix}q{j}.{t}`` where ``t`` increments each time an operation
touches qubit ``j``.  :func:`close_trace` implements the paper's Fig. 3:
connect each input to the corresponding output (optionally through a wire
permutation, which is how SWAP elimination re-routes outputs) so that the
contracted scalar equals ``tr(E)`` of the circuit's functionality matrix.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits import QuantumCircuit
from .network import TensorNetwork
from .tensor import Tensor, gate_tensor, identity_tensor


@dataclass
class CircuitNetwork:
    """A circuit's tensor network plus its open wire labels."""

    network: TensorNetwork
    input_labels: List[str]
    output_labels: List[str]


def circuit_to_network(
    circuit: QuantumCircuit, prefix: str = ""
) -> CircuitNetwork:
    """Convert a circuit of matrix-valued instructions to a tensor network.

    All instructions must be :class:`repro.gates.Gate` objects (possibly
    non-unitary, e.g. a selected Kraus operator or a channel's ``M_N``
    matrix rep wrapped as a gate).  Noise channels must be lowered first —
    see :mod:`repro.core.miter`.
    """
    network = TensorNetwork()
    wire_time = [0] * circuit.num_qubits
    # labels are interned: every network of a circuit, and every plan
    # memoised for it, shares one copy of each label
    labels = [sys.intern(f"{prefix}q{j}.0") for j in range(circuit.num_qubits)]
    input_labels = list(labels)
    for inst in circuit:
        if inst.is_noise:
            raise ValueError(
                "lower noise channels (select Kraus / matrix rep) before "
                "tensor-network conversion"
            )
        out_labels = []
        for q in inst.qubits:
            wire_time[q] += 1
            out_labels.append(sys.intern(f"{prefix}q{q}.{wire_time[q]}"))
        in_labels = [labels[q] for q in inst.qubits]
        network.add(gate_tensor(inst.operation.matrix, out_labels, in_labels))
        for q, lab in zip(inst.qubits, out_labels):
            labels[q] = lab
    return CircuitNetwork(network, input_labels, list(labels))


def close_trace(
    cnet: CircuitNetwork, permutation: Optional[Sequence[int]] = None
) -> TensorNetwork:
    """Connect outputs back to inputs, yielding a closed trace network.

    With ``permutation`` (from :func:`repro.circuits.eliminate_final_swaps`)
    the closed value equals ``tr(P C)`` where ``P`` routes wire ``q`` to
    ``permutation[q]`` — i.e. the trace of the original circuit before the
    SWAPs were stripped.
    """
    patched, relabel = trace_closure(cnet, permutation)
    return TensorNetwork(
        [tensor.relabel(relabel).self_trace() for tensor in patched]
    )


def trace_closure(
    cnet: CircuitNetwork, permutation: Optional[Sequence[int]] = None
) -> Tuple[List[Tensor], Dict[str, str]]:
    """What :func:`close_trace` does before its per-tensor self-trace.

    Returns the network's tensors followed by one identity tensor per
    untouched wire, and the output → input relabelling that closes the
    trace.  Tensor ``i`` of the closed network is
    ``tensors[i].relabel(relabel).self_trace()``.
    """
    n = len(cnet.input_labels)
    perm = list(permutation) if permutation is not None else list(range(n))
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of {list(range(n))}")
    # Identity tensors on untouched wires keep the bookkeeping uniform and
    # make permutation cycles among empty wires contract to the right
    # power of two.
    patched: List[Tensor] = list(cnet.network.tensors)
    output_labels = list(cnet.output_labels)
    for q in range(n):
        if cnet.input_labels[q] == cnet.output_labels[q]:
            out_label = f"{cnet.input_labels[q]}#out"
            patched.append(identity_tensor(out_label, cnet.input_labels[q]))
            output_labels[q] = out_label
    # tr(P C): identify output of wire q with input of wire perm[q].
    relabel = {output_labels[q]: cnet.input_labels[perm[q]] for q in range(n)}
    return patched, relabel


def connect(
    first: CircuitNetwork, second: CircuitNetwork
) -> CircuitNetwork:
    """Wire ``first``'s outputs into ``second``'s inputs (serial compose)."""
    if len(first.output_labels) != len(second.input_labels):
        raise ValueError("mismatched widths in network composition")
    relabel = dict(zip(second.input_labels, first.output_labels))
    merged = TensorNetwork(list(first.network.tensors))
    for tensor in second.network.tensors:
        merged.add(tensor.relabel(relabel).self_trace())
    new_inputs = list(first.input_labels)
    new_outputs = [relabel.get(lab, lab) for lab in second.output_labels]
    return CircuitNetwork(merged, new_inputs, new_outputs)

