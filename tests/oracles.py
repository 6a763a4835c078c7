"""Independent constructions the tests check the miter path against.

Each builds a plain circuit (or matrix) the slow, obvious way, so a
test can compare what the checker contracts with a dense matrix or a
freshly closed trace network.  Import them like ``cluster_helpers``:
``from oracles import double_circuit``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.circuits import QuantumCircuit
from repro.core.miter import MiterNetwork, alg1_template
from repro.gates import Gate
from repro.linalg import COMPLEX
from repro.tensornet import Tensor


def trace_network(circuit: QuantumCircuit) -> MiterNetwork:
    """The closed network of ``tr(C)`` for a noise-free circuit ``C``.

    Each gate is one tensor, in circuit order; wire ``q`` is labelled
    ``q{q}.{t}`` after its ``t``-th gate and its last output closes on
    its input ``q{q}.0``; an untouched wire closes on an identity.
    """
    return alg1_template(
        circuit, QuantumCircuit(circuit.num_qubits),
        use_local_optimisations=False,
    ).network


def lower_kraus_selection(
    circuit: QuantumCircuit, selection: Sequence[int]
) -> QuantumCircuit:
    """Replace each noise channel with one of its Kraus operators.

    ``selection[k]`` picks the Kraus operator of the k-th noise site (in
    circuit order).  The result contains only matrix gates.
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


def term_network(
    noisy: QuantumCircuit, ideal: QuantumCircuit, selection: Sequence[int]
) -> MiterNetwork:
    """The closed network of one trace term ``tr(U† E_i)``, built fresh."""
    return trace_network(
        miter_circuit(lower_kraus_selection(noisy, selection), ideal)
    )


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
            doubled.append(inst.operation, inst.qubits)
            doubled.append(inst.operation.conjugate(), primed)
    return doubled


def permutation_matrix(perm: List[int]) -> np.ndarray:
    """Dense unitary of a qubit-wire permutation.

    ``perm[q]`` is the wire that qubit ``q``'s state is routed to.
    """
    n = len(perm)
    dim = 2**n
    mat = np.zeros((dim, dim))
    for src in range(dim):
        bits = [(src >> (n - 1 - q)) & 1 for q in range(n)]
        dst_bits = [0] * n
        for q in range(n):
            dst_bits[perm[q]] = bits[q]
        dst = 0
        for bit in dst_bits:
            dst = (dst << 1) | bit
        mat[dst, src] = 1.0
    return mat


def gate_tensor(matrix: np.ndarray, out_indices: Sequence[str],
                in_indices: Sequence[str]) -> Tensor:
    """Reshape a ``2^k x 2^k`` gate matrix into a rank-2k tensor.

    Axis order is ``(*out_indices, *in_indices)`` with qubit significance
    matching the matrix's big-endian convention: ``matrix[row, col]`` with
    row bits = out indices, col bits = in indices.
    """
    k = len(out_indices)
    if len(in_indices) != k:
        raise ValueError("gate tensors need matching in/out index counts")
    matrix = np.asarray(matrix, dtype=COMPLEX)
    if matrix.shape != (2**k, 2**k):
        raise ValueError(
            f"matrix shape {matrix.shape} incompatible with {k} qubit labels"
        )
    data = matrix.reshape([2] * (2 * k))
    return Tensor(data, list(out_indices) + list(in_indices))


def identity_tensor(out_index: str, in_index: str) -> Tensor:
    """Rank-2 identity wire tensor."""
    return Tensor(np.eye(2, dtype=COMPLEX), [out_index, in_index])


def scalar_tensor(value: complex) -> Tensor:
    """Rank-0 tensor holding a scalar factor."""
    return Tensor(np.asarray(value, dtype=COMPLEX), [])
