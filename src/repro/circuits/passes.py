"""Local optimisation passes from Sec. IV-C of the paper.

* :func:`cancel_on_wire_stacks` is the one cancellation pass: a single
  walk over an operation list with a stack of kept operations per wire.
  An operation whose wires all have the same kept operation on top, on
  the same qubit tuple, is offered to a ``rewrite`` rule that may cancel
  the pair or replace it by one operation.  Popping exposes the
  operation below, so nested pairs (``a b b† a†``) vanish in the same
  pass.  The miter shrink (:func:`repro.core.miter.shrink_miter`) runs
  it with an inverse-pair rule on the undoubled miter.
* :func:`cancel_adjacent_gates` runs it on a circuit with two rules:
  neighbouring gate pairs whose product is the identity (e.g. H·H, S·S†,
  CX·CX) cancel, and adjacent same-axis rotations merge
  (``rz(a)·rz(b) → rz(a+b)``, likewise ``rx``/``ry`` and the phase gate
  ``p``), dropping the merged gate outright when its angle lands on the
  identity (``≡ 0 mod 4π`` for the rotations, mod 2π for ``p``).
  :func:`~repro.core.unitary_check.check_unitary_equivalence` uses it.
* :func:`eliminate_final_swaps` removes trailing SWAP gates and returns the
  output permutation they implement; when computing ``tr(...)`` the trace
  closure simply reconnects inputs to the permuted outputs instead.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..gates import standard
from ..linalg import ATOL
from .circuit import QuantumCircuit
from .instruction import Instruction

#: Gate families that compose additively in their single angle
#: parameter: ``g(a) · g(b) = g(a + b)``.  Keyed by the *exact* gate
#: name — derived names ("rz_dg", "rz_conj") are excluded on purpose,
#: since their matrices no longer match their stored parameters.
_ROTATION_FACTORIES = {
    "rx": standard.rx_gate,
    "ry": standard.ry_gate,
    "rz": standard.rz_gate,
    "p": standard.p_gate,
}

Op = TypeVar("Op")


def cancel_on_wire_stacks(
    ops: Sequence[Op],
    rewrite: Callable[[Op, Op], Optional[Tuple[Op, ...]]],
) -> List[Op]:
    """One O(ops) cancellation pass; the kept operations, in order.

    Each operation carries its qubit tuple as ``.qubits``.
    ``rewrite(top, op)`` is asked only when ``top`` is the last kept
    operation on every wire of ``op`` and acts on the same qubit tuple.
    It returns ``None`` to keep both, or what replaces the pair: ``()``
    drops both, ``(merged,)`` puts one operation on the same qubits in
    their place (offered in turn to the operation below, so merge chains
    collapse too).  Operations that a rule never pairs are barriers:
    nothing moves across them.
    """
    kept: List[Optional[Op]] = []
    stacks: Dict[int, List[int]] = {}
    for op in ops:
        while op is not None:
            wires = [stacks.setdefault(q, []) for q in op.qubits]
            top = wires[0][-1] if wires and wires[0] else None
            if top is not None and (
                any(not wire or wire[-1] != top for wire in wires)
                or kept[top].qubits != op.qubits
            ):
                top = None
            result = None if top is None else rewrite(kept[top], op)
            if result is None:
                for wire in wires:
                    wire.append(len(kept))
                kept.append(op)
                break
            for wire in wires:
                wire.pop()
            kept[top] = None
            op = result[0] if result else None
    return [op for op in kept if op is not None]


def _merge_rotations(inst_i, inst_j, product, atol: float):
    """The merged gate of two adjacent same-family rotations.

    Returns ``(merged, True)`` when the combined angle is the identity
    (drop both gates), ``(merged, False)`` when a single merged gate
    replaces the pair, and ``(None, False)`` when the pair is not a
    mergeable rotation pair at all.

    ``product`` is the pair's actual matrix product: the merged gate is
    only accepted when its matrix reproduces it, so a custom
    :class:`Gate` that *names* itself ``rz`` but carries a different
    convention (or width) can never be rewritten to something it is
    not — in an equivalence checker, an optimisation that trusts
    labels over matrices could flip verdicts.
    """
    factory = _ROTATION_FACTORIES.get(inst_i.name)
    if (
        factory is None
        or inst_j.name != inst_i.name
        or len(inst_i.operation.params) != 1
        or len(inst_j.operation.params) != 1
    ):
        return None, False
    merged = factory(inst_i.operation.params[0] + inst_j.operation.params[0])
    if merged.matrix.shape != product.shape or not np.allclose(
        merged.matrix, product, atol=atol
    ):
        return None, False
    return merged, merged.is_identity(atol=atol)


def cancel_adjacent_gates(
    circuit: QuantumCircuit, atol: float = ATOL
) -> QuantumCircuit:
    """Cancel inverse pairs and merge adjacent rotations in one pass.

    Two rewrite rules, applied by :func:`cancel_on_wire_stacks` to pairs
    acting on *identical* qubit tuples with no interposing operation on
    any shared wire:

    * **cancellation** — adjacent unitaries whose product is the
      identity are both removed;
    * **rotation merging** — adjacent ``rx``/``ry``/``rz``/``p`` gates
      on the same wire fuse into one gate carrying the summed angle
      (dropped entirely when the sum is the identity — ``0 mod 4π``
      for the rotations, whose period is 4π, and ``0 mod 2π`` for
      ``p``), so chains like ``rz(a)·rz(b)·rz(c)`` collapse.

    Both rules are exactly functionality-preserving (no global-phase
    slack; noise channels are never touched and act as barriers).
    """

    def rewrite(top: Instruction, inst: Instruction):
        if not (top.is_unitary and inst.is_unitary):
            return None
        product = inst.operation.matrix @ top.operation.matrix
        if np.allclose(product, np.eye(product.shape[0]), atol=atol):
            return ()
        merged, drops = _merge_rotations(top, inst, product, atol)
        if merged is None:
            return None
        return () if drops else (Instruction(merged, top.qubits),)

    out = QuantumCircuit(circuit.num_qubits, circuit.name)
    out.extend(cancel_on_wire_stacks(circuit.instructions, rewrite))
    return out


def eliminate_final_swaps(
    circuit: QuantumCircuit,
) -> Tuple[QuantumCircuit, List[int]]:
    """Strip trailing SWAP gates, returning (circuit', permutation).

    The original circuit equals ``P @ circuit'`` where ``P`` is the
    permutation unitary sending basis state bit ``q`` to bit ``perm[q]``.
    A SWAP is "trailing" when no other operation follows it on either wire.

    The returned ``perm`` satisfies: output wire ``q`` of ``circuit'``
    becomes output wire ``perm[q]`` of the original circuit.
    """
    remaining = list(circuit.instructions)
    perm = list(range(circuit.num_qubits))
    changed = True
    while changed:
        changed = False
        busy = set()
        for idx in range(len(remaining) - 1, -1, -1):
            inst = remaining[idx]
            if inst.name == "swap" and not busy.intersection(inst.qubits):
                a, b = inst.qubits
                # The swap routes wire a's output to position b and vice
                # versa; compose onto the running permutation.
                perm[a], perm[b] = perm[b], perm[a]
                del remaining[idx]
                changed = True
                break
            busy.update(inst.qubits)
    out = QuantumCircuit(circuit.num_qubits, f"{circuit.name}_noswap")
    for inst in remaining:
        out.append(inst.operation, inst.qubits)
    return out, perm


def permutation_matrix(perm: List[int]) -> np.ndarray:
    """Dense unitary of a qubit-wire permutation (for validation/tests).

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
