"""The cancellation pass behind the local optimisations of Sec. IV-C.

:func:`cancel_on_wire_stacks` is a single walk over an operation list
with a stack of kept operations per wire.  An operation whose wires all
have the same kept operation on top, on the same qubit tuple, is offered
with it to a ``cancels`` rule; when the rule says the pair is the
identity both go.  Popping exposes the operation below, so nested pairs
(``a b b† a†``) vanish in the same pass.  The miter shrink
(:func:`repro.core.miter.shrink_miter`) runs it with an inverse-pair
rule on the undoubled miter.  A second walk over what it keeps,
:func:`repro.core.miter.fuse_gates`, folds each one-qubit gate into a
neighbouring gate; every check contracts the result.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, TypeVar

Op = TypeVar("Op")


def cancel_on_wire_stacks(
    ops: Sequence[Op], cancels: Callable[[Op, Op], bool]
) -> List[Op]:
    """One O(ops) cancellation pass; the kept operations, in order.

    Each operation carries its qubit tuple as ``.qubits``.
    ``cancels(top, op)`` is asked only when ``top`` is the last kept
    operation on every wire of ``op`` and acts on the same qubit tuple;
    when it returns true both are dropped.  Operations that the rule
    never pairs are barriers: nothing moves across them.
    """
    kept: List[Optional[Op]] = []
    stacks: Dict[int, List[int]] = {}
    for op in ops:
        wires = [stacks.setdefault(q, []) for q in op.qubits]
        top = wires[0][-1] if wires and wires[0] else None
        if (
            top is not None
            and all(wire and wire[-1] == top for wire in wires)
            and kept[top].qubits == op.qubits
            and cancels(kept[top], op)
        ):
            for wire in wires:
                wire.pop()
            kept[top] = None
            continue
        for wire in wires:
            wire.append(len(kept))
        kept.append(op)
    return [op for op in kept if op is not None]
