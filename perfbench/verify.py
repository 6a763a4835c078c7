"""Correctness gate: every response against an independent fidelity.

The reference never shares an executor with the checked path: circuits
small enough for the dense superoperator baseline (``repro.baseline``)
use it; larger ones use the ``dense`` tensordot backend on Algorithm II
with ``min_fill`` ordering, a different planner heuristic and kernel
from the einsum and tdd paths under test.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro import CheckConfig, CheckRequest, CheckResponse, CheckSession
from repro.baseline import estimate_superop_bytes, process_fidelity

#: Largest dense superoperator the reference builds (4 qubits: 3 MiB;
#: 5 qubits would need 48 MiB and ~0.4 s per check).
SUPEROP_BUDGET_BYTES = 16 * 2**20

#: Largest accepted |fidelity - reference|.
TOLERANCE = 1e-9


class Reference:
    """Reference fidelities, memoised per (circuits, noise)."""

    def __init__(self):
        self.session = CheckSession(CheckConfig(
            backend="dense", algorithm="alg2", order_method="min_fill"
        ))
        self.memo: Dict[tuple, float] = {}
        #: checks answered per reference path
        self.paths: Counter = Counter()

    def __call__(self, request: CheckRequest) -> float:
        key = (request.ideal, request.noisy, request.noise)
        value = self.memo.get(key)
        if value is None:
            ideal, noisy = request.resolve_circuits()
            if estimate_superop_bytes(ideal.num_qubits) <= SUPEROP_BUDGET_BYTES:
                value = process_fidelity(noisy, ideal)
                self.paths["superop"] += 1
            else:
                value = self.session.fidelity(ideal, noisy)
                self.paths["dense-min_fill"] += 1
            self.memo[key] = value
        return value


@dataclass
class Failure:
    index: int
    reason: str


def gate(
    requests: List[CheckRequest],
    responses: List[CheckResponse],
    reference: Callable[[CheckRequest], float],
) -> List[Failure]:
    """ERROR responses and fidelities off the reference by > TOLERANCE."""
    failures: List[Failure] = []
    for index, (request, response) in enumerate(zip(requests, responses)):
        if not response.ok:
            failures.append(Failure(
                index, f"ERROR [{response.error_code}]: {response.error}"
            ))
            continue
        expected = reference(request)
        error = abs(response.fidelity - expected)
        if not error <= TOLERANCE:
            failures.append(Failure(
                index,
                f"fidelity {response.fidelity!r} != reference "
                f"{expected!r} (|diff| {error:.3g})",
            ))
    return failures


def error_response(request: CheckRequest, error) -> CheckResponse:
    """The ERROR response a raising ``Engine.check`` call stands for."""
    return CheckResponse.from_error(error, request=request)


def first_failures(failures: List[Failure], limit: int = 5) -> Optional[str]:
    if not failures:
        return None
    shown = "; ".join(f"#{f.index}: {f.reason}" for f in failures[:limit])
    more = len(failures) - limit
    return shown + (f"; ... {more} more" if more > 0 else "")
