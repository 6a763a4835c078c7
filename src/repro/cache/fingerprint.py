"""Canonical, version-salted fingerprints for cache keys.

Every cache key in :mod:`repro.cache` derives from a SHA-256 digest over
*semantic content*, never object identity or repr strings:

* a **circuit** fingerprint hashes the instruction stream — per
  instruction its kind (gate / noise channel), the qubit tuple it acts
  on, and the exact operator data (the unitary matrix, or every Kraus
  operator of a channel) as canonical ``complex128`` bytes.  Gate names
  and parameter lists are deliberately excluded: two gates with equal
  matrices are the same gate to the checker, whatever they are called.
* a **structure** fingerprint hashes a tensor network's index labels
  and shapes only — exactly the information a
  :class:`~repro.tensornet.planner.ContractionPlan` depends on — so
  structurally identical networks with different numeric entries share
  plans.
* a **config** fingerprint hashes the canonical JSON form of a
  :class:`~repro.core.session.CheckConfig`, minus the cache knobs
  themselves (whether a result was computed with or without a cache
  does not change the result).

Every digest is seeded with :data:`CACHE_VERSION`.  Bump it whenever
the semantics of any cached payload change (plan IR layout, result
fields, fingerprint coverage): old entries then simply stop being
found, which is the entire invalidation story — no migration code.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..circuits import QuantumCircuit
    from ..tensornet import TensorNetwork

#: Version salt folded into every fingerprint.  Bumping it invalidates
#: the whole cache at key-derivation level (old entries are never read
#: and eventually fall to ``prune``).  v2: plans gained the
#: ``search_report`` provenance field and plan keys the search knobs.
#: v3: the ``planner`` knob folded into ``order_method``, so plans
#: record the ``order_method`` value as their ``planner`` provenance.
#: v4: plan steps name nodes, not einsum-path positions.
CACHE_VERSION = 4


def _new_hash(kind: str) -> "hashlib._Hash":
    """A SHA-256 hasher seeded with the kind tag and the version salt.

    Reads :data:`CACHE_VERSION` at call time so tests (and emergency
    operational overrides) can invalidate by monkeypatching the module
    attribute.
    """
    digest = hashlib.sha256()
    digest.update(f"repro:{kind}:v{CACHE_VERSION}:".encode())
    return digest


def _update_array(digest, array: np.ndarray) -> None:
    """Fold an operator matrix into ``digest`` in canonical form.

    Canonical form is C-contiguous ``complex128`` bytes prefixed by the
    shape, so dtype, memory layout and view-ness of the caller's array
    cannot perturb the fingerprint.
    """
    canonical = np.ascontiguousarray(array, dtype=np.complex128)
    digest.update(str(canonical.shape).encode())
    digest.update(canonical.tobytes())


def circuit_fingerprint(circuit: "QuantumCircuit") -> str:
    """Hex digest of a circuit's full semantic content.

    Covers the qubit count and, per instruction, the kind marker, the
    qubit tuple and the operator data (gate matrix / Kraus operators).
    Memoised on the circuit until its next append, under the current
    :data:`CACHE_VERSION`.
    """
    return circuit.memoised(
        ("fingerprint", CACHE_VERSION), _circuit_fingerprint
    )


def _circuit_fingerprint(circuit: "QuantumCircuit") -> str:
    digest = _new_hash("circuit")
    digest.update(str(circuit.num_qubits).encode())
    for inst in circuit:
        digest.update(str(inst.qubits).encode())
        if inst.is_unitary:
            digest.update(b"G")
            _update_array(digest, inst.operation.matrix)
        elif inst.is_noise:
            digest.update(b"N")
            ops = inst.operation.kraus_operators
            digest.update(str(len(ops)).encode())
            for op in ops:
                _update_array(digest, op)
        else:  # pragma: no cover - circuits only hold gates and channels
            raise TypeError(
                f"cannot fingerprint instruction {inst.name!r}: neither a "
                "unitary gate nor a Kraus channel"
            )
    return digest.hexdigest()


def structure_fingerprint(network: "TensorNetwork") -> str:
    """Hex digest of a network's index structure and shapes (no data).

    This is the content-addressed form of
    :meth:`~repro.tensornet.TensorNetwork.structure_key` plus tensor
    shapes — exactly what a contraction plan is a function of.
    """
    digest = _new_hash("structure")
    for tensor in network.tensors:
        digest.update(str(tensor.indices).encode())
        digest.update(str(tensor.data.shape).encode())
    return digest.hexdigest()


def config_fingerprint(config) -> str:
    """Hex digest of a check configuration, minus the cache knobs.

    Accepts anything exposing ``to_dict()`` with JSON-safe values (a
    :class:`~repro.core.session.CheckConfig`).  The ``cache`` /
    ``cache_dir`` fields are stripped: caching changes where a result
    comes from, never what it is.
    """
    record = dict(config.to_dict())
    record.pop("cache", None)
    record.pop("cache_dir", None)
    # tracing observes a run without changing its verdict, and traced /
    # untraced requests must share result-cache entries
    record.pop("trace", None)
    # cluster topology changes where work runs and where entries live,
    # never the verdict — every fleet shape shares one cache key space
    record.pop("cache_url", None)
    record.pop("workers", None)
    digest = _new_hash("config")
    digest.update(json.dumps(record, sort_keys=True, default=str).encode())
    return digest.hexdigest()


def plan_key(
    structure_fp: str,
    order_method: str,
    max_intermediate_size,
    plan_budget_seconds=None,
    plan_seed: int = 0,
) -> str:
    """Store key of a contraction plan.

    A plan is a pure function of the network structure and the planning
    knobs its ``order_method`` actually consults: only the search
    (``anneal``) folds in the budget and seed — a zero-budget
    search stores its baseline under a different key than a funded one,
    so it can never mask the searched plan — while min_fill ignores
    both, so those inert knobs stay out of its keys.
    """
    digest = _new_hash("plan")
    digest.update(f"{order_method}:{max_intermediate_size}:".encode())
    if order_method == "anneal":
        digest.update(
            f"budget={plan_budget_seconds!r}:seed={plan_seed!r}".encode()
        )
    digest.update(structure_fp.encode())
    return f"plan-{digest.hexdigest()}"


def result_key(ideal_fp: str, noisy_fp: str, config_fp: str) -> str:
    """Store key of a whole-check verdict.

    Keyed on both circuits' content fingerprints plus the config
    fingerprint: any change to a gate matrix, a Kraus operator, a qubit
    map, epsilon, the algorithm or the backend lands on a fresh key.
    """
    digest = _new_hash("result")
    digest.update(ideal_fp.encode())
    digest.update(noisy_fp.encode())
    digest.update(config_fp.encode())
    return f"result-{digest.hexdigest()}"


def request_fingerprint(ideal, noisy, config, mode: str = "check") -> str:
    """Content fingerprint of one fully-resolved check request.

    The semantic identity of a query against the checking service:
    both circuits' content, the effective config, and the run mode
    (a fidelity-mode query demands the exact no-early-termination
    value, so it can never alias a check-mode one).  For the default
    check mode this *is* the result-cache key
    (:meth:`repro.cache.results.ResultCache.key_for` delegates here),
    so an equal-fingerprinted check-mode request is answered without
    planning or contracting in any process sharing the store.
    Fidelity-mode fingerprints identify equal queries for dedup, but
    are never answered from the cache — fidelity results are not
    stored (see :meth:`repro.core.session.CheckSession.run`).
    """
    key = result_key(
        circuit_fingerprint(ideal),
        circuit_fingerprint(noisy),
        config_fingerprint(config),
    )
    if mode == "check":
        return key
    digest = _new_hash("request-mode")
    digest.update(mode.encode())
    digest.update(key.encode())
    return f"result-{digest.hexdigest()}"
