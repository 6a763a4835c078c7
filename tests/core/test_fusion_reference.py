"""The default check against a reference that neither shrinks nor fuses.

Every Table I row the benchmark's ``cold_alg2`` and ``warm_alg2_sweep``
workloads check (``perfbench/workloads.py``: ``COLD_ROWS`` and
``WARM_ROWS``) runs at its noise count on three placements through the
Engine's default Algorithm II path, which contracts the shrunk and fused
miter on the einsum kernel.  The reference is the paper's doubled
network, built with ``use_local_optimisations=False``, contracted by
``Tensor.contract`` along a min_fill order: it shares neither the miter
rewrites nor a backend kernel with the checked path.
"""

import pytest

from repro import CheckRequest, CircuitSpec, Engine, NoiseSpec
from repro.core.miter import alg2_trace_network
from repro.tensornet import min_fill_order

#: (library generator, parameters, noise count) of every cold_alg2 and
#: warm_alg2_sweep row; qv_n7d5 runs with 2 noises in both.
ROWS = {
    "grover3": ("grover", {"num_qubits": 3}, 4),
    "bv9": ("bernstein_vazirani", {"num_qubits": 9}, 6),
    "7x1mod15": ("mod_mult_7x15", {}, 3),
    "qft5": ("qft", {"num_qubits": 5}, 3),
    "bv13": ("bernstein_vazirani", {"num_qubits": 13}, 4),
    "qv_n5d5": (
        "quantum_volume", {"num_qubits": 5, "depth": 5, "seed": 0}, 3
    ),
    "qv_n7d5": (
        "quantum_volume", {"num_qubits": 7, "depth": 5, "seed": 0}, 2
    ),
    "bv16": ("bernstein_vazirani", {"num_qubits": 16}, 9),
    "qft7": ("qft", {"num_qubits": 7}, 6),
    "qft9": ("qft", {"num_qubits": 9}, 2),
}

#: Heavier than the paper's 0.999, so that a misplaced noise site moves
#: the fidelity by far more than the tolerance.
P = 0.9


@pytest.fixture(scope="module")
def engine():
    with Engine(jobs=1, cache=False) as engine:
        yield engine


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("row", sorted(ROWS))
def test_default_alg2_matches_the_unfused_tensor_contract(engine, row, seed):
    library, params, noises = ROWS[row]
    request = CheckRequest(
        ideal=CircuitSpec.from_library(library, **params),
        noise=NoiseSpec(noises=noises, seed=seed, p=P),
        mode="fidelity",
        config={"backend": "einsum", "algorithm": "alg2"},
    )
    response = engine.check(request)
    assert response.error is None, response.error
    ideal, noisy = request.resolve_circuits()
    reference = alg2_trace_network(
        noisy, ideal, use_local_optimisations=False
    )
    expected = (
        reference.contract(order=min_fill_order(reference)).scalar().real
        / 4**ideal.num_qubits
    )
    assert abs(response.result.fidelity - expected) < 1e-9
