"""Ablation benchmarks for the design choices called out in DESIGN.md.

* contraction-order heuristic (sequential vs min-fill vs tree
  decomposition) for Algorithm II;
* TDD backend vs dense tensor backend;
* local optimisations (gate cancellation + SWAP elimination) on/off;
* early termination in Algorithm I.

Run: ``pytest benchmarks/bench_ablation.py --benchmark-only``
"""

from __future__ import annotations

import pytest

from repro.backends import get_backend
from repro.core import fidelity_collective, fidelity_individual

from _common import TABLE1_BY_NAME

WORKLOAD = TABLE1_BY_NAME["qft5"]


@pytest.mark.parametrize("order_method", ["sequential", "min_fill"])
def test_contraction_order(benchmark, order_method):
    """Alg II runtime under each contraction-order heuristic."""
    ideal = WORKLOAD.ideal()
    noisy = WORKLOAD.noisy()
    # a fresh backend per round: every round plans from scratch
    result = benchmark(
        lambda: fidelity_collective(
            noisy, ideal,
            backend=get_backend("tdd", order_method=order_method),
        )
    )
    assert result.fidelity > 0.9


@pytest.mark.parametrize("backend", ["tdd", "dense"])
def test_backend(benchmark, backend):
    """Alg II on the TDD backend vs the dense tensor backend."""
    ideal = WORKLOAD.ideal()
    noisy = WORKLOAD.noisy()
    result = benchmark(fidelity_collective, noisy, ideal, backend=backend)
    assert result.fidelity > 0.9


@pytest.mark.parametrize("optimised", [False, True])
def test_local_optimisations(benchmark, optimised):
    """Gate cancellation + SWAP elimination (excluded from Table I runs)."""
    workload = TABLE1_BY_NAME["qft7"]
    ideal = workload.ideal()
    noisy = workload.noisy()
    result = benchmark(
        fidelity_collective, noisy, ideal,
        use_local_optimisations=optimised,
    )
    assert result.fidelity > 0.9


@pytest.mark.parametrize("epsilon", [None, 0.05])
def test_early_termination(benchmark, epsilon):
    """Alg I with and without the partial-sum early stop."""
    workload = TABLE1_BY_NAME["qft5"]
    ideal = workload.ideal()
    noisy = workload.noisy()
    result = benchmark(fidelity_individual, noisy, ideal, epsilon=epsilon)
    if epsilon is not None:
        assert result.stats.terms_computed < result.stats.terms_total
