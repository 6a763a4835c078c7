"""Ablation benchmarks for the checker's design choices.

* plan builder (the min-fill elimination order vs the anneal search)
  for Algorithm II;
* TDD backend vs dense tensor backend;
* local optimisations (the miter shrink, on by default) on/off;
* early termination in Algorithm I.

Run: ``pytest benchmarks/bench_ablation.py --benchmark-only``
"""

from __future__ import annotations

import pytest

from repro.backends import get_backend
from repro.core import fidelity_collective, fidelity_individual
from repro.core.miter import alg2_trace_network
from repro.tensornet import ORDER_METHODS, build_plan

from _common import TABLE1_BY_NAME

WORKLOAD = TABLE1_BY_NAME["qft5"]

#: Exact anneal trial count of the order row: a trial count, not a clock
#: budget, so the searched plan is the same on every machine.
PLAN_TRIALS = 64


@pytest.mark.parametrize("order_method", ORDER_METHODS)
def test_order_method(benchmark, order_method):
    """Alg II on tdd under each plan builder, planning included."""
    ideal = WORKLOAD.ideal()
    noisy = WORKLOAD.noisy()
    dim = 2**ideal.num_qubits

    def plan_and_contract():
        # plan from scratch every round
        network = alg2_trace_network(noisy, ideal)
        plan = build_plan(network, order_method, plan_trials=PLAN_TRIALS)
        return get_backend("tdd").contract_scalar(network, plan=plan)

    value = benchmark(plan_and_contract)
    assert value.real / (dim * dim) > 0.9


@pytest.mark.parametrize("backend", ["tdd", "dense"])
def test_backend(benchmark, backend):
    """Alg II on the TDD backend vs the dense tensor backend."""
    ideal = WORKLOAD.ideal()
    noisy = WORKLOAD.noisy()
    result = benchmark(fidelity_collective, noisy, ideal, backend=backend)
    assert result.fidelity > 0.9


@pytest.mark.parametrize("optimised", [False, True])
def test_local_optimisations(benchmark, optimised):
    """The miter shrink on and off (the Table I scripts turn it off)."""
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
