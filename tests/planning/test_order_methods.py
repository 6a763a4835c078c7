"""The one plan knob: every ``order_method`` value, end to end.

``order_method`` names all six plan builders (three elimination-order
heuristics, cost-greedy merging and the two budgeted searches).  Every
value must give the same fidelity on every host backend as the dense
superoperator baseline, and the default must keep building exactly the
tree-decomposition plan.
"""

import pytest

from repro.api import CheckRequest, CircuitSpec, Engine, NoiseSpec
from repro.baseline import process_fidelity
from repro.core.miter import alg2_trace_network
from repro.library import bernstein_vazirani, qft, quantum_volume
from repro.noise import insert_random_noise
from repro.tensornet import build_plan, plan_from_order
from repro.tensornet.planner import ORDER_METHODS

NOISE = NoiseSpec(noises=2, seed=3)


@pytest.fixture(scope="module")
def engine():
    with Engine() as engine:
        yield engine


@pytest.fixture(scope="module")
def reference():
    ideal = CircuitSpec.from_library("qft", num_qubits=3).resolve()
    return process_fidelity(NOISE.apply(ideal), ideal)


def test_order_methods_are_the_six_plan_builders():
    assert ORDER_METHODS == (
        "sequential", "min_fill", "tree_decomposition", "greedy", "anneal",
        "hyper",
    )


@pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
@pytest.mark.parametrize("backend", ["tdd", "dense", "einsum"])
@pytest.mark.parametrize("order_method", ORDER_METHODS)
def test_every_order_method_agrees_with_the_superop_baseline(
    engine, reference, order_method, backend, algorithm
):
    response = engine.check(CheckRequest(
        ideal=CircuitSpec.from_library("qft", num_qubits=3),
        noise=NOISE,
        mode="fidelity",
        config={
            "backend": backend,
            "algorithm": algorithm,
            "order_method": order_method,
            "plan_budget_seconds": 0.01,
        },
    ))
    assert response.ok, response.error
    assert abs(response.fidelity - reference) < 1e-9


@pytest.mark.parametrize(
    "ideal",
    [qft(7), bernstein_vazirani(13), quantum_volume(5, 5, seed=0)],
    ids=["qft7", "bv13", "qv_n5d5"],
)
def test_default_plan_is_the_tree_decomposition_plan(ideal):
    noisy = insert_random_noise(ideal, 2, seed=0)
    network = alg2_trace_network(noisy, ideal)
    default = build_plan(network)
    reference = plan_from_order(network, method="tree_decomposition")
    assert default.steps == reference.steps
    assert default.total_cost() == reference.total_cost()
    assert default.planner == "tree_decomposition"


@pytest.mark.parametrize("order_method", ORDER_METHODS)
def test_plans_record_their_order_method(order_method):
    ideal = qft(3)
    network = alg2_trace_network(insert_random_noise(ideal, 1), ideal)
    plan = build_plan(network, order_method, plan_budget_seconds=0)
    assert plan.planner == order_method
