"""The one plan knob: every ``order_method`` value, end to end.

``order_method`` names both plan builders (the min-fill elimination
order and the budgeted anneal search).  Every
value must give the same fidelity on every host backend as the dense
superoperator baseline, and the default must keep building exactly the
min-fill plan.
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


def test_order_methods_are_the_two_plan_builders():
    assert ORDER_METHODS == ("min_fill", "anneal")


def check(engine, order_method, backend, algorithm, **knobs):
    return engine.check(CheckRequest(
        ideal=CircuitSpec.from_library("qft", num_qubits=3),
        noise=NOISE,
        mode="fidelity",
        config={
            "backend": backend,
            "algorithm": algorithm,
            "order_method": order_method,
            "plan_budget_seconds": 0.01,
            **knobs,
        },
    ))


@pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
@pytest.mark.parametrize("backend", ["tdd", "dense", "einsum"])
@pytest.mark.parametrize("order_method", ORDER_METHODS)
def test_every_order_method_agrees_with_the_superop_baseline(
    engine, reference, order_method, backend, algorithm
):
    response = check(engine, order_method, backend, algorithm)
    assert response.ok, response.error
    assert abs(response.fidelity - reference) < 1e-9


@pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
@pytest.mark.parametrize("backend", ["tdd", "dense", "einsum"])
@pytest.mark.parametrize("order_method", ORDER_METHODS)
def test_every_sliced_order_method_agrees_with_the_superop_baseline(
    engine, reference, order_method, backend, algorithm
):
    """A bound of 16 entries binds: the unsliced qft3 plans peak at 64."""
    response = check(
        engine, order_method, backend, algorithm, max_intermediate_size=16
    )
    assert response.ok, response.error
    assert abs(response.fidelity - reference) < 1e-9
    assert response.stats.max_intermediate_size <= 16


@pytest.mark.parametrize(
    "ideal",
    [qft(7), bernstein_vazirani(13), quantum_volume(5, 5, seed=0)],
    ids=["qft7", "bv13", "qv_n5d5"],
)
def test_default_plan_is_the_min_fill_plan(ideal):
    noisy = insert_random_noise(ideal, 2, seed=0)
    network = alg2_trace_network(noisy, ideal)
    default = build_plan(network)
    reference = plan_from_order(network)
    assert default.steps == reference.steps
    assert default.total_cost() == reference.total_cost()
    assert default.planner == "min_fill"


@pytest.mark.parametrize("order_method", ORDER_METHODS)
def test_plans_record_their_order_method(order_method):
    ideal = qft(3)
    network = alg2_trace_network(insert_random_noise(ideal, 1), ideal)
    plan = build_plan(network, order_method, plan_budget_seconds=0)
    assert plan.planner == order_method


def test_engine_check_runs_without_networkx():
    """The package and a default check need only numpy: ``networkx`` is
    blocked from import in a fresh interpreter."""
    import subprocess
    import sys
    from pathlib import Path

    import repro

    root = str(Path(repro.__file__).resolve().parents[1])
    code = (
        "import sys; sys.modules['networkx'] = None; "
        f"sys.path.insert(0, {root!r}); "
        "from repro import CheckRequest, CircuitSpec, Engine, NoiseSpec; "
        "response = Engine().check(CheckRequest("
        "ideal=CircuitSpec.from_library('qft', num_qubits=3), "
        "noise=NoiseSpec(noises=2, seed=3), mode='fidelity')); "
        "assert response.ok and response.fidelity > 0, response"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
