"""Unit tests for the anytime search driver (:mod:`repro.planning`).

The contract under test: ``search_plan`` never returns anything worse
than the heuristic baselines (anytime floor), a zero budget runs zero
trials, an exact ``trials`` count is deterministic and machine
independent, and every plan carries a faithful
:class:`~repro.planning.PlanSearchReport`.
"""

import numpy as np
import pytest

from repro.core.miter import alg2_trace_network
from repro.library import qft
from repro.noise import insert_random_noise
from repro.planning import (
    DEFAULT_PLAN_BUDGET_SECONDS,
    SEARCHERS,
    search_plan,
)
from repro.planning.driver import _steps_from_pairs, merge_cost
from repro.tensornet import ORDER_HEURISTICS, greedy_plan, plan_from_order
from repro.tensornet.planner import ORDER_METHODS, _make_step, _plan_inputs

SEARCH = sorted(SEARCHERS)


def network(qubits=3, noises=2, seed=0):
    ideal = qft(qubits)
    noisy = insert_random_noise(ideal, noises, seed=seed)
    return alg2_trace_network(noisy, ideal)


def baseline_cost(net):
    return min(
        greedy_plan(net).total_cost(),
        plan_from_order(net, method="min_fill").total_cost(),
    )


class TestValidation:
    def test_unknown_planner_lists_the_registered_searchers(self):
        with pytest.raises(ValueError) as err:
            search_plan(network(), "gredy")
        for name in SEARCHERS:
            assert name in str(err.value)

    @pytest.mark.parametrize("budget", [-1.0, -0.001, float("inf"),
                                        float("nan"), "1.0", True])
    def test_bad_budget_rejected(self, budget):
        with pytest.raises(ValueError, match=">= 0 or None"):
            search_plan(network(), "anneal", budget_seconds=budget)

    @pytest.mark.parametrize("trials", [-1, 1.5, "3", True])
    def test_bad_trials_rejected(self, trials):
        with pytest.raises(ValueError, match=">= 0 or None"):
            search_plan(network(), "anneal", trials=trials)

    def test_searchers_cover_exactly_the_search_order_methods(self):
        assert list(SEARCHERS) == ["anneal", "hyper"]
        assert set(ORDER_METHODS) == (
            set(ORDER_HEURISTICS) | {"greedy"} | set(SEARCHERS)
        )


class TestAnytimeSemantics:
    @pytest.mark.parametrize("planner", SEARCH)
    def test_zero_budget_returns_the_best_baseline(self, planner):
        net = network()
        plan = search_plan(net, planner, budget_seconds=0)
        report = plan.search_report
        assert report.trials == 0
        assert report.best_trial is None
        assert report.trajectory == ()
        assert plan.planner == planner  # relabelled baseline
        assert plan.total_cost() == baseline_cost(net)
        plan.validate()

    @pytest.mark.parametrize("planner", SEARCH)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_search_never_loses_to_the_baselines(self, planner, seed):
        net = network()
        plan = search_plan(net, planner, trials=10, seed=seed)
        assert plan.total_cost() <= baseline_cost(net)
        plan.validate()

    @pytest.mark.parametrize("planner", SEARCH)
    def test_fixed_trials_are_deterministic(self, planner):
        net = network()
        kwargs = dict(trials=8, seed=3)
        first = search_plan(net, planner, **kwargs)
        second = search_plan(net, planner, **kwargs)
        assert first.digest() == second.digest()
        assert first.steps == second.steps
        assert first.search_report.best_cost == \
            second.search_report.best_cost

    def test_trials_take_precedence_over_the_clock(self):
        plan = search_plan(
            network(), "anneal", trials=3, budget_seconds=0
        )
        assert plan.search_report.trials == 3

    def test_budget_is_enforced_by_the_injected_clock(self):
        ticks = iter(float(t) for t in range(100))
        plan = search_plan(
            network(),
            "anneal",
            budget_seconds=3.5,
            clock=lambda: next(ticks),
        )
        # start at t=0; loop checks at t=1, 2, 3 (run) and stops at t=4
        assert plan.search_report.trials == 3

    def test_default_budget_applies_when_nothing_is_given(self):
        ticks = iter(float(t) for t in range(100))
        plan = search_plan(network(), "anneal", clock=lambda: next(ticks))
        assert plan.search_report.budget_seconds == \
            DEFAULT_PLAN_BUDGET_SECONDS


class TestSearchImprovement:
    def test_anneal_beats_both_baselines_on_a_noisy_qft(self):
        """The acceptance workload in miniature: anneal finds a strictly
        cheaper contraction than greedy and min_fill within a modest
        deterministic trial count."""
        net = network(qubits=4, noises=2, seed=0)
        plan = search_plan(net, "anneal", trials=40, seed=0)
        assert plan.total_cost() < baseline_cost(net)
        report = plan.search_report
        assert report.best_trial is not None
        assert report.trajectory[-1] == (report.best_trial, report.best_cost)
        costs = [cost for _, cost in report.trajectory]
        assert costs == sorted(costs, reverse=True)
        assert all(cost < report.baseline_cost for cost in costs)
        plan.validate()


class TestReport:
    def test_report_contents(self):
        net = network()
        plan = search_plan(net, "anneal", trials=5, seed=11)
        report = plan.search_report
        assert report.planner == "anneal"
        assert report.seed == 11
        assert report.budget_seconds is None
        assert report.trials == 5
        assert report.baseline_planner in ("greedy", "min_fill")
        assert report.best_cost == plan.total_cost()
        assert report.best_cost <= report.baseline_cost
        assert report.search_seconds >= 0

    def test_report_to_dict_is_json_safe(self):
        import json

        plan = search_plan(network(), "anneal", trials=5)
        record = json.loads(json.dumps(plan.search_report.to_dict()))
        assert record["planner"] == "anneal"
        assert isinstance(record["trajectory"], list)

    def test_report_rides_through_slicing(self):
        plan = search_plan(
            network(), "anneal", trials=5, max_intermediate_size=16
        )
        assert plan.search_report is not None
        assert plan.peak_size() <= 16
        assert plan.num_slices() >= 1
        plan.validate()

    def test_plan_to_dict_carries_the_search_record(self):
        plan = search_plan(network(), "anneal", trials=5)
        assert plan.to_dict()["search"]["trials"] == 5
        heuristic = greedy_plan(network())
        assert heuristic.to_dict()["search"] is None

    def test_report_does_not_perturb_the_digest(self):
        """The digest hashes plan *structure*; provenance must not
        split the plan cache by search metadata."""
        from dataclasses import replace

        plan = search_plan(network(), "anneal", trials=8, seed=0)
        stripped = replace(plan, search_report=None)
        assert plan.digest() == stripped.digest()


class TestExecution:
    @pytest.mark.parametrize("planner", SEARCH)
    def test_searched_plan_contracts_to_the_dense_value(self, planner):
        from repro.backends import get_backend

        net = network()
        reference = get_backend("dense").contract_scalar(net)
        plan = search_plan(net, planner, trials=6, seed=1)
        for backend in ("tdd", "dense", "einsum"):
            value = get_backend(backend).contract_scalar(net, plan=plan)
            assert np.isclose(value, reference, atol=1e-9)


class TestStepsFromPairs:
    def test_stable_ids_reproduce_positional_costs(self):
        """The id-pair -> positional-step conversion must price every
        merge exactly like the searchers' shared merge_cost model."""
        net = network()
        inputs, dims = _plan_inputs(net)
        plan = search_plan(net, "anneal", trials=20, seed=0)
        if plan.search_report.best_trial is None:  # pragma: no cover
            pytest.skip("baseline won; no pair list to check")
        total = sum(step.flops for step in plan.steps)
        assert total == plan.search_report.best_cost

    def test_merge_cost_matches_make_step(self):
        inputs = [("a", "b"), ("b", "c"), ("c", "a")]
        dims = {"a": 2, "b": 3, "c": 4}
        ops = list(inputs)
        step = _make_step(ops, 0, 1, dims)
        output, size, flops = merge_cost(inputs[0], inputs[1], dims)
        assert step.output == output
        assert step.flops == flops
        steps = _steps_from_pairs(inputs, dims, [(0, 1), (3, 2)])
        assert steps[0].output == output
        assert steps[1].output == ()
