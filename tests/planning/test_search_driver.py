"""Unit tests for the anytime search driver (:mod:`repro.planning`).

The contract under test: ``search_plan`` never returns anything worse
than the min_fill baseline (anytime floor), a zero budget runs zero
trials and builds only that baseline, an exact ``trials`` count is
deterministic and machine independent, and every plan carries a faithful
:class:`~repro.planning.PlanSearchReport`.
"""

import numpy as np
import pytest

from repro.core.miter import alg2_trace_network
from repro.library import (
    bernstein_vazirani,
    grover,
    qft,
    quantum_volume,
    randomized_benchmarking,
)
from repro.noise import insert_random_noise
from repro.planning import DEFAULT_PLAN_BUDGET_SECONDS, search_plan
from repro.tensornet import build_plan, plan_from_order
from repro.tensornet.planner import (
    _plan_inputs,
    _steps_from_pairs,
    merge_cost,
)

def network(qubits=3, noises=2, seed=0):
    """An unshrunk alg2 network: enough steps for a search to improve."""
    ideal = qft(qubits)
    noisy = insert_random_noise(ideal, noises, seed=seed)
    return alg2_trace_network(noisy, ideal, use_local_optimisations=False)


def baseline_cost(net):
    return plan_from_order(net).total_cost()


class TestValidation:
    @pytest.mark.parametrize("budget", ["1.0", True])
    def test_bad_budget_type_rejected(self, budget):
        with pytest.raises(TypeError, match=">= 0 or None"):
            search_plan(network(), budget_seconds=budget)

    @pytest.mark.parametrize("budget", [-1.0, -0.001, float("inf"),
                                        float("nan")])
    def test_bad_budget_value_rejected(self, budget):
        with pytest.raises(ValueError, match=">= 0 or None"):
            search_plan(network(), budget_seconds=budget)

    @pytest.mark.parametrize("budget, error", [
        ("1.0", TypeError),
        (True, TypeError),
        (-1.0, ValueError),
        (-0.001, ValueError),
        (float("inf"), ValueError),
        (float("nan"), ValueError),
    ])
    def test_build_plan_shares_the_budget_check(self, budget, error):
        """Direct ``build_plan`` callers get the same error split as
        ``CheckConfig``: the budget check is the one shared validator."""
        with pytest.raises(error, match=">= 0 or None"):
            build_plan(network(), "anneal", plan_budget_seconds=budget)

    @pytest.mark.parametrize("trials", [-1, 1.5, "3", True])
    def test_bad_trials_rejected(self, trials):
        with pytest.raises(ValueError, match=">= 0 or None"):
            search_plan(network(), trials=trials)


class TestAnytimeSemantics:
    def test_zero_budget_returns_the_baseline(self):
        net = network()
        plan = search_plan(net, budget_seconds=0)
        report = plan.search_report
        assert report.trials == 0
        assert report.best_trial is None
        assert report.trajectory == ()
        assert plan.planner == "anneal"  # relabelled baseline
        assert plan.total_cost() == baseline_cost(net)
        plan.validate()

    @pytest.mark.parametrize(
        "ideal",
        [qft(7), bernstein_vazirani(9), quantum_volume(7, 5, seed=0)],
        ids=["qft7", "bv9", "qv_n7d5"],
    )
    def test_zero_budget_builds_exactly_one_min_fill_plan(
        self, monkeypatch, ideal
    ):
        """``budget_seconds=0`` costs one min_fill build and returns that
        plan, relabelled: no other planner runs as a floor."""
        import repro.tensornet.planner as planner

        net = alg2_trace_network(insert_random_noise(ideal, 3, seed=1), ideal)
        reference = plan_from_order(net)
        calls = []
        real = planner.min_fill_order
        monkeypatch.setattr(
            planner, "min_fill_order",
            lambda network: calls.append(network) or real(network),
        )
        plan = search_plan(net, budget_seconds=0)
        assert calls == [net]
        assert plan.steps == reference.steps
        assert plan.order == reference.order
        assert plan.planner == "anneal"
        report = plan.search_report
        assert report.trials == 0
        assert report.baseline_planner == "min_fill"
        assert report.baseline_cost == reference.total_cost()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_search_never_loses_to_the_baseline(self, seed):
        net = network()
        plan = search_plan(net, trials=10, seed=seed)
        assert plan.total_cost() <= baseline_cost(net)
        plan.validate()

    def test_fixed_trials_are_deterministic(self):
        net = network()
        kwargs = dict(trials=8, seed=3)
        first = search_plan(net, **kwargs)
        second = search_plan(net, **kwargs)
        assert first.digest() == second.digest()
        assert first.steps == second.steps
        assert first.search_report.best_cost == \
            second.search_report.best_cost

    def test_trials_take_precedence_over_the_clock(self):
        plan = search_plan(network(), trials=3, budget_seconds=0)
        assert plan.search_report.trials == 3

    def test_budget_is_enforced_by_the_injected_clock(self):
        ticks = iter(float(t) for t in range(100))
        plan = search_plan(
            network(),
            budget_seconds=3.5,
            clock=lambda: next(ticks),
        )
        # start at t=0; loop checks at t=1, 2, 3 (run) and stops at t=4
        assert plan.search_report.trials == 3

    def test_default_budget_applies_when_nothing_is_given(self):
        ticks = iter(float(t) for t in range(100))
        plan = search_plan(network(), clock=lambda: next(ticks))
        assert plan.search_report.budget_seconds == \
            DEFAULT_PLAN_BUDGET_SECONDS


# (circuit, noises, noise seed, trials, search seed) -> what the search
# found: the plan digest, best cost, winning trial and improvement
# trajectory.  Fixed-trial searches are machine independent, so these
# pins hold the anneal trials, their RNG streams and the plans they pick
# to exactly what they were when the search had a second strategy
# beside it.
PINNED_SEARCHES = {
    "qft3": ((lambda: qft(3), 2, 0, 20, 0), (
        "74967ee2b87a5a4388d6ef616b62ecc2c7cc1200", 2784, 17,
        [(17, 2784)])),
    "qft4": ((lambda: qft(4), 2, 0, 40, 0), (
        "ffea466e9c98287aa0d5477087b867879d8986d7", 9552, 19,
        [(6, 10272), (19, 9552)])),
    "qft4_n4": ((lambda: qft(4), 4, 1, 30, 2), (
        "9772b679b315ed46fd790d096bda2bbc87678e8e", 10704, 11,
        [(11, 10704)])),
    "qft5": ((lambda: qft(5), 2, 1, 30, 0), (
        "37bc19c85de3056f33dee1f5e9e2d7937f60a69b", 41952, 22,
        [(22, 41952)])),
    "bv6": ((lambda: bernstein_vazirani(6), 4, 0, 20, 1), (
        "e22b0fd0c284fa61d1666d0ac5f4a3c8d159351f", 2000, None, [])),
    "grover3": ((lambda: grover(3), 2, 2, 20, 2), (
        "36bdc19f1f441f8ada20e5ff3466732943f5cba3", 3120, 0,
        [(0, 3120)])),
    "qv_n4d4": ((lambda: quantum_volume(4, 4, seed=0), 2, 0, 20, 3), (
        "b82c51eb019e5556ef07ffabb4ac713c6a166a5a", 23040, 17,
        [(5, 23408), (17, 23040)])),
    "rb2": ((lambda: randomized_benchmarking(2, 5, seed=0), 2, 0, 20, 0), (
        "f144c39ce45c156c7284708acbfb504f7e824495", 836, 6,
        [(6, 836)])),
}


class TestPinnedSearches:
    @pytest.mark.parametrize("case", sorted(PINNED_SEARCHES))
    def test_fixed_trial_search_finds_the_pinned_plan(self, case):
        (make, noises, noise_seed, trials, seed), expected = \
            PINNED_SEARCHES[case]
        digest, best_cost, best_trial, trajectory = expected
        ideal = make()
        net = alg2_trace_network(
            insert_random_noise(ideal, noises, seed=noise_seed), ideal,
            use_local_optimisations=False,
        )
        plan = search_plan(net, trials=trials, seed=seed)
        report = plan.search_report
        assert plan.digest() == digest
        assert report.best_cost == best_cost == plan.total_cost()
        assert report.best_trial == best_trial
        assert list(report.trajectory) == trajectory
        via_knobs = build_plan(
            net, "anneal", plan_seed=seed, plan_trials=trials
        )
        assert via_knobs.digest() == digest


class TestSearchImprovement:
    def test_anneal_beats_the_baseline_on_a_noisy_qft(self):
        """The acceptance workload in miniature: anneal finds a strictly
        cheaper contraction than min_fill within a modest deterministic
        trial count."""
        net = network(qubits=4, noises=2, seed=0)
        plan = search_plan(net, trials=40, seed=0)
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
        plan = search_plan(net, trials=5, seed=11)
        report = plan.search_report
        assert report.planner == "anneal"
        assert report.seed == 11
        assert report.budget_seconds is None
        assert report.trials == 5
        assert report.baseline_planner == "min_fill"
        assert report.best_cost == plan.total_cost()
        assert report.best_cost <= report.baseline_cost
        assert report.search_seconds >= 0

    def test_report_to_dict_is_json_safe(self):
        import json

        plan = search_plan(network(), trials=5)
        record = json.loads(json.dumps(plan.search_report.to_dict()))
        assert record["planner"] == "anneal"
        assert isinstance(record["trajectory"], list)

    def test_report_rides_through_slicing(self):
        plan = search_plan(
            network(), trials=5, max_intermediate_size=16
        )
        assert plan.search_report is not None
        assert plan.peak_size() <= 16
        assert plan.num_slices() >= 1
        plan.validate()

    def test_plan_to_dict_carries_the_search_record(self):
        plan = search_plan(network(), trials=5)
        assert plan.to_dict()["search"]["trials"] == 5
        min_fill = plan_from_order(network())
        assert min_fill.to_dict()["search"] is None

    def test_report_does_not_perturb_the_digest(self):
        """The digest hashes plan *structure*; provenance must not
        split the plan cache by search metadata."""
        from dataclasses import replace

        plan = search_plan(network(), trials=8, seed=0)
        stripped = replace(plan, search_report=None)
        assert plan.digest() == stripped.digest()


class TestExecution:
    def test_searched_plan_contracts_to_the_dense_value(self):
        from repro.backends import get_backend

        net = network()
        reference = get_backend("dense").contract_scalar(net)
        plan = search_plan(net, trials=6, seed=1)
        for backend in ("tdd", "dense", "einsum"):
            value = get_backend(backend).contract_scalar(net, plan=plan)
            assert np.isclose(value, reference, atol=1e-9)


class TestStepsFromPairs:
    def test_node_pairs_reproduce_the_search_cost(self):
        """The node-pair -> plan-step conversion must price every merge
        exactly like the searchers' shared merge_cost model."""
        net = network()
        inputs, dims = _plan_inputs(net)
        plan = search_plan(net, trials=20, seed=0)
        if plan.search_report.best_trial is None:  # pragma: no cover
            pytest.skip("baseline won; no pair list to check")
        total = sum(step.flops for step in plan.steps)
        assert total == plan.search_report.best_cost

    def test_merge_cost_prices_the_plan_steps(self):
        inputs = [("a", "b"), ("b", "c"), ("c", "a")]
        dims = {"a": 2, "b": 3, "c": 4}
        output, size, flops = merge_cost(inputs[0], inputs[1], dims)
        steps = _steps_from_pairs(inputs, dims, [(0, 1), (3, 2)])
        first = steps[0]
        assert (first.output, first.output_size, first.flops) == (
            output, size, flops
        )
        # the lower node is the lhs, whatever order the pair names them
        assert [(s.lhs, s.rhs) for s in steps] == [(0, 1), (2, 3)]
        assert steps[1].output == ()
