"""Searched plans through the plan/result caches.

The acceptance story: paying for a search once is enough.  A warm
plan-cache rerun replays the searched plan — provenance report
included — without spending a single trial, and the budget/seed knobs
partition the cache so a zero-budget baseline can never mask a funded
search (or vice versa).
"""

from repro.backends import get_backend
from repro.circuits import QuantumCircuit
from repro.core import CheckConfig, CheckSession
from repro.core.miter import alg2_trace_network
from repro.noise import depolarizing

BUDGET = 0.05  # plenty for dozens of trials on these networks


def pair(angle=0.3, p=0.99):
    """A small ideal/noisy pair whose structure is angle-independent."""
    ideal = QuantumCircuit(3, "w").h(0).rz(angle, 0).cx(0, 1).cx(1, 2)
    noisy = ideal.copy()
    noisy.append(depolarizing(p), [1])
    noisy.append(depolarizing(p), [2])
    return ideal, noisy


class TestBackendPlanCache:
    def test_warm_rerun_skips_the_search_entirely(self, tmp_path):
        ideal, noisy = pair()
        network = alg2_trace_network(noisy, ideal)
        knobs = dict(
            order_method="anneal", plan_budget_seconds=BUDGET, plan_seed=0,
            plan_cache=tmp_path,
        )
        cold = get_backend("einsum", **knobs)
        plan = cold.plan_for(network)
        assert cold.plan_cache_misses == 1
        assert cold.plan_trials_total >= 1
        assert cold.planning_seconds_total >= BUDGET
        assert plan.search_report.trials == cold.plan_trials_total

        warm = get_backend("einsum", **knobs)  # fresh instance
        replayed = warm.plan_for(network)
        assert warm.plan_cache_hits == 1
        assert warm.plan_trials_total == 0  # zero search on a hit
        assert warm.planning_seconds_total < BUDGET
        assert replayed.steps == plan.steps
        # the provenance report is cached alongside the plan
        assert replayed.search_report == plan.search_report

    def test_budget_partitions_the_cache(self, tmp_path):
        """A zero-budget baseline entry must never answer for a funded
        search, and a funded entry must never answer a baseline ask."""
        ideal, noisy = pair()
        network = alg2_trace_network(noisy, ideal)
        get_backend(
            "einsum", order_method="anneal", plan_budget_seconds=0.0,
            plan_cache=tmp_path,
        ).plan_for(network)
        funded = get_backend(
            "einsum", order_method="anneal", plan_budget_seconds=BUDGET,
            plan_cache=tmp_path,
        )
        funded.plan_for(network)
        assert funded.plan_cache_hits == 0
        assert funded.plan_cache_misses == 1
        assert funded.plan_trials_total >= 1

    def test_seed_partitions_the_cache(self, tmp_path):
        ideal, noisy = pair()
        network = alg2_trace_network(noisy, ideal)
        get_backend(
            "einsum", order_method="anneal", plan_budget_seconds=0.0,
            plan_seed=0, plan_cache=tmp_path,
        ).plan_for(network)
        other = get_backend(
            "einsum", order_method="anneal", plan_budget_seconds=0.0,
            plan_seed=1, plan_cache=tmp_path,
        )
        other.plan_for(network)
        assert other.plan_cache_hits == 0

    def test_min_fill_ignores_the_search_knobs(self, tmp_path):
        """For min_fill the knobs are inert and must not split the cache."""
        ideal, noisy = pair()
        network = alg2_trace_network(noisy, ideal)
        get_backend(
            "einsum", order_method="min_fill", plan_seed=0,
            plan_cache=tmp_path,
        ).plan_for(network)
        warm = get_backend(
            "einsum", order_method="min_fill", plan_seed=9,
            plan_cache=tmp_path,
        )
        warm.plan_for(network)
        assert warm.plan_cache_hits == 1


class TestSessionWarmReruns:
    def config(self, tmp_path, **overrides):
        settings = dict(
            epsilon=0.05, backend="einsum", order_method="anneal",
            plan_budget_seconds=BUDGET, cache=True,
            cache_dir=str(tmp_path),
        )
        settings.update(overrides)
        return CheckConfig(**settings)

    def test_result_hit_restamps_search_time_to_zero(self, tmp_path):
        ideal, noisy = pair()
        config = self.config(tmp_path)
        cold = CheckSession(config).check(ideal, noisy)
        assert cold.stats.plan_trials >= 1
        assert cold.stats.planning_seconds >= BUDGET
        warm = CheckSession(config).check(ideal, noisy)
        assert warm.stats.result_cache_hit == 1
        assert warm.stats.planning_seconds == 0.0
        assert warm.stats.plan_trials == 0

    def test_plan_hit_spends_no_trials_on_a_new_pair(self, tmp_path):
        config = self.config(tmp_path)
        CheckSession(config).check(*pair(angle=0.3))
        warm = CheckSession(config).check(*pair(angle=0.4, p=0.98))
        # structurally identical new pair: searched plan replayed as-is
        assert warm.stats.result_cache_hit == 0
        assert warm.stats.plan_cache_hit >= 1
        assert warm.stats.plan_trials == 0
        assert warm.stats.planning_seconds < BUDGET
