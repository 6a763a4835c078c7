"""Validation and plumbing of the search-planner knobs.

``plan_budget_seconds`` / ``plan_seed`` follow the house validation
pattern — shared validators used by both the backend constructor and
``CheckConfig``, every rejection message stating the valid domain,
wrong *types* rejected with ``TypeError`` — and the knobs must travel
config -> session -> backend -> ``build_plan`` unchanged.
"""

import numpy as np
import pytest

from repro.backends import DenseBackend, get_backend
from repro.backends.base import (
    validate_plan_budget_seconds,
    validate_plan_seed,
)
from repro.core import CheckConfig, CheckSession
from repro.library import qft
from repro.noise import insert_random_noise

BAD_BUDGET_TYPES = ["1.0", True, [1.0], 1j]
BAD_BUDGET_VALUES = [-1.0, -0.001, float("inf"), float("nan")]
BAD_SEED_TYPES = ["0", True, 1.5, None]
BAD_SEED_VALUES = [-1, -10]


class TestSharedValidators:
    @pytest.mark.parametrize("value", BAD_BUDGET_TYPES)
    def test_budget_type_errors_state_the_domain(self, value):
        with pytest.raises(TypeError, match=">= 0 or\\s+None"):
            validate_plan_budget_seconds(value)

    @pytest.mark.parametrize("value", BAD_BUDGET_VALUES)
    def test_budget_value_errors_state_the_domain(self, value):
        with pytest.raises(ValueError, match=">= 0 or None"):
            validate_plan_budget_seconds(value)

    @pytest.mark.parametrize("value", [None, 0, 0.0, 1, 2.5])
    def test_valid_budgets_pass(self, value):
        validate_plan_budget_seconds(value)

    @pytest.mark.parametrize("value", BAD_SEED_TYPES)
    def test_seed_type_errors_state_the_domain(self, value):
        with pytest.raises(TypeError, match="integer >= 0"):
            validate_plan_seed(value)

    @pytest.mark.parametrize("value", BAD_SEED_VALUES)
    def test_seed_value_errors_state_the_domain(self, value):
        with pytest.raises(ValueError, match="integer >= 0"):
            validate_plan_seed(value)

    @pytest.mark.parametrize("value", [0, 1, 2**32])
    def test_valid_seeds_pass(self, value):
        validate_plan_seed(value)


class TestCheckConfigValidation:
    @pytest.mark.parametrize("value", BAD_BUDGET_TYPES)
    def test_bad_budget_type_rejected_at_construction(self, value):
        with pytest.raises(TypeError, match="plan_budget_seconds"):
            CheckConfig(plan_budget_seconds=value)

    @pytest.mark.parametrize("value", BAD_BUDGET_VALUES)
    def test_bad_budget_value_rejected_at_construction(self, value):
        with pytest.raises(ValueError, match="plan_budget_seconds"):
            CheckConfig(plan_budget_seconds=value)

    @pytest.mark.parametrize("value", BAD_SEED_TYPES)
    def test_bad_seed_type_rejected_at_construction(self, value):
        with pytest.raises(TypeError, match="plan_seed"):
            CheckConfig(plan_seed=value)

    @pytest.mark.parametrize("value", BAD_SEED_VALUES)
    def test_bad_seed_value_rejected_at_construction(self, value):
        with pytest.raises(ValueError, match="plan_seed"):
            CheckConfig(plan_seed=value)

    def test_searches_are_valid_order_methods(self):
        assert CheckConfig(order_method="anneal").order_method == "anneal"

    def test_replace_revalidates_the_search_knobs(self):
        config = CheckConfig()
        assert config.replace(plan_budget_seconds=0.5) \
            .plan_budget_seconds == 0.5
        with pytest.raises(ValueError):
            config.replace(plan_seed=-1)

    def test_knobs_conflicting_with_an_instance_backend_rejected(self):
        with pytest.raises(ValueError, match="plan_budget_seconds"):
            CheckConfig(backend=DenseBackend(), plan_budget_seconds=0.5)
        with pytest.raises(ValueError, match="plan_seed"):
            CheckConfig(backend=DenseBackend(), plan_seed=3)
        config = CheckConfig(  # matching instances are fine
            backend=DenseBackend(plan_budget_seconds=0.5, plan_seed=3),
            plan_budget_seconds=0.5,
            plan_seed=3,
        )
        assert config.backend.plan_seed == 3


class TestBackendConstruction:
    @pytest.mark.parametrize("value", BAD_BUDGET_TYPES)
    def test_bad_budget_rejected(self, value):
        with pytest.raises(TypeError, match="plan_budget_seconds"):
            get_backend("dense", plan_budget_seconds=value)

    @pytest.mark.parametrize("value", BAD_SEED_VALUES)
    def test_bad_seed_rejected(self, value):
        with pytest.raises(ValueError, match="plan_seed"):
            get_backend("einsum", plan_seed=value)

    @pytest.mark.parametrize("name", ["tdd", "dense", "einsum"])
    def test_knobs_survive_the_describe_roundtrip(self, name):
        """describe() is the worker-rebuild wire format — the search
        knobs must ride it like every other planning knob."""
        backend = get_backend(
            name, order_method="anneal", plan_budget_seconds=0.25, plan_seed=7
        )
        spec = backend.describe()
        assert spec["plan_budget_seconds"] == 0.25
        assert spec["plan_seed"] == 7
        from repro.parallel.worker import backend_for_spec

        rebuilt = backend_for_spec(spec)
        assert rebuilt.plan_budget_seconds == 0.25
        assert rebuilt.plan_seed == 7
        assert rebuilt.order_method == "anneal"


class TestEndToEndPlumbing:
    def pair(self):
        ideal = qft(3)
        return ideal, insert_random_noise(ideal, 2, seed=0)

    def test_knobs_reach_the_backend_through_the_session(self):
        session = CheckSession(CheckConfig(
            backend="dense", order_method="anneal",
            plan_budget_seconds=0.0, plan_seed=5,
        ))
        assert session.backend.order_method == "anneal"
        assert session.backend.plan_budget_seconds == 0.0
        assert session.backend.plan_seed == 5

    def test_search_checks_agree_with_dense(self):
        ideal, noisy = self.pair()
        plain = CheckSession(CheckConfig(backend="dense")) \
            .check(ideal, noisy)
        searched = CheckSession(CheckConfig(
            backend="dense", order_method="anneal", plan_budget_seconds=0.0,
        )).check(ideal, noisy)
        assert np.isclose(searched.fidelity, plain.fidelity, atol=1e-9)
        assert searched.equivalent == plain.equivalent

    def test_zero_budget_runs_zero_trials_but_still_counts_planning(self):
        ideal, noisy = self.pair()
        result = CheckSession(CheckConfig(
            backend="einsum", order_method="anneal", plan_budget_seconds=0.0,
        )).check(ideal, noisy)
        assert result.stats.plan_trials == 0
        assert result.stats.planning_seconds > 0

    def test_funded_search_reports_trials_in_the_stats(self):
        ideal, noisy = self.pair()
        result = CheckSession(CheckConfig(
            backend="einsum", order_method="anneal", plan_budget_seconds=0.05,
        )).check(ideal, noisy)
        assert result.stats.plan_trials > 0
        assert result.stats.planning_seconds >= 0.05
