"""Property-based tests for the budgeted anneal search.

Searched plans are held to exactly the invariants of the min_fill
planner (see ``test_planner_properties``) — validity, single
elimination, backend agreement with direct dense contraction — plus the
search-specific ones: the anytime floor against the min_fill baseline
and bitwise determinism of fixed ``(network, seed, trials)`` inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_planner_properties import all_pairwise_labels, closed_networks

from repro.backends import get_backend
from repro.planning import search_plan
from repro.tensornet import plan_from_order

TRIALS = 4  # exact deterministic trial count (clock never consulted)


class TestSearchedPlanInvariants:
    @settings(max_examples=20, deadline=None)
    @given(closed_networks(), st.integers(min_value=0, max_value=5))
    def test_each_index_eliminated_exactly_once(self, network, seed):
        plan = search_plan(network, trials=TRIALS, seed=seed)
        plan.validate()
        eliminated = [lab for step in plan.steps for lab in step.eliminated]
        assert len(eliminated) == len(set(eliminated))
        assert set(eliminated) | set(plan.slices) == \
            all_pairwise_labels(network)

    @settings(max_examples=20, deadline=None)
    @given(closed_networks())
    def test_search_never_loses_to_the_min_fill_floor(self, network):
        floor = plan_from_order(network).total_cost()
        plan = search_plan(network, trials=TRIALS)
        assert plan.total_cost() <= floor

    @settings(max_examples=15, deadline=None)
    @given(closed_networks())
    def test_execution_agrees_with_direct_dense_contraction(self, network):
        backends = ["dense", "einsum"]
        if all(
            dim == 2
            for tensor in network.tensors
            for dim in tensor.data.shape
        ):
            backends.append("tdd")  # TDDs only take dimension-2 indices
        reference = network.contract().scalar()
        plan = search_plan(network, trials=TRIALS, seed=1)
        for backend in backends:
            value = get_backend(backend).contract_scalar(network, plan=plan)
            assert np.isclose(value, reference, atol=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(closed_networks(), st.integers(min_value=0, max_value=3))
    def test_identical_inputs_yield_identical_digests(self, network, seed):
        first = search_plan(network, trials=TRIALS, seed=seed)
        second = search_plan(network, trials=TRIALS, seed=seed)
        assert first.digest() == second.digest()
        assert first.order == second.order
        assert first.steps == second.steps

    @settings(max_examples=15, deadline=None)
    @given(closed_networks(), st.sampled_from([1, 4, 16]))
    def test_sliced_searched_plans_respect_the_bound(self, network, bound):
        plan = search_plan(
            network, trials=TRIALS, max_intermediate_size=bound
        )
        plan.validate()
        assert plan.peak_size() <= bound
        assert plan.search_report is not None
