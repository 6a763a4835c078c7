"""Unit tests for the anneal searcher behind ``search_plan``.

Trials are exercised directly through
:meth:`~repro.planning.anneal.AnnealSearcher.trial`: whatever a trial
returns must be a complete, correctly priced contraction over plan
nodes — the driver trusts this when it converts only the winning
trial to plan steps.
"""

import numpy as np
import pytest

from repro.planning.anneal import AnnealSearcher
from repro.tensornet.planner import _steps_from_pairs, merge_cost

#: a closed 6-tensor ring with mixed dimensions
RING_INPUTS = [
    ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "a"),
]
RING_DIMS = {"a": 2, "b": 3, "c": 2, "d": 4, "e": 2, "f": 3}

#: two disconnected components (forces the outer-product fallbacks)
SPLIT_INPUTS = [("a", "b"), ("b", "a"), ("x", "y"), ("y", "x")]
SPLIT_DIMS = {"a": 2, "b": 2, "x": 3, "y": 3}

UNBEATABLE = 10**18


def replay_cost(inputs, dims, pairs):
    """Recompute a trial's cost by replaying its pairs independently."""
    ops = {i: labs for i, labs in enumerate(inputs)}
    next_id = len(inputs)
    total = 0
    for a, b in pairs:
        output, _, flops = merge_cost(ops.pop(a), ops.pop(b), dims)
        total += flops
        ops[next_id] = output
        next_id += 1
    assert len(ops) == 1, "trial did not contract to a single operand"
    return total


@pytest.mark.parametrize("inputs,dims", [
    (RING_INPUTS, RING_DIMS),
    (SPLIT_INPUTS, SPLIT_DIMS),
])
class TestTrialContract:
    def test_trial_is_a_complete_correctly_priced_contraction(
        self, inputs, dims
    ):
        searcher = AnnealSearcher(inputs, dims)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            cost, pairs = searcher.trial(rng, UNBEATABLE)
            assert len(pairs) == len(inputs) - 1
            assert cost == replay_cost(inputs, dims, pairs)

    def test_pairs_convert_to_valid_plan_steps(self, inputs, dims):
        searcher = AnnealSearcher(inputs, dims)
        cost, pairs = searcher.trial(np.random.default_rng(0), UNBEATABLE)
        steps = _steps_from_pairs(inputs, dims, pairs)
        assert sum(step.flops for step in steps) == cost
        eliminated = [lab for step in steps for lab in step.eliminated]
        assert sorted(eliminated) == sorted(dims)

    def test_trial_is_deterministic_under_a_fixed_rng_stream(
        self, inputs, dims
    ):
        searcher = AnnealSearcher(inputs, dims)
        first = searcher.trial(np.random.default_rng(42), UNBEATABLE)
        second = searcher.trial(np.random.default_rng(42), UNBEATABLE)
        assert first == second

    def test_trial_prunes_against_an_already_beaten_cost(
        self, inputs, dims
    ):
        searcher = AnnealSearcher(inputs, dims)
        assert searcher.trial(np.random.default_rng(0), 1) is None


class TestEdgeCases:
    def test_handles_an_empty_network(self):
        assert AnnealSearcher([], {}).trial(
            np.random.default_rng(0), UNBEATABLE
        ) == (0, [])

    def test_single_tensor_needs_no_merges(self):
        cost, pairs = AnnealSearcher([("a", "a")], {"a": 2}).trial(
            np.random.default_rng(0), UNBEATABLE
        )
        assert (cost, pairs) == (0, [])

    def test_anneal_explores_distinct_merge_orders(self):
        """Across seeds the restarts must not all collapse onto one
        deterministic contraction — that would be greedy, not search."""
        searcher = AnnealSearcher(RING_INPUTS, RING_DIMS)
        seen = {
            tuple(searcher.trial(np.random.default_rng(seed), UNBEATABLE)[1])
            for seed in range(12)
        }
        assert len(seen) > 1
