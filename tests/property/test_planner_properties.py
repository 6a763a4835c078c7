"""Property-based tests for the contraction-planner layer.

Random *closed* tensor networks (every index label used exactly twice,
self-loops allowed, mixed dimensions) drive four invariants:

* every planner produces plans that eliminate each index exactly once
  (slice labels counted as handled);
* every step merges two live nodes into the next node, and one node,
  the root, is left;
* ``slice_plan`` always brings ``peak_size()`` under the requested bound;
* executing any plan — any planner, sliced or not, on the dense and
  einsum backends — agrees with direct dense contraction to 1e-9.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import DenseBackend, NumpyEinsumBackend
from repro.tensornet import (
    Tensor,
    TensorNetwork,
    build_plan,
    plan_from_order,
    slice_plan,
)


@st.composite
def closed_networks(draw):
    """A random closed network: each label lands on exactly two slots."""
    num_tensors = draw(st.integers(min_value=2, max_value=5))
    num_edges = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    slots = [[] for _ in range(num_tensors)]
    dims = {}
    for e in range(num_edges):
        label = f"e{e}"
        dims[label] = int(rng.integers(2, 4))
        a, b = rng.integers(0, num_tensors, size=2)  # a == b -> self-loop
        slots[int(a)].append(label)
        slots[int(b)].append(label)
    tensors = []
    for labels in slots:
        shape = tuple(dims[lab] for lab in labels)
        data = rng.uniform(-1, 1, size=shape) + 1j * rng.uniform(
            -1, 1, size=shape
        )
        tensors.append(Tensor(data, labels))
    return TensorNetwork(tensors)


def all_pairwise_labels(network):
    """Labels that survive self-tracing (the ones plans must eliminate)."""
    labels = set()
    for tensor in network.tensors:
        counts = {}
        for lab in tensor.indices:
            counts[lab] = counts.get(lab, 0) + 1
        labels.update(lab for lab, c in counts.items() if c == 1)
    return labels


PLAN_BUILDERS = [
    lambda net: plan_from_order(net, order=net.all_indices()),
    plan_from_order,
    lambda net: build_plan(net, "anneal", plan_trials=4),
]


class TestPlanInvariants:
    @settings(max_examples=40, deadline=None)
    @given(closed_networks())
    def test_each_index_eliminated_exactly_once(self, network):
        for build in PLAN_BUILDERS:
            plan = build(network)
            plan.validate()  # raises on double/missed elimination
            eliminated = [
                lab for step in plan.steps for lab in step.eliminated
            ]
            assert len(eliminated) == len(set(eliminated))
            assert set(eliminated) | set(plan.slices) == all_pairwise_labels(
                network
            )

    @settings(max_examples=40, deadline=None)
    @given(closed_networks(), st.sampled_from([None, 1, 4]))
    def test_steps_name_the_nodes_they_merge(self, network, bound):
        """Step ``k`` merges nodes ``lhs < rhs < n + k`` into node
        ``n + k``: each node is consumed at most once, and exactly one
        node, the last, is left."""
        for build in PLAN_BUILDERS:
            plan = build(network)
            if bound is not None:
                plan = slice_plan(plan, bound)
            count = len(plan.inputs)
            for k, step in enumerate(plan.steps):
                assert 0 <= step.lhs < step.rhs < count + k
            consumed = [
                node for step in plan.steps for node in (step.lhs, step.rhs)
            ]
            assert len(consumed) == len(set(consumed))
            nodes = count + len(plan.steps)
            assert set(range(nodes)) - set(consumed) == {nodes - 1}

    @settings(max_examples=40, deadline=None)
    @given(closed_networks(), st.sampled_from([1, 2, 4, 16]))
    def test_sliced_plans_respect_the_bound(self, network, bound):
        for build in PLAN_BUILDERS:
            sliced = slice_plan(build(network), bound)
            sliced.validate()
            assert sliced.peak_size() <= bound
            assert sliced.num_slices() >= 1

    @settings(max_examples=25, deadline=None)
    @given(closed_networks())
    def test_plan_execution_matches_direct_dense_contraction(self, network):
        reference = network.contract().scalar()
        for build in PLAN_BUILDERS:
            plan = build(network)
            for executor in (DenseBackend(), NumpyEinsumBackend()):
                value = executor.contract_scalar(network, plan=plan)
                assert np.isclose(value, reference, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(closed_networks(), st.sampled_from([1, 4, 16]))
    def test_sliced_execution_matches_direct_dense_contraction(
        self, network, bound
    ):
        reference = network.contract().scalar()
        plan = slice_plan(build_plan(network, "anneal", plan_trials=4), bound)
        for executor in (DenseBackend(), NumpyEinsumBackend()):
            value = executor.contract_scalar(network, plan=plan)
            assert np.isclose(value, reference, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(closed_networks())
    def test_backend_planning_matches_direct_dense_contraction(self, network):
        """The backends' own plan_for path (no explicit plan) agrees too."""
        reference = network.contract().scalar()
        for backend in (
            DenseBackend(
                order_method="anneal", plan_budget_seconds=0.01,
                max_intermediate_size=8,
            ),
            NumpyEinsumBackend(order_method="min_fill"),
        ):
            value = backend.contract_scalar(network)
            assert np.isclose(value, reference, atol=1e-9)
