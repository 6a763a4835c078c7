"""Unit tests for the contraction-plan IR and planners."""

import numpy as np
import pytest

from repro.backends import available_backends, get_backend
from repro.library import qft
from repro.tensornet import (
    ContractionStats,
    Tensor,
    TensorNetwork,
    build_plan,
    circuit_to_network,
    close_trace,
    greedy_plan,
    plan_from_order,
    slice_plan,
)
from repro.tensornet.planner import iter_slice_assignments


def qft_network(n=3):
    return close_trace(circuit_to_network(qft(n)))


class TestPlanConstruction:
    def test_connected_network_plans_n_minus_1_steps(self):
        net = qft_network()
        plan = plan_from_order(net)
        assert len(plan.steps) == len(net.tensors) - 1
        plan.validate()

    def test_plan_records_costs_and_width(self):
        plan = plan_from_order(qft_network())
        assert plan.total_cost() > 0
        assert plan.peak_size() >= 1
        assert plan.width() >= 1
        assert plan.num_slices() == 1
        assert all(step.flops >= step.output_size for step in plan.steps)

    def test_explicit_order_wins_over_method(self):
        net = qft_network()
        order = sorted(net.all_indices())
        plan = plan_from_order(net, order=order)
        assert list(plan.order) == order

    def test_greedy_plan_valid_and_distinct(self):
        net = qft_network()
        plan = greedy_plan(net)
        plan.validate()
        assert plan.planner == "greedy"
        # its order must still cover every index (TDD manager seed)
        assert sorted(plan.order) == sorted(net.all_indices())

    def test_open_network_rejected(self):
        net = TensorNetwork([Tensor(np.eye(2), ["a", "b"])])
        with pytest.raises(ValueError, match="open"):
            plan_from_order(net)

    def test_unknown_planner_rejected(self):
        with pytest.raises(ValueError, match="planner"):
            build_plan(qft_network(), planner="magic")

    def test_report_and_dict(self):
        plan = build_plan(qft_network(), max_intermediate_size=8)
        report = plan.report()
        assert "predicted flops" in report
        assert "peak intermediate: " in report
        record = plan.to_dict()
        assert record["num_steps"] == len(plan.steps)
        assert record["num_slices"] == plan.num_slices()
        assert record["peak_intermediate_size"] <= 8


class TestSlicing:
    def test_noop_below_bound_returns_same_plan(self):
        plan = plan_from_order(qft_network())
        assert slice_plan(plan, plan.peak_size()) is plan

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            slice_plan(plan_from_order(qft_network()), 0)

    def test_extreme_bound_warns_about_slice_blowup(self):
        net = close_trace(circuit_to_network(qft(5)))
        with pytest.warns(RuntimeWarning, match="subplan executions"):
            sliced = slice_plan(plan_from_order(net), 1)
        assert sliced.peak_size() == 1

    def test_slice_counts_multiply_dimensions(self):
        plan = slice_plan(plan_from_order(qft_network()), 4)
        expected = 1
        for label in plan.slices:
            expected *= plan.dims[label]
        assert plan.num_slices() == expected > 1

    def test_iter_assignments_covers_product(self):
        plan = slice_plan(plan_from_order(qft_network()), 4)
        assignments = list(iter_slice_assignments(plan))
        assert len(assignments) == plan.num_slices()
        assert len({tuple(sorted(a.items())) for a in assignments}) == len(
            assignments
        )

    def test_slice_assignment_drops_fixed_axes(self):
        from repro.tensornet import SliceApplier

        net = qft_network()
        plan = slice_plan(plan_from_order(net), 4)
        assignment = next(iter_slice_assignments(plan))
        for tensor in SliceApplier(net.tensors, plan.slices)(assignment):
            assert not set(tensor.indices) & set(plan.slices)


class TestPlanExecution:
    def test_all_backends_execute_the_same_plan_object(self):
        """Acceptance: one ContractionPlan drives tdd, dense and einsum."""
        net = qft_network()
        plan = build_plan(net)
        reference = net.contract_scalar()
        values = {
            name: get_backend(name).contract_scalar(net, plan=plan)
            for name in ("tdd", "dense", "einsum")
        }
        for name, value in values.items():
            assert np.isclose(value, reference, atol=1e-9), name
        spread = max(
            abs(a - b) for a in values.values() for b in values.values()
        )
        assert spread < 1e-9

    def test_slicing_caps_max_intermediate_size(self):
        """Acceptance: the slicing bound provably caps the actual stat."""
        net = qft_network()
        unsliced = ContractionStats()
        reference = get_backend("dense").contract_scalar(net, stats=unsliced)
        bound = unsliced.max_intermediate_size // 4
        assert unsliced.max_intermediate_size > bound  # bound genuinely binds
        for name in ("dense", "einsum"):
            stats = ContractionStats()
            value = get_backend(
                name, max_intermediate_size=bound
            ).contract_scalar(net, stats=stats)
            assert stats.max_intermediate_size <= bound, name
            assert stats.slice_count > 1
            assert stats.predicted_peak_size <= bound
            assert np.isclose(value, reference, atol=1e-9), name

    def test_tdd_ablation_mode_uses_each_plans_own_order(self):
        """share_intermediates=False must give every contraction a cold
        manager ordered by its *own* plan, not the first network's."""
        backend = get_backend("tdd", share_intermediates=False)
        warmup = qft_network(2)
        backend.contract_scalar(warmup)  # seeds the shared-order manager
        net = qft_network(3)
        cold_stats = ContractionStats()
        value = backend.contract_scalar(net, stats=cold_stats)
        fresh_stats = ContractionStats()
        get_backend("tdd", share_intermediates=False).contract_scalar(
            net, stats=fresh_stats
        )
        # Same network, same plan -> identical peak node count whether or
        # not another circuit ran first.
        assert cold_stats.max_nodes == fresh_stats.max_nodes
        assert np.isclose(value, net.contract_scalar(), atol=1e-9)

    def test_tdd_backend_executes_sliced_plans(self):
        net = qft_network()
        reference = net.contract_scalar()
        stats = ContractionStats()
        value = get_backend(
            "tdd", max_intermediate_size=4
        ).contract_scalar(net, stats=stats)
        assert stats.slice_count > 1
        assert np.isclose(value, reference, atol=1e-9)

    def test_predicted_peak_matches_dense_actual(self):
        """The cost model predicts exactly what the dense engine builds."""
        net = qft_network()
        stats = ContractionStats()
        get_backend("dense").contract_scalar(net, stats=stats)
        assert stats.predicted_peak_size == stats.max_intermediate_size
        assert stats.predicted_cost > 0

    @pytest.mark.parametrize("name", sorted(["tdd", "dense", "einsum"]))
    def test_every_registered_backend_accepts_planner_knobs(self, name):
        assert name in available_backends()
        backend = get_backend(
            name, planner="greedy", max_intermediate_size=64
        )
        description = backend.describe()
        assert description["planner"] == "greedy"
        assert description["max_intermediate_size"] == 64


class TestBackendPlanProtocol:
    def test_plan_for_caches_per_structure(self):
        backend = get_backend("dense")
        net = qft_network()
        assert backend.plan_for(net) is backend.plan_for(net.copy())
        backend.reset()
        assert len(backend._plan_cache) == 0

    def test_plan_order_covers_every_index(self):
        backend = get_backend("dense")
        net = qft_network()
        order = backend.plan_for(net).order
        assert sorted(order) == sorted(net.all_indices())


class TestSliceHardCap:
    def test_explicit_max_slices_raises_on_blowup(self):
        net = qft_network()
        plan = plan_from_order(net)
        sliced = slice_plan(plan, 4)
        assert sliced.num_slices() > 2
        with pytest.raises(ValueError, match="max_slices"):
            slice_plan(plan, 4, max_slices=2)

    def test_cap_at_or_above_slice_count_passes(self):
        plan = plan_from_order(qft_network())
        sliced = slice_plan(plan, 4)
        again = slice_plan(plan, 4, max_slices=sliced.num_slices())
        assert again.num_slices() == sliced.num_slices()

    def test_default_cap_is_the_module_constant(self):
        from repro.tensornet import SLICE_HARD_LIMIT

        assert SLICE_HARD_LIMIT > 2**20  # far above any sane workload

    def test_max_slices_validated(self):
        plan = plan_from_order(qft_network())
        with pytest.raises(ValueError, match="max_slices"):
            slice_plan(plan, 4, max_slices=0)

    def test_build_plan_forwards_max_slices(self):
        net = qft_network()
        with pytest.raises(ValueError, match="max_slices"):
            build_plan(net, max_intermediate_size=4, max_slices=2)

    def test_cap_error_names_the_sliced_indices(self):
        """An actionable error tells you *which* indices blew up, not
        just how many subplans they imply."""
        net = qft_network()
        plan = plan_from_order(net)
        sliced = slice_plan(plan, 4)
        with pytest.raises(ValueError) as excinfo:
            slice_plan(plan, 4, max_slices=2)
        message = str(excinfo.value)
        assert str(sliced.num_slices()) in message
        for label in sliced.slices:
            assert label in message

    def test_warning_names_the_sliced_indices(self):
        net = close_trace(circuit_to_network(qft(5)))
        with pytest.warns(RuntimeWarning) as caught:
            sliced = slice_plan(plan_from_order(net), 1)
        [warning] = caught.list
        message = str(warning.message)
        assert str(sliced.num_slices()) in message
        assert "sliced indices" in message
        for label in sliced.slices:
            assert label in message


class TestSliceApplier:
    def test_applier_matches_direct_numpy_indexing(self):
        from repro.tensornet import SliceApplier

        net = qft_network()
        plan = slice_plan(plan_from_order(net), 4)
        assert plan.slices
        applier = SliceApplier(net.tensors, plan.slices)
        flat = [t.self_trace() for t in net.tensors]
        for assignment in iter_slice_assignments(plan):
            operands = applier(assignment)
            assert len(operands) == len(flat)
            for tensor, base in zip(operands, flat):
                expected = base.data[tuple(
                    assignment.get(label, slice(None))
                    for label in base.indices
                )]
                kept = [lab for lab in base.indices if lab not in assignment]
                assert list(tensor.indices) == kept
                assert np.array_equal(tensor.data, expected)

    def test_empty_assignment_returns_self_traced_operands(self):
        from repro.tensornet import SliceApplier

        net = qft_network()
        applier = SliceApplier(net.tensors, [])
        operands = applier({})
        assert len(operands) == len(net.tensors)
        for tensor in operands:
            assert len(set(tensor.indices)) == len(tensor.indices)


class TestSliceDeterminism:
    """Sliced-plan digests must be stable across Python hash seeds.

    ``slice_plan`` breaks occurrence/size ties on the label *name* —
    never on dict or set iteration order — so the same network always
    slices the same indices and lands on the same digest (and therefore
    the same plan-cache key) in every process.
    """

    def test_occurrence_and_size_ties_break_on_the_label_name(self):
        t_mid = Tensor(np.ones((2, 2, 2)), ["a", "z", "b"])
        t_end = Tensor(np.ones((2, 2)), ["a", "z"])
        t_cap = Tensor(np.ones(2), ["b"])
        net = TensorNetwork([t_mid, t_end, t_cap])
        plan = plan_from_order(net, order=["b", "a", "z"])
        assert plan.peak_size() == 4  # the (a, z) intermediate
        sliced = slice_plan(plan, 2)
        # "a" and "z" tie on occurrences (1) and dimension (2): the
        # lexicographically smallest name must win, deterministically.
        assert sliced.slices == ("a",)

    def test_sliced_digest_is_identical_across_hash_seeds(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "from repro.library import qft\n"
            "from repro.tensornet import (circuit_to_network, close_trace,"
            " greedy_plan, plan_from_order, slice_plan)\n"
            "net = close_trace(circuit_to_network(qft(4)))\n"
            "for plan in (plan_from_order(net), greedy_plan(net)):\n"
            "    print(slice_plan(plan, 4).digest())\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        digests = set()
        for hash_seed in ("0", "1", "42"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = src
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=env, check=True,
            )
            digests.add(proc.stdout)
        assert len(digests) == 1  # one digest pair, whatever the seed
