"""Unit tests for the contraction-plan IR and planners."""

import numpy as np
import pytest

from repro.backends import available_backends, get_backend
from repro.core.miter import alg2_trace_network
from repro.library import (
    bernstein_vazirani,
    grover,
    mod_mult_7x15,
    qft,
    quantum_volume,
)
from repro.noise import insert_random_noise
from oracles import trace_network
from repro.tensornet import (
    ContractionStats,
    Tensor,
    TensorNetwork,
    build_plan,
    plan_from_order,
    slice_plan,
)
from repro.tensornet.planner import (
    ContractionStep,
    _plan_inputs,
    _steps_from_order,
    iter_slice_assignments,
)


def qft_network(n=3):
    return trace_network(qft(n))


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
        assert plan.planner == "explicit"

    def test_anneal_plan_valid_and_covers_every_index(self):
        net = qft_network()
        plan = build_plan(net, order_method="anneal", plan_trials=4)
        plan.validate()
        assert plan.planner == "anneal"
        # its order must still cover every index (TDD manager seed)
        assert sorted(plan.order) == sorted(net.all_indices())

    def test_open_network_rejected(self):
        net = TensorNetwork([Tensor(np.eye(2), ["a", "b"])])
        with pytest.raises(ValueError, match="open"):
            plan_from_order(net)

    @pytest.mark.parametrize(
        "method",
        ["magic", "hyper", "tree_decomposition", "sequential", "greedy"],
    )
    def test_unknown_order_method_rejected(self, method):
        """Removed planners are unknown values like any other, and the
        error lists the valid choices."""
        with pytest.raises(ValueError, match="order_method") as info:
            build_plan(qft_network(), order_method=method)
        assert "'min_fill'" in str(info.value)
        assert "'anneal'" in str(info.value)

    def test_report_and_dict(self):
        plan = build_plan(qft_network(), max_intermediate_size=8)
        report = plan.report()
        assert "predicted flops" in report
        assert "peak intermediate: " in report
        record = plan.to_dict()
        assert record["num_steps"] == len(plan.steps)
        assert record["num_slices"] == plan.num_slices()
        assert record["peak_intermediate_size"] <= 8


class TestDisconnectedNetworks:
    def test_disconnected_components_are_outer_producted(self):
        net = TensorNetwork([
            Tensor(np.eye(2), ["a", "b"]), Tensor(np.eye(2), ["b", "a"]),
            Tensor(np.eye(2), ["c", "d"]), Tensor(np.eye(2), ["d", "c"]),
        ])
        plan = plan_from_order(net)
        plan.validate()
        assert [step.eliminated for step in plan.steps] == [
            frozenset("ab"), frozenset("cd"), frozenset(),
        ]


def _steps_from_order_reference(inputs, dims, order):
    """The original operand-scanning merge simulation.

    The oracle for the holder map of :func:`_steps_from_order`: each
    label's holders are found by scanning every live operand.  Operands
    are ``(node, labels)`` pairs kept in node order; a merge drops both
    and appends the step's node ``len(inputs) + k``.
    """
    ops = list(enumerate(inputs))
    steps = []

    def merge(i, j):
        (lhs, a), (rhs, b) = ops[i], ops[j]
        shared = frozenset(a) & frozenset(b)
        output = tuple(lab for lab in a + b if lab not in shared)
        size = int(np.prod([dims[lab] for lab in output]))
        flops = size * int(np.prod([dims[lab] for lab in shared]))
        del ops[j], ops[i]
        ops.append((len(inputs) + len(steps), output))
        steps.append(ContractionStep(lhs, rhs, shared, output, size, flops))

    for label in order:
        holders = [idx for idx, (_, labs) in enumerate(ops) if label in labs]
        if len(holders) == 2:
            merge(*holders)
    while len(ops) > 1:
        merge(0, 1)
    return steps


def table_one_network(make, noises=3, seed=0):
    """A Table I row's unshrunk alg2 network (the paper's network)."""
    ideal = make()
    return alg2_trace_network(
        insert_random_noise(ideal, noises, seed=seed), ideal,
        use_local_optimisations=False,
    )


#: Table I rows (the perfbench ``CIRCUITS``), by row name.
TABLE_ONE = {
    "7x1mod15": mod_mult_7x15,
    "bv13": lambda: bernstein_vazirani(13),
    "bv16": lambda: bernstein_vazirani(16),
    "bv5": lambda: bernstein_vazirani(5),
    "bv9": lambda: bernstein_vazirani(9),
    "grover3": lambda: grover(3),
    "qft3": lambda: qft(3),
    "qft4": lambda: qft(4),
    "qft5": lambda: qft(5),
    "qft7": lambda: qft(7),
    "qft9": lambda: qft(9),
    "qv_n5d5": lambda: quantum_volume(5, 5, seed=0),
    "qv_n7d5": lambda: quantum_volume(7, 5, seed=0),
}


class TestStepsFromOrder:
    @pytest.mark.parametrize("row", ["7x1mod15", "qft5", "qv_n5d5"])
    def test_holder_map_matches_the_operand_scan(self, row):
        net = table_one_network(TABLE_ONE[row])
        inputs, dims = _plan_inputs(net)
        rng = np.random.default_rng(0)
        labels = net.all_indices()
        # shuffled orders (disconnected merges and outer products) and
        # one that names labels twice, after they are already gone
        orders = [list(rng.permutation(labels)) for _ in range(3)]
        orders.append(labels[::2] + labels)
        for order in orders:
            assert _steps_from_order(inputs, dims, order) == (
                _steps_from_order_reference(inputs, dims, order)
            )


#: ``build_plan(net, "min_fill")`` digest and total cost of each Table I
#: row's alg2 network (3 noises, noise seed 0), as computed before
#: min-fill selection moved to a heap and fill counts to deltas.
PINNED_MIN_FILL = {
    "7x1mod15": ("c9e595cd91e1a99e3130cb9194c7d9dd6de511e7", 23632),
    "bv13": ("f52f638592713e506e9d46e550696cb4059c5efb", 5088),
    "bv16": ("6c957ea39306f1af111ce23162ea183f446f3ac0", 5200),
    "bv5": ("86d222c4703a36329b7ed5905c70b3a028791b95", 2400),
    "bv9": ("182a216a58c30e80b24f1080f8d5e3e287c30c06", 2928),
    "grover3": ("05e404ff1410536c150584b8be18ca813204082c", 2528),
    "qft3": ("4c9d6ed820fbda054580aa1fbcfea72040950154", 2352),
    "qft4": ("854f340ac70c9b51aa5dacaacfa03d772a41873d", 25296),
    "qft5": ("89e52492650a092a92c762e35ed87b7ed96ac1fe", 80528),
    "qft7": ("b196eba0cae21ba8c2d231fc97b272638d08ead8", 3597776),
    "qft9": ("77dfbff1479215d3b98e6961e2fc5d2762f2f143", 69980560),
    "qv_n5d5": ("5fd85f0b3edfad9f0e80630dad5cdb9ce384ae1f", 24000),
    "qv_n7d5": ("921457dc76491aef304fc65eb7cc63094a922a10", 990624),
}


class TestPinnedMinFillPlans:
    @pytest.mark.parametrize("row", sorted(PINNED_MIN_FILL))
    def test_min_fill_plan_is_pinned(self, row):
        digest, cost = PINNED_MIN_FILL[row]
        plan = build_plan(table_one_network(TABLE_ONE[row]), "min_fill")
        assert plan.digest() == digest
        assert plan.total_cost() == cost

    def test_sliced_min_fill_plan_is_pinned(self):
        """slice_plan replays the merges of the unsliced plan."""
        plan = build_plan(
            table_one_network(TABLE_ONE["qft5"]), "min_fill",
            max_intermediate_size=256,
        )
        assert plan.slices == ("q1.7", "q3.2", "q5.8", "q6.13")
        assert plan.digest() == "108bdbabd5f89fc57897817d7e67118292d4c784"
        assert plan.total_cost() == 431616
        assert plan.peak_size() <= 256


class TestSlicing:
    def test_noop_below_bound_returns_same_plan(self):
        plan = plan_from_order(qft_network())
        assert slice_plan(plan, plan.peak_size()) is plan

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            slice_plan(plan_from_order(qft_network()), 0)

    def test_extreme_bound_warns_about_slice_blowup(self):
        net = trace_network(qft(5))
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
        applier = SliceApplier(net.tensors, plan.slices)
        for data, labels in zip(applier.gather([assignment]), applier.labels):
            assert not set(labels) & set(plan.slices)
            assert data.ndim == len(labels)


class TestPlanExecution:
    def test_all_backends_execute_the_same_plan_object(self):
        """Acceptance: one ContractionPlan drives tdd, dense and einsum."""
        net = qft_network()
        plan = build_plan(net)
        reference = net.contract().scalar()
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
        """share_computed_table=False must give every contraction a cold
        manager ordered by its *own* plan, not the first network's."""
        backend = get_backend("tdd", share_computed_table=False)
        warmup = qft_network(2)
        backend.contract_scalar(warmup)  # seeds the shared-order manager
        net = qft_network(3)
        cold_stats = ContractionStats()
        value = backend.contract_scalar(net, stats=cold_stats)
        fresh_stats = ContractionStats()
        get_backend("tdd", share_computed_table=False).contract_scalar(
            net, stats=fresh_stats
        )
        # Same network, same plan -> identical peak node count whether or
        # not another circuit ran first.
        assert cold_stats.max_nodes == fresh_stats.max_nodes
        assert np.isclose(value, net.contract().scalar(), atol=1e-9)

    def test_tdd_backend_executes_sliced_plans(self):
        net = qft_network()
        reference = net.contract().scalar()
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
    def test_every_registered_backend_accepts_plan_knobs(self, name):
        assert name in available_backends()
        backend = get_backend(
            name, order_method="anneal", max_intermediate_size=64
        )
        description = backend.describe()
        assert description["order_method"] == "anneal"
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
        net = trace_network(qft(5))
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
            operands = applier.gather([assignment])
            assert len(operands) == len(flat)
            for data, labels, base in zip(operands, applier.labels, flat):
                expected = base.data[tuple(
                    assignment.get(label, slice(None))
                    for label in base.indices
                )]
                kept = [lab for lab in base.indices if lab not in assignment]
                assert list(labels) == kept
                assert np.array_equal(data, expected)

    @pytest.mark.parametrize("namespace", [None, "numpy"])
    def test_chunk_stacks_single_gathers(self, namespace):
        """A chunk of k is k one-assignment gathers stacked on a leading
        batch axis; slice-independent operands stay unbatched."""
        from repro.backends import resolve_namespace
        from repro.tensornet import SliceApplier

        xp = None if namespace is None else resolve_namespace(namespace)
        net = qft_network()
        plan = slice_plan(plan_from_order(net), 4)
        applier = SliceApplier(net.tensors, plan.slices)
        flat = [t.self_trace() for t in net.tensors]
        assignments = list(iter_slice_assignments(plan))
        for k in (2, 3, len(assignments)):
            chunk = assignments[:k]
            singles = [applier.gather([a], xp) for a in chunk]
            for position, operand in enumerate(applier.gather(chunk, xp)):
                column = [ops[position] for ops in singles]
                if set(flat[position].indices) & set(plan.slices):
                    assert np.array_equal(operand, np.stack(column))
                else:
                    for single in column:
                        assert np.array_equal(operand, single)

    def test_empty_assignment_returns_self_traced_operands(self):
        from repro.tensornet import SliceApplier

        net = qft_network()
        applier = SliceApplier(net.tensors, [])
        operands = applier.gather([{}])
        assert len(operands) == len(net.tensors)
        for data, labels in zip(operands, applier.labels):
            assert len(set(labels)) == len(labels)
            assert data.ndim == len(labels)


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
            "from repro.circuits import QuantumCircuit\n"
            "from repro.core.miter import alg1_template\n"
            "from repro.library import qft\n"
            "from repro.tensornet import build_plan, plan_from_order,"
            " slice_plan\n"
            "net = alg1_template(qft(4), QuantumCircuit(4),"
            " use_local_optimisations=False).network\n"
            "for plan in (plan_from_order(net),"
            " build_plan(net, 'anneal', plan_trials=8)):\n"
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
