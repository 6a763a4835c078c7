"""The backend's miter template memo: build once per structure, refill.

A request that changes only channel values (a ``p`` sweep) must reuse
the memoised miter network and plan, replace only the noise tensors,
and give the fidelity a fresh build gives, bit for bit.  Anything that
changes the structure (a gate, a rotation angle, a noise position)
must miss.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import trace as T
from repro.backends import get_backend
from repro.backends.base import MITER_TEMPLATE_MEMO, _blas_ready
from repro.backends.xp import compiled_for
from repro.baseline import process_fidelity
from repro.circuits import QuantumCircuit
from repro.core import CheckConfig, CheckSession
from repro.core.algorithm1 import fidelity_individual
from repro.core.algorithm2 import fidelity_collective
from repro.core.miter import (
    alg1_template,
    alg2_trace_network,
    gate_data,
    kraus_stack,
    miter_key,
)
from repro.library import qft, qft_dagger
from repro.noise import (
    KrausChannel,
    bit_flip,
    depolarizing,
    insert_random_noise,
)

BACKENDS = ["tdd", "dense", "einsum"]
ALGORITHMS = ["alg1", "alg2"]


def run(algorithm, engine, noisy, ideal, **options):
    """(result, template_hit) of one check on ``engine``."""
    recorder = T.TraceRecorder()
    with T.recording(recorder):
        if algorithm == "alg1":
            result = fidelity_individual(noisy, ideal, backend=engine, **options)
        else:
            result = fidelity_collective(noisy, ideal, backend=engine, **options)
    (build,) = [s for s in recorder.spans if s.name == "network.build"]
    assert build.attributes["tensors"] > 0
    return result, build.attributes["template_hit"]


def _with_noise(ideal, positions, channel, qubits):
    """``ideal`` with ``channel`` inserted before each instruction index
    in ``positions`` (``len(ideal)`` appends)."""
    noisy = QuantumCircuit(ideal.num_qubits)
    for index, inst in enumerate(ideal):
        if index in positions:
            noisy.append(channel, qubits)
        noisy.append(inst.operation, inst.qubits)
    if len(ideal) in positions:
        noisy.append(channel, qubits)
    return noisy


def _cases():
    """Name -> ``make(p) -> (noisy, ideal)``; ``p`` changes values only."""
    ideal = qft(3)
    untouched = QuantumCircuit(3).h(0).cx(0, 1)
    explicit = QuantumCircuit(3).h(0).cx(0, 1).rz(0.4, 2)

    def explicit_noisy(p):
        # not ideal + noise: one gate differs and one is missing
        noisy = QuantumCircuit(3).h(0).cx(0, 1).rz(0.5, 2)
        noisy.append(depolarizing(p), [1])
        noisy.append(bit_flip(p), [2])
        return noisy

    return {
        "random": lambda p: (
            insert_random_noise(
                qft_dagger(3), 3,
                channel_factory=lambda: depolarizing(p), seed=3,
            ),
            qft_dagger(3),
        ),
        "noise_first": lambda p: (
            _with_noise(ideal, {0}, depolarizing(p), [1]), ideal
        ),
        "noise_last": lambda p: (
            _with_noise(ideal, {len(ideal)}, depolarizing(p), [0]), ideal
        ),
        "untouched_wire": lambda p: (
            _with_noise(untouched, {1}, bit_flip(p), [2]), untouched
        ),
        "noise_free": lambda p: (ideal.copy(), ideal),
        "explicit_noisy": lambda p: (explicit_noisy(p), explicit),
    }


CASES = _cases()


class TestRefillIsBitIdentical:
    """A template hit gives exactly the fidelity of a fresh build."""

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("use_local_optimisations", [False, True])
    @pytest.mark.parametrize("max_intermediate_size", [None, 32])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hit_equals_fresh_build(
        self, backend, algorithm, max_intermediate_size,
        use_local_optimisations, case,
    ):
        make = CASES[case]
        knobs = dict(max_intermediate_size=max_intermediate_size)
        options = dict(use_local_optimisations=use_local_optimisations)
        warm = get_backend(backend, **knobs)
        _, hit = run(algorithm, warm, *make(0.97), **options)
        assert hit is False
        refilled, hit = run(algorithm, warm, *make(0.9), **options)
        assert hit is True
        fresh, hit = run(
            algorithm, get_backend(backend, **knobs), *make(0.9), **options
        )
        assert hit is False
        assert repr(refilled.fidelity) == repr(fresh.fidelity)
        noisy, ideal = make(0.9)
        assert abs(refilled.fidelity - process_fidelity(noisy, ideal)) < 1e-9
        if case == "random" and max_intermediate_size is not None:
            if not use_local_optimisations:  # which may shrink it unsliced
                assert refilled.stats.slice_count > 1

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("use_local_optimisations", [False, True])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_refilled_network_equals_a_fresh_build(
        self, algorithm, use_local_optimisations, case
    ):
        make = CASES[case]

        def build(noisy, ideal):
            if algorithm == "alg1":
                return alg1_template(
                    noisy, ideal,
                    use_local_optimisations=use_local_optimisations,
                ).network
            return alg2_trace_network(
                noisy, ideal, use_local_optimisations=use_local_optimisations
            )

        noisy, ideal = make(0.9)
        if algorithm == "alg1":
            data = [kraus_stack(inst.operation.kraus_operators, True)
                    for inst in noisy.noise_instructions()]
        else:
            data = [gate_data(inst.operation.matrix_rep())
                    for inst in noisy.noise_instructions()]
        refilled = build(*make(0.97)).refill(data)
        fresh = build(noisy, ideal)
        assert len(fresh.noise_sites) == len(data)
        assert refilled.noise_sites == fresh.noise_sites
        assert refilled.structure_key() == fresh.structure_key()
        for ours, theirs in zip(refilled.tensors, fresh.tensors):
            assert ours.data.shape == theirs.data.shape
            assert np.array_equal(ours.data, theirs.data)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_refill_never_writes_into_the_template(self, backend, algorithm):
        engine = get_backend(backend, max_intermediate_size=32)
        make = CASES["random"]
        run(algorithm, engine, *make(0.97))
        (template,) = engine._templates.values()
        arrays = [tensor.data for tensor in template.network.tensors]
        before = [array.copy() for array in arrays]
        for array in arrays:
            array.setflags(write=False)  # any write now raises
        for p in (0.9, 0.8, 0.97):
            _, hit = run(algorithm, engine, *make(p))
            assert hit is True
        for array, saved in zip(arrays, before):
            assert np.array_equal(array, saved)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_a_rotation_angle_change_misses(self, algorithm):
        engine = get_backend("einsum")

        def pair(angle):
            ideal = QuantumCircuit(2).h(0).rz(angle, 0).cx(0, 1)
            noisy = ideal.copy()
            noisy.append(depolarizing(0.95), [1])
            return noisy, ideal

        _, hit = run(algorithm, engine, *pair(0.3))
        assert hit is False
        result, hit = run(algorithm, engine, *pair(0.7))
        assert hit is False
        assert abs(result.fidelity - process_fidelity(*pair(0.7))) < 1e-9
        assert len(engine._templates) == 2

    def test_a_noise_position_change_misses(self):
        engine = get_backend("einsum")
        ideal = qft(3)
        run("alg2", engine, _with_noise(ideal, {0}, bit_flip(0.9), [1]), ideal)
        _, hit = run(
            "alg2", engine, _with_noise(ideal, {1}, bit_flip(0.9), [1]), ideal
        )
        assert hit is False

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_a_channel_type_change(self, algorithm):
        """Algorithm II refills any single-qubit channel into the same
        M_N slot; Algorithm I's stacked axis has one entry per Kraus
        operator, so a different Kraus count is another structure."""
        engine = get_backend("einsum")
        ideal = qft(3)
        run(algorithm, engine, _with_noise(ideal, {2}, bit_flip(0.9), [1]),
            ideal)
        noisy = _with_noise(ideal, {2}, depolarizing(0.9), [1])
        result, hit = run(algorithm, engine, noisy, ideal)
        assert hit is (algorithm == "alg2")
        assert abs(result.fidelity - process_fidelity(noisy, ideal)) < 1e-9

    def test_cancelled_noise_sites_are_never_memoised(self):
        """Local optimisations cancel adjacent mutually inverse unitary
        channels in the doubled miter: that network has no slot for them,
        so it is not stored.  A stored template of the same structure
        still refills them, with the same value."""
        s = np.diag([1, 1j])
        ideal = qft(3)

        def make(first, second):
            noisy = _with_noise(ideal, {2}, first, [1])
            return _with_noise(noisy, {3}, second, [1]), ideal

        options = dict(use_local_optimisations=True)
        cancelling = make(KrausChannel([s]), KrausChannel([s.conj().T]))
        engine = get_backend("einsum")
        for _ in range(2):
            result, hit = run("alg2", engine, *cancelling, **options)
            assert hit is False
            assert abs(
                result.fidelity - process_fidelity(*cancelling)
            ) < 1e-9
        assert len(engine._templates) == 0
        run("alg2", engine, *make(bit_flip(0.9), bit_flip(0.9)), **options)
        result, hit = run("alg2", engine, *cancelling, **options)
        assert hit is True
        assert abs(result.fidelity - process_fidelity(*cancelling)) < 1e-9

    @pytest.mark.parametrize("epsilon", [None, 0.5])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_alg1_sweep_across_a_kraus_order_flip(self, backend, epsilon):
        """bit_flip(p) visits X first below p = 0.5: the refill restacks
        each site in the current dominant-first order."""
        ideal = qft(3)

        def make(p):
            return _with_noise(ideal, {1, 4}, bit_flip(p), [2]), ideal

        warm = get_backend(backend)
        run("alg1", warm, *make(0.9), epsilon=epsilon)
        for p in (0.2, 0.7, 0.3):
            refilled, hit = run("alg1", warm, *make(p), epsilon=epsilon)
            assert hit is True
            fresh, _ = run(
                "alg1", get_backend(backend), *make(p), epsilon=epsilon
            )
            assert repr(refilled.fidelity) == repr(fresh.fidelity)
            assert refilled.stats.terms_computed == fresh.stats.terms_computed
            assert refilled.is_lower_bound == fresh.is_lower_bound


class TestMemoBound:
    @staticmethod
    def pair(angle):
        ideal = QuantumCircuit(1).h(0).rz(angle, 0)
        noisy = ideal.copy()
        noisy.append(bit_flip(0.9), [0])
        return noisy, ideal

    def key(self, angle):
        return miter_key("alg2", *self.pair(angle), False)

    def test_cap_plus_five_keep_the_last_cap(self):
        engine = get_backend("einsum")
        angles = [0.01 * i for i in range(MITER_TEMPLATE_MEMO + 5)]
        for angle in angles:
            run("alg2", engine, *self.pair(angle))
        assert list(engine._templates) == [self.key(a) for a in angles[5:]]

    def test_a_hit_survives_an_overflow(self):
        engine = get_backend("einsum")
        angles = [0.01 * i for i in range(MITER_TEMPLATE_MEMO)]
        for angle in angles:
            run("alg2", engine, *self.pair(angle))
        _, hit = run("alg2", engine, *self.pair(angles[0]))
        assert hit is True
        extra = [1.0 + 0.01 * i for i in range(5)]
        for angle in extra:
            run("alg2", engine, *self.pair(angle))
        kept = set(engine._templates)
        assert self.key(angles[0]) in kept
        assert not kept & {self.key(a) for a in angles[1:6]}
        assert len(kept) == MITER_TEMPLATE_MEMO

    def test_reset_empties_the_memo(self):
        engine = get_backend("einsum")
        run("alg2", engine, *self.pair(0.1))
        assert len(engine._templates) == 1
        engine.reset()
        assert len(engine._templates) == 0
        _, hit = run("alg2", engine, *self.pair(0.1))
        assert hit is False

    def test_a_p_sweep_builds_and_plans_once(self, monkeypatch):
        import repro.backends.base as base
        import repro.core.algorithm2 as algorithm2

        calls = {"build_plan": 0, "alg2_trace_network": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(base, "build_plan")
        counted(algorithm2, "alg2_trace_network")
        session = CheckSession(CheckConfig(backend="einsum", algorithm="alg2"))
        ideal = qft(4)
        for p in np.linspace(0.9, 0.99, 8):
            noisy = insert_random_noise(
                ideal, 3, channel_factory=lambda: depolarizing(p), seed=5
            )
            result = session.check(ideal, noisy)
            assert abs(
                result.fidelity - process_fidelity(noisy, ideal)
            ) < 1e-9
        assert calls == {"build_plan": 1, "alg2_trace_network": 1}


class TestStatsOnATemplateHit:
    """A template hit reads like a plan-memo hit in the run's stats."""

    BUDGET = 0.05

    @staticmethod
    def pair(angle=0.3, p=0.99):
        ideal = QuantumCircuit(3).h(0).rz(angle, 0).cx(0, 1).cx(1, 2)
        noisy = ideal.copy()
        noisy.append(depolarizing(p), [1])
        noisy.append(depolarizing(p), [2])
        return noisy, ideal

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("backend", ["einsum", "tdd"])
    def test_hit_counts_as_a_plan_memo_hit(self, tmp_path, backend, algorithm):
        session = CheckSession(CheckConfig(
            backend=backend, algorithm=algorithm, epsilon=0.05,
            cache=True, cache_dir=str(tmp_path),
        ))

        def check(**pair):
            noisy, ideal = self.pair(**pair)
            return session.check(ideal, noisy).stats

        cold = check(p=0.99)
        assert cold.plan_cache_hit == 0
        # same plan structure, new template (another angle): a plan-memo hit
        plan_hit = check(angle=0.4, p=0.98)
        # same template, other values: a template hit
        template_hit = check(angle=0.4, p=0.97)
        assert plan_hit.result_cache_hit == template_hit.result_cache_hit == 0
        assert plan_hit.plan_cache_hit == template_hit.plan_cache_hit == 1
        assert plan_hit.plan_trials == template_hit.plan_trials == 0
        assert 0.0 < template_hit.planning_seconds < 0.01

    @pytest.mark.parametrize("backend", ["einsum", "tdd"])
    def test_hit_spends_no_search_trials(self, tmp_path, backend):
        session = CheckSession(CheckConfig(
            backend=backend, algorithm="alg2", epsilon=0.05,
            order_method="anneal", plan_budget_seconds=self.BUDGET,
            cache=True, cache_dir=str(tmp_path),
        ))
        noisy, ideal = self.pair(p=0.99)
        cold = session.check(ideal, noisy).stats
        assert cold.plan_trials >= 1
        assert cold.planning_seconds >= self.BUDGET
        noisy, ideal = self.pair(p=0.98)
        warm = session.check(ideal, noisy).stats
        assert warm.plan_cache_hit == 1
        assert warm.plan_trials == 0
        assert warm.planning_seconds < self.BUDGET


def traced(algorithm, engine, noisy, ideal, **options):
    """(result, {span name: [attributes]}) of one check on ``engine``."""
    check = fidelity_individual if algorithm == "alg1" else fidelity_collective
    recorder = T.TraceRecorder()
    with T.recording(recorder):
        result = check(noisy, ideal, backend=engine, **options)
    spans = {}
    for span in recorder.spans:
        spans.setdefault(span.name, []).append(span.attributes)
    return result, spans


def only_template(engine):
    (key,) = engine._templates
    return key, engine._templates[key]


class TestFoldIsBitIdentical:
    """A hit on a folded template runs only the steps the noise tensors
    reach, and gives exactly what a fresh build and an unfolded hit give."""

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("use_local_optimisations", [False, True])
    @pytest.mark.parametrize("max_intermediate_size", [None, 32])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_folded_hit_equals_fresh_and_unfolded(
        self, algorithm, max_intermediate_size, use_local_optimisations,
        case,
    ):
        make = CASES[case]
        knobs = dict(max_intermediate_size=max_intermediate_size)
        options = dict(use_local_optimisations=use_local_optimisations)
        warm = get_backend("einsum", **knobs)
        _, spans = traced(algorithm, warm, *make(0.97), **options)
        assert "plan.fold" not in spans
        assert spans["plan.execute"][0]["folded_steps"] == 0
        for p in (0.9, 0.8):
            folded, spans = traced(algorithm, warm, *make(p), **options)
            key, template = only_template(warm)
            assert template.fold_tried
            if max_intermediate_size is None:
                assert template.fold is not None
            (execute,) = spans["plan.execute"]
            folded_steps = (
                0 if template.fold is None else template.fold.folded_steps
            )
            assert execute["folded_steps"] == folded_steps
            assert execute["steps"] + folded_steps == len(
                template.plan.steps
            )
            fresh, _ = traced(
                algorithm, get_backend("einsum", **knobs), *make(p),
                **options,
            )
            warm._templates[key] = replace(template, fold=None)
            unfolded, spans = traced(algorithm, warm, *make(p), **options)
            assert spans["plan.execute"][0]["folded_steps"] == 0
            warm._templates[key] = template
            assert repr(folded.fidelity) == repr(fresh.fidelity)
            assert repr(folded.fidelity) == repr(unfolded.fidelity)
            assert folded.stats.terms_computed == fresh.stats.terms_computed
            noisy, ideal = make(p)
            assert abs(
                folded.fidelity - process_fidelity(noisy, ideal)
            ) < 1e-9

    @pytest.mark.parametrize("slice_batch", [1, None])
    def test_a_memory_sliced_plan_folds_bit_identically(self, slice_batch):
        """Tensors carrying a sliced label vary per slice, so they stay
        residual; batched chunks broadcast the unbatched fold operands."""
        from repro.tensornet.planner import slice_plan

        noisy, ideal = CASES["random"](0.9)
        network = alg2_trace_network(noisy, ideal)
        engine = get_backend("einsum", slice_batch=slice_batch)
        plan = slice_plan(engine.plan_for(network), 32)
        assert plan.num_slices() > 1
        slots = [site.slot for site in network.noise_sites]
        fold = engine.fold_constants(network, plan, slots)
        assert 0 < fold.folded_steps < len(plan.steps)
        assert set(slots) <= set(fold.inputs)
        sliced = set(plan.slices)
        assert all(
            sliced.isdisjoint(plan.inputs[position])
            for position in range(len(plan.inputs))
            if position not in fold.inputs
        )
        assert repr(engine.contract_scalar(network, plan=plan, fold=fold)) == (
            repr(engine.contract_scalar(network, plan=plan))
        )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_a_noise_free_network_folds_to_its_root(self, algorithm):
        engine = get_backend("einsum")
        for _ in range(3):
            result, spans = traced(
                algorithm, engine, *CASES["noise_free"](0.9)
            )
            assert abs(result.fidelity - 1.0) < 1e-9
        _, template = only_template(engine)
        fold = template.fold
        assert fold.steps == () and fold.inputs == ()
        assert list(fold.arrays) == [fold.root]
        assert fold.folded_steps == len(template.plan.steps)
        assert spans["plan.execute"][0]["steps"] == 0
        assert spans["plan.execute"][0]["predicted_cost"] == 0


class TestFoldLayout:
    """A held operand that a BLAS step would transpose and copy on every
    hit is held in that copy's layout, and the step reads it as is."""

    @staticmethod
    def make(p):
        # qft_dagger(3), the other cases' circuit, has no BLAS-sized step
        # on a held operand; this placement has four
        return (
            insert_random_noise(
                qft_dagger(5), 3,
                channel_factory=lambda: depolarizing(p), seed=3,
            ),
            qft_dagger(5),
        )

    def test_held_blas_operands_are_read_without_a_copy(self):
        engine = get_backend("einsum")
        for p in (0.97, 0.9):
            run("alg2", engine, *self.make(p))
        _, template = only_template(engine)
        fold = template.fold
        compiled = compiled_for(template.plan)
        count = len(compiled.input_batched)
        rewritten = 0
        for step in fold.steps:
            original = compiled.steps[step.out - count]
            assert (step.lhs, step.rhs) == (original.lhs, original.rhs)
            assert step.subscripts[2] == original.subscripts[2]
            assert step.eliminated == original.eliminated
            for side, node in enumerate((step.lhs, step.rhs)):
                if node in fold.arrays and step.axes is not None:
                    array = fold.arrays[node]
                    assert not array.flags.writeable
                    # tensordot's matrix of it is a view: no per-hit copy
                    assert _blas_ready(array, step, side) is None
            rewritten += step != original
        assert rewritten > 0

    def test_a_rewritten_step_stays_bit_identical(self):
        warm = get_backend("einsum")
        run("alg2", warm, *self.make(0.97))
        for p in (0.9, 0.8):
            folded, hit = run("alg2", warm, *self.make(p))
            assert hit
            key, template = only_template(warm)
            fresh, _ = run("alg2", get_backend("einsum"), *self.make(p))
            warm._templates[key] = replace(template, fold=None)
            unfolded, _ = run("alg2", warm, *self.make(p))
            warm._templates[key] = template
            reference, _ = run("alg2", get_backend("dense"), *self.make(p))
            assert repr(folded.fidelity) == repr(fresh.fidelity)
            assert repr(folded.fidelity) == repr(unfolded.fidelity)
            assert abs(folded.fidelity - reference.fidelity) < 1e-9


class TestFoldLifetime:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_fold_arrays_are_read_only_and_never_change(self, algorithm):
        engine = get_backend("einsum")
        make = CASES["random"]
        for p in (0.97, 0.9):
            run(algorithm, engine, *make(p))
        _, template = only_template(engine)
        fold = template.fold
        assert fold.arrays
        saved = {node: array.copy() for node, array in fold.arrays.items()}
        for array in fold.arrays.values():
            assert not array.flags.writeable
        for p in (0.8, 0.85, 0.9, 0.95, 0.99):
            _, hit = run(algorithm, engine, *make(p))
            assert hit is True
        _, template = only_template(engine)
        assert template.fold is fold
        for node, array in fold.arrays.items():
            assert np.array_equal(array, saved[node])

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("backend", ["tdd", "dense"])
    def test_tdd_and_dense_never_fold(self, backend, algorithm):
        engine = get_backend(backend)
        make = CASES["random"]
        for p in (0.97, 0.9, 0.8):
            _, spans = traced(algorithm, engine, *make(p))
            assert "plan.fold" not in spans
            assert spans["plan.execute"][0]["folded_steps"] == 0
        _, template = only_template(engine)
        assert template.fold_tried and template.fold is None

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_a_structure_checked_once_holds_no_fold(self, algorithm):
        engine = get_backend("einsum")
        _, spans = traced(algorithm, engine, *CASES["random"](0.9))
        assert "plan.fold" not in spans
        _, template = only_template(engine)
        assert template.fold is None and not template.fold_tried
        # the first hit builds the fold once, later hits reuse it
        _, spans = traced(algorithm, engine, *CASES["random"](0.8))
        (fold_span,) = spans["plan.fold"]
        _, template = only_template(engine)
        assert fold_span["steps"] == template.fold.folded_steps > 0
        _, spans = traced(algorithm, engine, *CASES["random"](0.7))
        assert "plan.fold" not in spans

    def test_eviction_and_reset_drop_the_fold(self):
        import gc
        import weakref

        engine = get_backend("einsum")
        pair = TestMemoBound.pair
        for _ in range(2):
            run("alg2", engine, *pair(0.0))
        fold = weakref.ref(engine._templates[TestMemoBound().key(0.0)].fold)
        assert fold() is not None
        for i in range(1, MITER_TEMPLATE_MEMO + 1):
            run("alg2", engine, *pair(0.01 * i))
        gc.collect()
        assert fold() is None
        for _ in range(2):
            run("alg2", engine, *pair(0.5))
        fold = weakref.ref(engine._templates[TestMemoBound().key(0.5)].fold)
        engine.reset()
        gc.collect()
        assert fold() is None
        _, hit = run("alg2", engine, *pair(0.5))
        assert hit is False

    def test_a_fold_larger_than_the_memory_bound_is_not_kept(self):
        """qft_dagger(3)'s alg2 fold holds 256 elements; neither bound
        slices the plan, but only the larger one keeps the fold."""
        make = CASES["random"]
        sizes = {}
        for bound in (128, 256):
            engine = get_backend("einsum", max_intermediate_size=bound)
            for p in (0.97, 0.9):
                result, spans = traced("alg2", engine, *make(p))
            _, template = only_template(engine)
            assert template.plan.num_slices() == 1
            assert template.fold_tried
            fold = template.fold
            sizes[bound] = None if fold is None else sum(
                array.size for array in fold.arrays.values()
            )
            assert ("plan.fold" in spans) is (fold is not None)
            assert abs(result.fidelity - process_fidelity(*make(0.9))) < 1e-9
        assert sizes == {128: None, 256: 256}


class TestFoldedAlgorithmOne:
    @pytest.mark.parametrize("max_intermediate_size", [None, 256])
    def test_an_early_stop_returns_the_same_lower_bound(
        self, max_intermediate_size
    ):
        ideal = qft(3)
        knobs = dict(max_intermediate_size=max_intermediate_size)

        def make(p):
            return insert_random_noise(
                ideal, 3, channel_factory=lambda: depolarizing(p), seed=3
            ), ideal

        warm = get_backend("einsum", **knobs)
        run("alg1", warm, *make(0.999), epsilon=0.05)
        for p in (0.998, 0.997):
            folded, hit = run("alg1", warm, *make(p), epsilon=0.05)
            assert hit is True
            fresh, _ = run(
                "alg1", get_backend("einsum", **knobs), *make(p),
                epsilon=0.05,
            )
            assert folded.stats.early_stopped and folded.is_lower_bound
            assert folded.stats.terms_computed == 1
            assert folded.stats.terms_computed == fresh.stats.terms_computed
            assert repr(folded.fidelity) == repr(fresh.fidelity)
        _, template = only_template(warm)
        assert template.fold is not None

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_hit_and_miss_report_the_same_predictions(self, algorithm):
        engine = get_backend("einsum")
        make = CASES["random"]
        miss, _ = traced(algorithm, engine, *make(0.97))
        hit, spans = traced(algorithm, engine, *make(0.9))
        _, template = only_template(engine)
        for field in ("predicted_cost", "predicted_peak_size", "slice_count"):
            assert getattr(hit.stats, field) == getattr(miss.stats, field)
        (execute,) = spans["plan.execute"]
        assert execute["predicted_cost"] == (
            template.fold.cost * execute["slices"]
        ) < hit.stats.predicted_cost


class TestFoldWithASliceExecutor:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_process_executor_agrees_with_the_serial_run(self, algorithm):
        from repro.parallel import ProcessSliceExecutor

        make = CASES["random"]
        serial = get_backend("einsum", max_intermediate_size=8)
        with ProcessSliceExecutor(jobs=2) as executor:
            pooled = get_backend(
                "einsum", max_intermediate_size=8, executor=executor
            )
            for p in (0.97, 0.9, 0.8):
                ours, _ = run(algorithm, pooled, *make(p))
                theirs, _ = run(algorithm, serial, *make(p))
                assert abs(ours.fidelity - theirs.fidelity) < 1e-9
                assert abs(
                    ours.fidelity - process_fidelity(*make(p))
                ) < 1e-9
