"""Algorithm I as one Kraus-sliced contraction, run in chunks.

Every trace term is a slice of one plan over the Kraus-stacked miter
network; these tests pin the result against the dense superoperator
baseline on every knob combination, and pin the chunk schedule (early
stop, ``max_terms``, time budget, kernel-call count).
"""

import pytest

from repro import trace as T
from repro.backends import get_backend
from repro.backends.einsum import EinsumKernel
from repro.baseline import process_fidelity
from repro.circuits import QuantumCircuit
from repro.core import alg1_template, fidelity_individual
from repro.library import qft, qft_dagger
from repro.noise import bit_flip, depolarizing, insert_random_noise
from oracles import miter_circuit

BACKENDS = ["tdd", "dense", "einsum"]


def _assert_matches_baseline(noisy, ideal, backend, **options):
    result = fidelity_individual(noisy, ideal, backend=backend, **options)
    assert abs(result.fidelity - process_fidelity(noisy, ideal)) < 1e-9
    assert result.stats.terms_computed == noisy.num_kraus_terms
    assert len(result.stats.term_times) == result.stats.terms_computed
    assert not result.is_lower_bound
    return result


class TestAgreesWithSuperoperatorBaseline:
    @pytest.fixture(scope="class")
    def pair(self):
        # qft_dagger's miter ends in qft's SWAP layer: local optimisations
        # strip it into the trace closure
        ideal = qft_dagger(3)
        noisy = insert_random_noise(
            ideal, 2, channel_factory=lambda: depolarizing(0.97), seed=3
        )
        return noisy, ideal

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("max_intermediate_size", [None, 8])
    @pytest.mark.parametrize("slice_batch", [1, None])
    @pytest.mark.parametrize("dominant_first", [True, False])
    @pytest.mark.parametrize("use_local_optimisations", [False, True])
    def test_every_knob_combination(
        self, pair, backend, max_intermediate_size, slice_batch,
        dominant_first, use_local_optimisations,
    ):
        noisy, ideal = pair
        engine = get_backend(
            backend,
            max_intermediate_size=max_intermediate_size,
            slice_batch=slice_batch,
        )
        result = _assert_matches_baseline(
            noisy, ideal, engine,
            dominant_first=dominant_first,
            use_local_optimisations=use_local_optimisations,
        )
        if max_intermediate_size is not None:
            assert result.stats.slice_count > 1
            assert result.stats.max_intermediate_size <= max_intermediate_size
        batched = engine.supports_batched_slices and slice_batch is None
        assert (result.stats.batched_slice_calls > 0) == batched


    @pytest.mark.parametrize("backend", BACKENDS)
    def test_slice_executor_takes_one_term_at_a_time(self, pair, backend):
        from repro.parallel import SerialExecutor

        terms = []

        class Counting(SerialExecutor):
            def contract(self, *args, assignments=None, **kwargs):
                terms.append({
                    tuple(a[f"kraus{s}"] for s in range(2))
                    for a in assignments
                })
                return super().contract(
                    *args, assignments=assignments, **kwargs
                )

        noisy, ideal = pair
        engine = get_backend(
            backend, max_intermediate_size=8, executor=Counting(chunk_size=2)
        )
        _assert_matches_baseline(noisy, ideal, engine)
        # every call carried exactly one term's memory slices
        assert len(terms) == 16 and all(len(term) == 1 for term in terms)


def _edge_cases():
    untouched = QuantumCircuit(3).h(0).cx(0, 1)
    noisy_untouched = untouched.copy()
    noisy_untouched.append(bit_flip(0.9), [2])

    ideal = qft(3)
    first = QuantumCircuit(3)
    first.append(depolarizing(0.95), [1])
    for inst in ideal:
        first.append(inst.operation, inst.qubits)
    last = ideal.copy()
    last.append(depolarizing(0.95), [0])

    # the miter U† E ends in a SWAP no later gate touches
    swap_free = QuantumCircuit(3).h(0)
    swap_tail = QuantumCircuit(3).h(0)
    swap_tail.append(bit_flip(0.9), [0])
    swap_tail.swap(1, 2)
    return {
        "untouched_wire": (noisy_untouched, untouched),
        "noise_first": (first, ideal),
        "noise_last": (last, ideal),
        "swap_tail": (swap_tail, swap_free),
        "noise_free": (ideal.copy(), ideal),
    }


EDGE_CASES = _edge_cases()


class TestEdgeCases:
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("use_local_optimisations", [False, True])
    @pytest.mark.parametrize("slice_batch", [1, None])
    def test_matches_baseline(
        self, case, backend, use_local_optimisations, slice_batch
    ):
        noisy, ideal = EDGE_CASES[case]
        engine = get_backend(
            backend, max_intermediate_size=4, slice_batch=slice_batch
        )
        _assert_matches_baseline(
            noisy, ideal, engine,
            use_local_optimisations=use_local_optimisations,
        )

    def test_swap_tail_case_has_a_swap_tail(self):
        noisy, ideal = EDGE_CASES["swap_tail"]
        miter = miter_circuit(noisy, ideal)
        (at,) = [i for i, inst in enumerate(miter) if inst.name == "swap"]
        assert miter[at].qubits == (1, 2)
        assert all(
            not {1, 2} & set(inst.qubits)
            for inst in miter.instructions[at + 1:]
        )

    def test_noise_free_is_one_term(self):
        noisy, ideal = EDGE_CASES["noise_free"]
        result = fidelity_individual(noisy, ideal, backend="einsum")
        assert result.stats.terms_total == result.stats.terms_computed == 1
        assert result.fidelity == pytest.approx(1.0, abs=1e-12)


class TestChunkSchedule:
    @pytest.fixture(scope="class")
    def pair(self):
        ideal = qft(2)
        return insert_random_noise(ideal, 3, seed=0), ideal  # 64 terms

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_early_stop_costs_one_term(self, pair, backend):
        noisy, ideal = pair
        result = fidelity_individual(
            noisy, ideal, epsilon=0.05, backend=backend
        )
        assert result.stats.early_stopped
        assert result.stats.terms_computed == 1
        assert result.is_lower_bound

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("slice_batch", [None, 2, 3])
    def test_max_terms_is_exact(self, pair, backend, slice_batch):
        noisy, ideal = pair
        result = fidelity_individual(
            noisy, ideal, max_terms=5,
            backend=get_backend(backend, slice_batch=slice_batch),
        )
        assert result.stats.terms_computed == 5
        assert len(result.stats.term_times) == 5
        assert result.is_lower_bound
        full = fidelity_individual(noisy, ideal, backend=backend)
        assert result.fidelity <= full.fidelity + 1e-12

    def test_capped_runs_sum_the_same_terms_batched_or_not(self, pair):
        """A capped batched run sums the same first terms, in
        enumeration order, as a one-term-at-a-time run."""
        noisy, ideal = pair
        for dominant_first in (True, False):
            capped = [
                fidelity_individual(
                    noisy, ideal, max_terms=7, dominant_first=dominant_first,
                    backend=get_backend("einsum", slice_batch=batch),
                ).fidelity
                for batch in (1, None)
            ]
            assert capped[0] == pytest.approx(capped[1], abs=1e-14)

    def test_exhausted_time_budget_runs_no_term(self, pair):
        noisy, ideal = pair
        result = fidelity_individual(
            noisy, ideal, time_budget_seconds=0.0, backend="einsum"
        )
        assert result.stats.timed_out
        assert result.stats.terms_computed == 0
        assert result.is_lower_bound

    def test_time_budget_bounds_wall_time(self):
        ideal = qft(4)
        noisy = insert_random_noise(ideal, 4, seed=2)  # 256 terms
        # cold managers keep every run's per-term cost alike
        engine = get_backend("tdd", share_computed_table=False)
        full = fidelity_individual(noisy, ideal, backend=engine)
        budget = full.stats.time_seconds / 4
        stats = fidelity_individual(
            noisy, ideal, time_budget_seconds=budget, backend=engine
        ).stats
        assert stats.timed_out and 0 < stats.terms_computed < 256
        # the overshoot past the budget is about one term's cost (slack
        # for a shared host)
        assert stats.time_seconds <= (
            budget + 2 * max(stats.term_times) + 0.05
        )


class TestOneContraction:
    def test_kernel_calls_scale_with_chunks_not_terms(self, monkeypatch):
        """A full einsum check merges at most steps x chunks times."""
        ideal = qft(3)
        noisy = insert_random_noise(ideal, 3, seed=5)  # 64 terms
        merges = []
        original = EinsumKernel.merge
        monkeypatch.setattr(
            EinsumKernel, "merge",
            lambda self, a, b, step: merges.append(1) or original(
                self, a, b, step
            ),
        )
        engine = get_backend("einsum")
        recorder = T.TraceRecorder()
        with T.recording(recorder):
            result = fidelity_individual(noisy, ideal, backend=engine)
        (terms_span,) = [s for s in recorder.spans if s.name == "alg1.terms"]
        chunks = terms_span.attributes["chunks"]
        executes = [s for s in recorder.spans if s.name == "plan.execute"]
        steps = len(engine.plan_for(
            alg1_template(noisy, ideal).representative()
        ).steps)
        assert result.stats.terms_computed == 64
        assert chunks == 2  # the dominant term, then the other 63
        assert len(merges) <= steps * chunks < steps * 64
        assert len(executes) <= chunks
        assert sum(s.attributes["slices"] for s in executes) == 64

    @pytest.mark.parametrize("backend", ["dense", "einsum"])
    def test_stats_keep_their_meaning(self, backend):
        ideal = qft(3)
        noisy = insert_random_noise(ideal, 2, seed=1)
        engine = get_backend(backend, max_intermediate_size=8)
        # the unshrunk miter, which the bound slices
        result = fidelity_individual(
            noisy, ideal, backend=engine, use_local_optimisations=False
        )
        stats = result.stats
        term_plan = engine.plan_for(alg1_template(
            noisy, ideal, use_local_optimisations=False
        ).representative())
        assert stats.predicted_cost == term_plan.total_cost() * 16
        assert stats.slice_count == term_plan.num_slices() > 1
        assert stats.predicted_peak_size == term_plan.peak_size()
        assert 0 < stats.max_intermediate_size <= 8
