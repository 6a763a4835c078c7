"""Unit tests for Algorithm I's shared network template."""

import itertools

import numpy as np
import pytest

from repro.baseline import process_fidelity
from repro.circuits import QuantumCircuit
from repro.core import (
    alg1_template,
    fidelity_individual,
)
from repro.library import qft
from repro.noise import bit_flip, depolarizing, insert_random_noise
from repro.backends import get_backend
from oracles import term_network


class TestTemplateConstruction:
    def test_sites_stack_their_kraus_operators(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 2, seed=0)
        template = alg1_template(noisy, ideal)
        assert template.kraus_labels == ("kraus0", "kraus1")
        sites = noisy.noise_instructions()
        for slot, inst in zip(template.site_slots, sites):
            tensor = template.network.tensors[slot]
            ops = inst.operation.kraus_operators
            assert tensor.data.shape == (len(ops), 2, 2)
            # dominant first: sqrt(1-p) I leads the stack
            assert np.allclose(tensor.data[0], ops[0])

    def test_every_slice_is_one_trace_term(self):
        """Fixing the Kraus labels gives the freshly built term network."""
        from repro.core import enumerate_selections

        ideal = qft(2)
        noisy = insert_random_noise(
            ideal, 2, channel_factory=lambda: depolarizing(0.9), seed=0
        )
        for dominant_first in (True, False):
            template = alg1_template(
                noisy, ideal, dominant_first=dominant_first
            )
            selections = list(
                enumerate_selections(noisy, dominant_first=dominant_first)
            )
            positions = itertools.product(
                *(range(4) for _ in template.site_slots)
            )
            for selection, position in zip(selections, positions):
                fresh = term_network(noisy, ideal, selection)
                assert np.isclose(
                    template.term(position).contract().scalar(),
                    fresh.contract().scalar(),
                    atol=1e-12,
                )

    def test_sliced_plan_leads_with_the_kraus_labels(self):
        ideal = qft(3)
        noisy = insert_random_noise(ideal, 2, seed=1)
        template = alg1_template(noisy, ideal, use_local_optimisations=False)
        term_plan = get_backend(
            "einsum", max_intermediate_size=16
        ).plan_for(template.representative())
        assert term_plan.slices
        plan = template.sliced_plan(term_plan)
        assert plan.slices == template.kraus_labels + term_plan.slices
        assert plan.steps == term_plan.steps
        assert plan.num_slices() == 16 * term_plan.num_slices()
        plan.validate()

    def test_untouched_wire_noise_self_traces_over_its_kraus_axis(self):
        """Noise on a wire with no gates traces to a vector at closure;
        the stacked network carries it like any other site."""
        ideal = QuantumCircuit(2).h(0)
        noisy = QuantumCircuit(2).h(0)
        noisy.append(bit_flip(0.9), [1])
        template = alg1_template(noisy, ideal)
        (slot,) = template.site_slots
        assert template.network.tensors[slot].indices == ("kraus0",)
        result = fidelity_individual(noisy, ideal)
        ref = process_fidelity(noisy, ideal)
        assert np.isclose(result.fidelity, ref, atol=1e-9)


class TestTemplatePathEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_dense_reference(self, k):
        ideal = qft(3)
        noisy = insert_random_noise(
            ideal, k, channel_factory=lambda: depolarizing(0.97), seed=k
        )
        result = fidelity_individual(noisy, ideal)
        ref = process_fidelity(noisy, ideal)
        assert np.isclose(result.fidelity, ref, atol=1e-8)

    def test_local_optimisations_share_one_template(self):
        """The passes run once on the channel-bearing miter."""
        ideal = qft(3)
        noisy = insert_random_noise(ideal, 2, seed=5)
        plain = fidelity_individual(noisy, ideal).fidelity
        optimised = fidelity_individual(
            noisy, ideal, use_local_optimisations=True
        ).fidelity
        assert np.isclose(plain, optimised, atol=1e-8)

    def test_without_shared_table_still_correct(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 2, seed=3)
        ref = process_fidelity(noisy, ideal)
        result = fidelity_individual(
            noisy, ideal,
            backend=get_backend("tdd", share_computed_table=False),
        )
        assert np.isclose(result.fidelity, ref, atol=1e-9)

    def test_template_speedup(self):
        """The shared table + template must beat cold-cache mode."""
        ideal = qft(3)
        noisy = insert_random_noise(ideal, 3, seed=1)
        warm = fidelity_individual(noisy, ideal)
        cold = fidelity_individual(
            noisy, ideal,
            backend=get_backend("tdd", share_computed_table=False),
        )
        assert warm.stats.time_seconds < cold.stats.time_seconds
