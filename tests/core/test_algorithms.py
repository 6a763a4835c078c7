"""Cross-validation tests for Algorithms I and II."""

import numpy as np
import pytest

from repro.baseline import process_fidelity
from repro.backends import get_backend
from repro.circuits import QuantumCircuit
from repro.core import (
    enumerate_selections,
    fidelity_collective,
    fidelity_individual,
)
from repro.library import bernstein_vazirani, qft
from repro.noise import (
    amplitude_damping,
    bit_flip,
    depolarizing,
    insert_random_noise,
)


def noisy_cases():
    """(name, ideal, noisy) triples covering several noise shapes."""
    cases = []
    ideal = qft(3)
    cases.append((
        "qft3_depol",
        ideal,
        insert_random_noise(ideal, 3, seed=11),
    ))
    ideal = bernstein_vazirani(4)
    cases.append((
        "bv4_bitflip",
        ideal,
        insert_random_noise(
            ideal, 2, channel_factory=lambda: bit_flip(0.93), seed=5
        ),
    ))
    ideal = QuantumCircuit(2, "bell").h(0).cx(0, 1)
    noisy = QuantumCircuit(2, "bell_ad").h(0)
    noisy.append(amplitude_damping(0.15), [0])
    noisy.cx(0, 1)
    noisy.append(amplitude_damping(0.1), [1])
    cases.append(("bell_amplitude_damping", ideal, noisy))
    return cases


class TestAgreement:
    @pytest.mark.parametrize(
        "name,ideal,noisy", noisy_cases(), ids=[c[0] for c in noisy_cases()]
    )
    def test_alg1_alg2_dense_agree(self, name, ideal, noisy):
        ref = process_fidelity(noisy, ideal)
        f1 = fidelity_individual(noisy, ideal).fidelity
        f2 = fidelity_collective(noisy, ideal).fidelity
        assert np.isclose(f1, ref, atol=1e-8)
        assert np.isclose(f2, ref, atol=1e-8)

    @pytest.mark.parametrize("backend", ["tdd", "dense"])
    def test_backends_agree(self, backend):
        ideal = qft(3)
        noisy = insert_random_noise(ideal, 2, seed=8)
        f1 = fidelity_individual(noisy, ideal, backend=backend).fidelity
        f2 = fidelity_collective(noisy, ideal, backend=backend).fidelity
        assert np.isclose(f1, f2, atol=1e-8)

    @pytest.mark.parametrize("order_method", ["min_fill", "anneal"])
    def test_order_methods_agree(self, order_method):
        ideal = bernstein_vazirani(4)
        noisy = insert_random_noise(ideal, 2, seed=8)
        ref = process_fidelity(noisy, ideal)
        f2 = fidelity_collective(
            noisy, ideal,
            backend=get_backend(
                "tdd", order_method=order_method, plan_budget_seconds=0.05
            ),
        ).fidelity
        assert np.isclose(f2, ref, atol=1e-8)

    def test_local_optimisations_preserve_value(self):
        ideal = qft(4)
        noisy = insert_random_noise(ideal, 2, seed=19)
        plain = fidelity_collective(noisy, ideal).fidelity
        opt = fidelity_collective(
            noisy, ideal, use_local_optimisations=True
        ).fidelity
        assert np.isclose(plain, opt, atol=1e-8)


class TestAlgorithm1Mechanics:
    def test_term_count_no_early_stop(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 2, seed=0)  # 4^2 = 16 terms
        result = fidelity_individual(noisy, ideal)
        assert result.stats.terms_computed == 16
        assert not result.is_lower_bound

    def test_early_stop_dominant_first(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 3, seed=0)  # p = 0.999
        result = fidelity_individual(noisy, ideal, epsilon=0.05)
        assert result.stats.early_stopped
        assert result.stats.terms_computed == 1

    def test_max_terms_cap(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 3, seed=0)
        result = fidelity_individual(noisy, ideal, max_terms=5)
        assert result.stats.terms_computed == 5
        assert result.is_lower_bound

    def test_lower_bound_below_true_value(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 3, seed=0)
        capped = fidelity_individual(noisy, ideal, max_terms=3).fidelity
        full = fidelity_individual(noisy, ideal).fidelity
        assert capped <= full + 1e-12

    def test_shared_table_fidelity_unchanged(self):
        ideal = qft(3)
        noisy = insert_random_noise(ideal, 2, seed=1)
        with_table = fidelity_individual(
            noisy, ideal, backend=get_backend("tdd", share_computed_table=True)
        )
        without = fidelity_individual(
            noisy, ideal,
            backend=get_backend("tdd", share_computed_table=False),
        )
        assert np.isclose(with_table.fidelity, without.fidelity, atol=1e-9)

    def test_invalid_epsilon(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 1, seed=0)
        with pytest.raises(ValueError):
            fidelity_individual(noisy, ideal, epsilon=2.0)

    def test_unknown_backend(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 1, seed=0)
        with pytest.raises(ValueError):
            fidelity_individual(noisy, ideal, backend="quantum")

    def test_term_times_recorded(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 1, seed=0)
        result = fidelity_individual(noisy, ideal)
        assert len(result.stats.term_times) == result.stats.terms_computed


class TestEnumerateSelections:
    def test_dominant_first_order(self):
        circuit = QuantumCircuit(1)
        circuit.append(depolarizing(0.999), [0])
        selections = list(enumerate_selections(circuit))
        # Index 0 is sqrt(p) I, by far the largest norm.
        assert selections[0] == (0,)
        assert len(selections) == 4

    def test_product_over_sites(self):
        circuit = QuantumCircuit(2)
        circuit.append(bit_flip(0.9), [0])
        circuit.append(depolarizing(0.9), [1])
        assert len(list(enumerate_selections(circuit))) == 8

    def test_no_noise_single_empty_selection(self):
        circuit = QuantumCircuit(1).h(0)
        assert list(enumerate_selections(circuit)) == [()]


class TestAlgorithm2Mechanics:
    def test_noiseless_circuit(self):
        ideal = qft(3)
        result = fidelity_collective(ideal, ideal)
        assert np.isclose(result.fidelity, 1.0)

    def test_stats_nodes_tracked(self):
        ideal = qft(3)
        noisy = insert_random_noise(ideal, 2, seed=2)
        result = fidelity_collective(noisy, ideal, backend="tdd")
        assert result.stats.max_nodes > 0
        assert result.stats.time_seconds > 0

    def test_unknown_backend(self):
        ideal = qft(2)
        with pytest.raises(ValueError):
            fidelity_collective(ideal, ideal, backend="magic")

    def test_fidelity_clamped(self):
        # Exact equality must not exceed 1 even with float noise.
        ideal = bernstein_vazirani(5)
        result = fidelity_collective(ideal, ideal)
        assert 0.0 <= result.fidelity <= 1.0
