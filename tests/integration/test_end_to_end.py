"""Integration tests: whole-pipeline checks across the benchmark suite."""

import numpy as np
import pytest

from repro import (
    CheckConfig,
    CheckSession,
    NoiseModel,
    bernstein_vazirani,
    depolarizing,
    fidelity_collective,
    fidelity_individual,
    grover,
    insert_random_noise,
    jamiolkowski_fidelity_dense,
    mod_mult_7x15,
    process_fidelity,
    qft,
    quantum_volume,
    randomized_benchmarking,
)

BENCHMARKS = [
    ("rb2", lambda: randomized_benchmarking(2, 6, seed=0)),
    ("qft2", lambda: qft(2)),
    ("grover3", lambda: grover(3)),
    ("qft3", lambda: qft(3)),
    ("qv_n3d2", lambda: quantum_volume(3, 2, seed=0)),
    ("bv4", lambda: bernstein_vazirani(4)),
    ("7x1mod15", lambda: mod_mult_7x15()),
]


class TestThreeWayAgreement:
    @pytest.mark.parametrize(
        "name,build", BENCHMARKS, ids=[b[0] for b in BENCHMARKS]
    )
    def test_baseline_alg1_alg2_agree(self, name, build):
        ideal = build()
        noisy = insert_random_noise(
            ideal, 2, channel_factory=lambda: depolarizing(0.98), seed=13
        )
        ref = process_fidelity(noisy, ideal)
        f1 = fidelity_individual(noisy, ideal).fidelity
        f2 = fidelity_collective(noisy, ideal).fidelity
        assert np.isclose(f1, ref, atol=1e-7), name
        assert np.isclose(f2, ref, atol=1e-7), name


class TestCheckerScenarios:
    def test_nisq_grade_noise_accepted(self):
        ideal = bernstein_vazirani(6)
        noisy = insert_random_noise(ideal, 10, seed=3)  # p = 0.999
        out = CheckSession(CheckConfig(epsilon=0.05)).check(ideal, noisy)
        assert out.equivalent and out.algorithm == "alg2"

    def test_wrong_circuit_rejected(self):
        ideal = qft(3)
        wrong = qft(3).x(0)  # extra X: different unitary
        out = CheckSession(CheckConfig(epsilon=0.1, algorithm="alg2")).check(
            ideal, wrong
        )
        assert not out.equivalent

    def test_noise_model_pipeline(self):
        ideal = qft(3)
        model = NoiseModel().add_all_qubit_quantum_error(
            depolarizing(0.999), ["h", "cp", "swap"]
        )
        noisy = model.apply(ideal)
        assert noisy.num_noise_sites > 5
        out = CheckSession(CheckConfig(epsilon=0.05)).check(ideal, noisy)
        assert out.equivalent

    def test_epsilon_threshold_sharp(self):
        """F_J = p^2 exactly for the paper circuit; epsilon brackets it."""
        from tests.conftest import make_noisy_qft2

        ideal = qft(2)
        noisy = make_noisy_qft2(0.9)  # F_J = 0.81
        for epsilon, equivalent in ((0.20, True), (0.18, False)):
            session = CheckSession(epsilon=epsilon, algorithm="alg2")
            assert session.check(ideal, noisy).equivalent == equivalent

    def test_identity_rb_fidelity(self):
        """RB circuits implement the identity; noiseless fidelity is 1."""
        circuit = randomized_benchmarking(2, 8, seed=1)
        result = fidelity_collective(circuit, circuit)
        assert np.isclose(result.fidelity, 1.0, atol=1e-8)


class TestScalability:
    def test_alg2_beyond_baseline_reach(self):
        """9 qubits: far past the dense baseline's 8 GB wall."""
        ideal = bernstein_vazirani(9)
        noisy = insert_random_noise(ideal, 6, seed=2)
        result = fidelity_collective(noisy, ideal)
        assert 0.9 < result.fidelity < 1.0

    def test_alg1_early_stop_large_circuit(self):
        ideal = bernstein_vazirani(9)
        noisy = insert_random_noise(ideal, 6, seed=2)
        result = fidelity_individual(noisy, ideal, epsilon=0.05)
        assert result.stats.early_stopped
        assert result.stats.terms_computed < result.stats.terms_total

    def test_wide_shallow_circuit(self):
        ideal = bernstein_vazirani(13)
        noisy = insert_random_noise(ideal, 4, seed=6)
        result = fidelity_collective(noisy, ideal)
        expected = jamiolkowski_like_bound(4)
        assert result.fidelity > expected

    def test_agreement_at_moderate_size(self):
        ideal = qft(5)
        noisy = insert_random_noise(ideal, 3, seed=9)
        f2 = fidelity_collective(noisy, ideal).fidelity
        ref = jamiolkowski_fidelity_dense(noisy, ideal)
        assert np.isclose(f2, ref, atol=1e-8)


def jamiolkowski_like_bound(k, p=0.999):
    """Crude lower bound: k depolarising sites lose at most ~2k(1-p)."""
    return 1 - 3 * k * (1 - p)
