"""Unit tests for CheckConfig, CheckSession and result serialisation."""

import json

import numpy as np
import pytest

from repro.baseline import process_fidelity
from repro.backends import (
    DEFAULT_BACKEND,
    DenseBackend,
    get_backend,
    resolve_backend,
)
from repro.circuits import QuantumCircuit
from repro.core import (
    CheckConfig,
    CheckSession,
    fidelity_individual,
)
from repro.library import qft
from repro.noise import bit_flip, depolarizing, insert_random_noise


def make_pairs(count=3, noises=2):
    ideal = qft(3)
    return [
        (ideal, insert_random_noise(ideal, noises, seed=seed))
        for seed in range(count)
    ]


class TestCheckConfig:
    def test_defaults(self):
        config = CheckConfig()
        assert config.epsilon == 0.01
        assert config.algorithm == "auto"
        assert config.backend == "einsum"
        assert config.backend_name == DEFAULT_BACKEND
        assert config.share_computed_table

    def test_frozen(self):
        with pytest.raises(AttributeError):
            CheckConfig().epsilon = 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": -0.1},
            {"epsilon": 1.5},
            {"algorithm": "alg3"},
            {"backend": "tddd"},  # typo must fail at construction
            {"backend": 42},
            {"order_method": "tree_decompositon"},  # typo
            {"alg1_max_noises": -1},
            {"order_method": "gredy"},  # typo
            {"planner": "greedy"},  # folded into order_method
            {"order_method": "sequential"},  # removed planner
            {"order_method": "greedy"},  # removed planner
            {"max_intermediate_size": 0},
        ],
    )
    def test_validation_at_construction(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            CheckConfig(**kwargs)

    def test_validation_errors_name_the_choices(self):
        """Every config validation error lists the valid values."""
        with pytest.raises(ValueError, match="alg1"):
            CheckConfig(algorithm="bogus")
        with pytest.raises(ValueError, match="tdd"):
            CheckConfig(backend="bogus")
        with pytest.raises(TypeError, match="tdd"):
            CheckConfig(backend=42)
        with pytest.raises(ValueError, match="min_fill"):
            CheckConfig(order_method="bogus")
        with pytest.raises(ValueError, match="anneal"):
            CheckConfig(order_method="bogus")
        with pytest.raises(ValueError, match="tdd"):
            resolve_backend("bogus")
        with pytest.raises(TypeError, match="tdd"):
            resolve_backend(42)

    def test_backend_instance_accepted(self):
        config = CheckConfig(backend=DenseBackend())
        assert config.backend_name == "dense"

    def test_plan_knobs_conflicting_with_instance_backend_rejected(self):
        """Instance backends keep their own config; silent knob loss is
        an error, matching instances that already agree are fine."""
        with pytest.raises(ValueError, match="order_method"):
            CheckConfig(backend=DenseBackend(), order_method="anneal")
        with pytest.raises(ValueError, match="share_computed_table"):
            CheckConfig(backend=DenseBackend(), share_computed_table=False)
        with pytest.raises(ValueError, match="max_intermediate_size"):
            CheckConfig(backend=DenseBackend(), max_intermediate_size=4)
        config = CheckConfig(
            backend=DenseBackend(
                order_method="anneal", max_intermediate_size=4
            ),
            order_method="anneal",
            max_intermediate_size=4,
        )
        assert config.backend.max_intermediate_size == 4

    def test_plan_knobs_reach_the_backend(self):
        session = CheckSession(
            CheckConfig(
                backend="dense", order_method="anneal",
                max_intermediate_size=64, share_computed_table=False,
            )
        )
        assert session.backend.order_method == "anneal"
        assert session.backend.max_intermediate_size == 64
        assert session.backend.share_computed_table is False

    def test_removed_planner_knob_is_a_type_error(self):
        with pytest.raises(TypeError, match="planner"):
            CheckConfig(planner="greedy")
        with pytest.raises(TypeError, match="planner"):
            get_backend("dense", planner="greedy")

    def test_sliced_session_checks_agree_with_unsliced(self):
        ideal, noisy = make_pairs(1)[0]
        plain = CheckSession(CheckConfig(backend="dense")).check(ideal, noisy)
        sliced = CheckSession(CheckConfig(
            backend="dense", max_intermediate_size=16,
            use_local_optimisations=False,  # the unshrunk miter slices
        )).check(ideal, noisy)
        assert sliced.stats.max_intermediate_size <= 16
        assert sliced.stats.slice_count > 1
        assert abs(sliced.fidelity - plain.fidelity) < 1e-9

    def test_replace_revalidates(self):
        config = CheckConfig()
        assert config.replace(epsilon=0.2).epsilon == 0.2
        with pytest.raises(ValueError):
            config.replace(backend="nope")

    def test_to_dict_is_json_safe(self):
        config = CheckConfig(backend=DenseBackend(), epsilon=0.05)
        payload = json.dumps(config.to_dict())
        assert json.loads(payload)["backend"] == "dense"


class TestCheckSession:
    def test_overrides_compose_with_config(self):
        session = CheckSession(CheckConfig(epsilon=0.01), epsilon=0.2)
        assert session.config.epsilon == 0.2

    def test_check_matches_algorithm_layer(self):
        ideal, noisy = make_pairs(1)[0]
        result = CheckSession(CheckConfig(epsilon=0.05)).check(ideal, noisy)
        direct = fidelity_individual(noisy, ideal, epsilon=0.05)
        assert result.algorithm == "alg1"
        assert result.equivalent == (direct.fidelity > 0.95)
        assert np.isclose(result.fidelity, direct.fidelity, atol=1e-12)

    def test_consecutive_checks_share_backend_state(self):
        pairs = make_pairs(2)
        session = CheckSession(CheckConfig(algorithm="alg2", backend="tdd"))
        for ideal, noisy in pairs:
            session.check(ideal, noisy)
        manager = session.backend.manager
        assert manager is not None
        for ideal, noisy in pairs:
            session.check(ideal, noisy)
        assert session.backend.manager is manager
        session.reset()
        assert session.backend.manager is None

    @pytest.mark.parametrize("backend", ["tdd", "dense", "einsum"])
    def test_check_every_backend(self, backend):
        session = CheckSession(CheckConfig(backend=backend))
        for ideal, noisy in make_pairs(2):
            result = session.check(ideal, noisy)
            ref = process_fidelity(noisy, ideal)
            assert result.backend == backend
            if not result.is_lower_bound:
                assert np.isclose(result.fidelity, ref, atol=1e-9)
            else:
                assert result.fidelity <= ref + 1e-9

    def test_fidelity_is_exact(self):
        ideal, noisy = make_pairs(1)[0]
        session = CheckSession(CheckConfig(epsilon=0.05))
        value = session.fidelity(ideal, noisy)
        assert np.isclose(
            value, process_fidelity(noisy, ideal), atol=1e-9
        )

    def test_dense_algorithm_branch(self):
        ideal, noisy = make_pairs(1)[0]
        result = CheckSession(CheckConfig(algorithm="dense")).check(
            ideal, noisy
        )
        assert result.algorithm == "dense"
        assert result.backend == "dense-linalg"

    def test_mismatched_widths_rejected(self):
        session = CheckSession()
        with pytest.raises(ValueError):
            session.check(qft(2), qft(3))


class TestDispatch:
    def test_auto_prefers_alg1_for_few_noises(self):
        noisy = insert_random_noise(qft(3), 1, seed=0)
        assert CheckSession().select_algorithm(noisy) == "alg1"

    def test_auto_prefers_alg2_for_many_noises(self):
        noisy = insert_random_noise(qft(3), 6, seed=0)
        assert CheckSession().select_algorithm(noisy) == "alg2"

    def test_explicit_algorithm_respected(self):
        noisy = insert_random_noise(qft(3), 1, seed=0)
        session = CheckSession(CheckConfig(algorithm="alg2"))
        assert session.select_algorithm(noisy) == "alg2"


class TestCheckVerdicts:
    def test_equivalent_small_noise(self):
        ideal = qft(3)
        noisy = insert_random_noise(ideal, 2, seed=1)  # p = 0.999
        out = CheckSession(CheckConfig(epsilon=0.01)).check(ideal, noisy)
        assert out.equivalent
        assert out.fidelity > 0.99

    def test_not_equivalent_heavy_noise(self):
        ideal = qft(2)
        noisy = insert_random_noise(
            ideal, 3, channel_factory=lambda: depolarizing(0.5), seed=1
        )
        out = CheckSession(
            CheckConfig(epsilon=0.01, algorithm="alg2")
        ).check(ideal, noisy)
        assert not out.equivalent

    def test_all_algorithms_same_verdict_and_fidelity(self):
        ideal = qft(2)
        noisy = insert_random_noise(
            ideal, 2, channel_factory=lambda: bit_flip(0.9), seed=4
        )
        verdicts, fidelities = set(), []
        for algorithm in ("alg1", "alg2", "dense"):
            session = CheckSession(
                CheckConfig(epsilon=0.3, algorithm=algorithm)
            )
            verdicts.add(session.check(ideal, noisy).equivalent)
            fidelities.append(session.fidelity(ideal, noisy))
        assert len(verdicts) == 1
        assert max(fidelities) - min(fidelities) < 1e-8

    def test_noisy_ideal_rejected(self):
        ideal = QuantumCircuit(1)
        ideal.append(bit_flip(0.9), [0])
        with pytest.raises(ValueError):
            CheckSession().check(ideal, ideal)

    def test_negative_with_truncation(self):
        # A non-equivalent instance where alg1 truncates early.
        ideal = qft(2)
        noisy = insert_random_noise(
            ideal, 2, channel_factory=lambda: depolarizing(0.6), seed=2
        )
        session = CheckSession(CheckConfig(epsilon=0.001, algorithm="alg1"))
        assert not session.check(ideal, noisy).equivalent

    def test_result_fields_populated(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 1, seed=0)
        out = CheckSession(CheckConfig(epsilon=0.05)).check(ideal, noisy)
        assert out.algorithm in ("alg1", "alg2")
        assert out.epsilon == 0.05
        assert out.stats.time_seconds >= 0


class TestSerialisation:
    def test_check_result_json_roundtrip(self):
        ideal, noisy = make_pairs(1)[0]
        result = CheckSession(CheckConfig(epsilon=0.05)).check(ideal, noisy)
        parsed = json.loads(result.to_json())
        assert parsed["equivalent"] == result.equivalent
        assert parsed["verdict"] == result.verdict
        assert parsed["fidelity"] == result.fidelity
        assert parsed["backend"] == result.backend
        assert parsed["time_seconds"] == result.stats.time_seconds
        assert parsed["stats"]["algorithm"] == result.algorithm

    def test_run_stats_dict_fields(self):
        ideal, noisy = make_pairs(1)[0]
        result = CheckSession(
            CheckConfig(algorithm="alg1", backend="tdd")
        ).check(ideal, noisy)
        stats = result.stats.to_dict()
        assert stats["backend"] == "tdd"
        assert stats["terms_total"] >= stats["terms_computed"] >= 1
        json.dumps(stats)  # JSON-safe


class TestFidelityResultValidation:
    """fidelity_result validates the pair like every other entry point."""

    def test_qubit_mismatch_rejected(self):
        from repro import CheckSession, qft

        with pytest.raises(ValueError, match="same number of qubits"):
            CheckSession().fidelity_result(qft(3), qft(2))

    def test_noisy_ideal_rejected(self):
        from repro import CheckSession, insert_random_noise, qft

        noisy = insert_random_noise(qft(2), 1, seed=0)
        with pytest.raises(ValueError, match="unitary"):
            CheckSession().fidelity(noisy, noisy)
