"""Unit tests for the canonical, version-salted fingerprints."""

import numpy as np
import pytest

from repro.cache import fingerprint as fp
from repro.circuits import QuantumCircuit
from repro.core import CheckConfig
from repro.core.miter import alg2_trace_network
from repro.library import qft
from repro.noise import bit_flip, depolarizing, insert_random_noise
from repro.tensornet.planner import ORDER_METHODS


def noisy_pair(angle=0.3, p=0.99):
    ideal = QuantumCircuit(2).h(0).rz(angle, 0).cx(0, 1)
    noisy = ideal.copy()
    noisy.append(depolarizing(p), [1])
    return ideal, noisy


class TestCircuitFingerprint:
    def test_deterministic_across_rebuilds(self):
        a = fp.circuit_fingerprint(qft(3))
        b = fp.circuit_fingerprint(qft(3))
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_gate_angle_changes_fingerprint(self):
        one = QuantumCircuit(1).rz(0.3, 0)
        other = QuantumCircuit(1).rz(0.3000001, 0)
        assert fp.circuit_fingerprint(one) != fp.circuit_fingerprint(other)

    def test_qubit_map_changes_fingerprint(self):
        one = QuantumCircuit(2).cx(0, 1)
        other = QuantumCircuit(2).cx(1, 0)
        assert fp.circuit_fingerprint(one) != fp.circuit_fingerprint(other)

    def test_kraus_data_changes_fingerprint(self):
        one = QuantumCircuit(1).h(0)
        one.append(bit_flip(0.99), [0])
        other = QuantumCircuit(1).h(0)
        other.append(bit_flip(0.98), [0])
        assert fp.circuit_fingerprint(one) != fp.circuit_fingerprint(other)

    def test_name_is_irrelevant_matrix_is_not(self):
        """Two gates with equal matrices are the same gate to the cache."""
        import math

        named = QuantumCircuit(1).rz(math.pi / 2, 0)
        phase = np.exp(1j * math.pi / 4)
        anonymous = QuantumCircuit(1)
        anonymous.unitary(
            np.array([[1 / phase, 0], [0, phase]]), [0], name="mystery"
        )
        assert fp.circuit_fingerprint(named) == fp.circuit_fingerprint(
            anonymous
        )

    def test_width_changes_fingerprint(self):
        assert fp.circuit_fingerprint(
            QuantumCircuit(1).h(0)
        ) != fp.circuit_fingerprint(QuantumCircuit(2).h(0))


class TestStructureFingerprint:
    def test_same_structure_different_values_share(self):
        """Plans depend on structure only, so must their fingerprints."""
        a_ideal, a_noisy = noisy_pair(angle=0.3)
        b_ideal, b_noisy = noisy_pair(angle=0.7, p=0.95)
        a_net = alg2_trace_network(a_noisy, a_ideal)
        b_net = alg2_trace_network(b_noisy, b_ideal)
        assert fp.structure_fingerprint(a_net) == fp.structure_fingerprint(
            b_net
        )
        # ...while the circuit fingerprints of course differ
        assert fp.circuit_fingerprint(a_noisy) != fp.circuit_fingerprint(
            b_noisy
        )

    def test_different_wiring_differs(self):
        ideal = qft(3)
        one = alg2_trace_network(insert_random_noise(ideal, 2, seed=0), ideal)
        other = alg2_trace_network(
            insert_random_noise(ideal, 2, seed=3), ideal
        )
        assert fp.structure_fingerprint(one) != fp.structure_fingerprint(
            other
        )


class TestConfigFingerprint:
    def test_cache_knobs_are_stripped(self):
        """Where a result comes from must not change what it is keyed by."""
        plain = CheckConfig(epsilon=0.05)
        cached = CheckConfig(epsilon=0.05, cache=True, cache_dir="/anywhere")
        assert fp.config_fingerprint(plain) == fp.config_fingerprint(cached)

    def test_semantic_knobs_are_not(self):
        assert fp.config_fingerprint(
            CheckConfig(epsilon=0.05)
        ) != fp.config_fingerprint(CheckConfig(epsilon=0.01))
        assert fp.config_fingerprint(
            CheckConfig(backend="tdd")
        ) != fp.config_fingerprint(CheckConfig(backend="dense"))


class TestVersionSalt:
    def test_bump_invalidates_every_key_kind(self, monkeypatch):
        ideal, noisy = noisy_pair()
        net = alg2_trace_network(noisy, ideal)
        config = CheckConfig()
        before = (
            fp.circuit_fingerprint(ideal),
            fp.structure_fingerprint(net),
            fp.config_fingerprint(config),
            fp.plan_key("s", "min_fill", None),
            fp.result_key("a", "b", "c"),
        )
        monkeypatch.setattr(fp, "CACHE_VERSION", fp.CACHE_VERSION + 1)
        after = (
            fp.circuit_fingerprint(ideal),
            fp.structure_fingerprint(net),
            fp.config_fingerprint(config),
            fp.plan_key("s", "min_fill", None),
            fp.result_key("a", "b", "c"),
        )
        for old, new in zip(before, after):
            assert old != new


class TestPlanKey:
    def test_knobs_feed_the_key(self):
        base = fp.plan_key("s", "min_fill", None)
        assert base != fp.plan_key("s2", "min_fill", None)
        assert base != fp.plan_key("s", "sequential", None)
        assert base != fp.plan_key("s", "min_fill", 64)

    def test_distinct_order_methods_never_share_a_key(self):
        for size in (None, 64):
            keys = {
                fp.plan_key("s", method, size) for method in ORDER_METHODS
            }
            assert len(keys) == len(ORDER_METHODS)

    @pytest.mark.parametrize("method", ORDER_METHODS)
    def test_budget_and_seed_key_only_the_searches(self, method):
        """Only anneal consults the search knobs, so only its keys
        move with budget and seed; a heuristic plan is shared."""
        base = fp.plan_key("s", method, None)
        assert base == fp.plan_key("s", method, None, None, 0)
        variants = (
            fp.plan_key("s", method, None, plan_budget_seconds=0.5),
            fp.plan_key("s", method, None, plan_budget_seconds=0),
            fp.plan_key("s", method, None, plan_seed=7),
        )
        if method == "anneal":
            assert len({base, *variants}) == 4
        else:
            assert set(variants) == {base}

    @pytest.mark.parametrize("args, key", [
        (("s", "anneal", None),
         "51d34e90eb2a0b6453cb03f71d2d6695fc38811c6cb4da993b00e05f8035410b"),
        (("s", "anneal", 64, 0.5, 7),
         "eab5ab691d7a6ffe8153ce91489f0577182d068863fd1d606242a4671373591d"),
        (("s", "anneal", None, 0, 0),
         "ec9f4b2938eaff1208974e5165be77a2b3bde13a61a445e9a4440041117a77c6"),
        (("s", "anneal", None, None, 3),
         "2fbc545b218077e972b20a6ce554e237d183a23eeebf1e3aaed1515b840be086"),
        (("s", "min_fill", None),
         "7772a60d008463566baba1082ddd7847bab79cd3cda9401c80665bbdfd588bc0"),
        (("s", "greedy", 64),
         "56f577a1bed80b9336b23fb846968ecc47c21a97834a16dc446d783a7129b41b"),
    ], ids=["anneal", "anneal-sliced-budget-seed", "anneal-zero-budget",
            "anneal-seed", "min_fill", "greedy-sliced"])
    def test_plan_keys_are_pinned(self, args, key):
        """Stored plans stay reachable under CACHE_VERSION: a plan key
        may only move together with a version bump."""
        assert fp.plan_key(*args) == f"plan-{key}"

    def test_prefixes_distinguish_kinds(self):
        assert fp.plan_key("s", "min_fill", None).startswith("plan-")
        assert fp.result_key("a", "b", "c").startswith("result-")
