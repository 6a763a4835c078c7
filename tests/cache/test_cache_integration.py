"""Integration tests: the cache wired through backends and sessions.

The acceptance criteria of the caching subsystem live here:

* a repeated check of the same pair is a **result-cache hit** — zero
  planning, zero contraction, visible in ``RunStats.result_cache_hit``;
* a structurally identical new pair is a **plan-cache hit** — zero
  planning, visible in ``RunStats.plan_cache_hit``;
* cold and warm runs produce byte-identical ``CheckResult.to_dict()``
  modulo timing/counter fields, on all three backends;
* with caching off (the default) behaviour is exactly as before;
* corruption and version skew degrade to silent recomputation.
"""

import numpy as np
import pytest

import repro.backends.base as backends_base
from repro.backends import available_backends, get_backend
from repro.cache import CheckCache, fingerprint
from repro.circuits import QuantumCircuit
from repro.core import CheckConfig, CheckSession
from repro.core.miter import alg2_trace_network
from repro.library import qft
from repro.noise import depolarizing, insert_random_noise

BACKENDS = ["tdd", "dense", "einsum"]

#: to_dict fields legitimately differing between a cold run and a
#: cache hit (everything else must be byte-identical).  A hit zeroes
#: every per-run work counter — it did no contraction — so cumulative
#: aggregates (StatsAggregator, /metrics) never re-count cached work.
TIMING_AND_COUNTER_FIELDS = (
    "time_seconds",
    "cpu_seconds",
    "term_times",
    "plan_cache_hit",
    "planning_seconds",
    "plan_trials",
    "result_cache_hit",
    "batched_slice_calls",
    "terms_computed",
)


def strip_timings(record: dict) -> dict:
    record = dict(record)
    record.pop("time_seconds", None)
    stats = dict(record["stats"])
    for field in TIMING_AND_COUNTER_FIELDS:
        stats.pop(field, None)
    record["stats"] = stats
    return record


def pair(angle=0.3, p=0.99):
    """A small ideal/noisy pair whose structure is angle-independent."""
    ideal = QuantumCircuit(3, "w").h(0).rz(angle, 0).cx(0, 1).cx(1, 2)
    noisy = ideal.copy()
    noisy.append(depolarizing(p), [1])
    noisy.append(depolarizing(p), [2])
    return ideal, noisy


def counting_build_plan(monkeypatch):
    """Route backends' build_plan through a call counter."""
    calls = []
    real = backends_base.build_plan

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(backends_base, "build_plan", counted)
    return calls


class TestPlanCacheThroughBackends:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_fresh_backend_skips_planning_on_warm_cache(
        self, name, tmp_path, monkeypatch
    ):
        ideal, noisy = pair()
        network = alg2_trace_network(noisy, ideal)
        calls = counting_build_plan(monkeypatch)

        cold = get_backend(name, plan_cache=tmp_path)
        plan = cold.plan_for(network)
        assert len(calls) == 1
        assert cold.plan_cache_misses == 1

        warm = get_backend(name, plan_cache=tmp_path)  # fresh instance
        replayed = warm.plan_for(network)
        assert len(calls) == 1  # zero planning
        assert warm.plan_cache_hits == 1
        assert replayed.steps == plan.steps
        assert replayed.order == plan.order

    def test_cached_plan_executes_to_the_same_value(self, tmp_path):
        ideal, noisy = pair()
        network = alg2_trace_network(noisy, ideal)
        reference = get_backend("dense").contract_scalar(network)
        get_backend("dense", plan_cache=tmp_path).plan_for(network)
        warm = get_backend("dense", plan_cache=tmp_path)
        assert np.isclose(
            warm.contract_scalar(network), reference, atol=1e-12
        )

    def test_planning_knobs_partition_the_cache(self, tmp_path):
        ideal, noisy = pair()
        network = alg2_trace_network(noisy, ideal)
        get_backend("dense", plan_cache=tmp_path).plan_for(network)
        other = get_backend(
            "dense", order_method="anneal", plan_budget_seconds=0,
            plan_cache=tmp_path,
        )
        other.plan_for(network)
        assert other.plan_cache_hits == 0  # anneal key is its own
        assert other.plan_cache_misses == 1

    def test_no_cache_keeps_counters_at_zero(self, monkeypatch):
        ideal, noisy = pair()
        network = alg2_trace_network(noisy, ideal)
        calls = counting_build_plan(monkeypatch)
        backend = get_backend("dense")
        backend.plan_for(network)
        backend.plan_for(network)
        assert len(calls) == 1
        assert backend.plan_cache_hits == 0
        assert backend.plan_cache_misses == 0

    def test_describe_ships_the_disk_directory(self, tmp_path):
        spec = get_backend("einsum", plan_cache=tmp_path).describe()
        assert spec["plan_cache"] == str(tmp_path)
        assert get_backend("einsum").describe()["plan_cache"] is None
        # the spec round-trips through the worker rebuild path
        from repro.parallel.worker import backend_for_spec

        rebuilt = backend_for_spec(spec)
        assert rebuilt.plan_cache is not None
        assert rebuilt.plan_cache.directory == str(tmp_path)


class TestResultCacheThroughSessions:
    def config(self, backend, tmp_path, **overrides):
        settings = dict(
            epsilon=0.05,
            backend=backend,
            cache=True,
            cache_dir=str(tmp_path),
        )
        settings.update(overrides)
        return CheckConfig(**settings)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_cold_and_warm_byte_identical_modulo_timings(
        self, name, tmp_path
    ):
        ideal, noisy = pair()
        config = self.config(name, tmp_path)
        cold = CheckSession(config).check(ideal, noisy)
        assert cold.stats.result_cache_hit == 0
        warm_session = CheckSession(config)
        warm = warm_session.check(ideal, noisy)
        assert warm.stats.result_cache_hit == 1
        assert strip_timings(cold.to_dict()) == strip_timings(
            warm.to_dict()
        )

    def test_repeated_check_contracts_nothing(self, tmp_path):
        """A result hit must not even materialise a backend."""
        ideal, noisy = pair()
        config = self.config("tdd", tmp_path)
        CheckSession(config).check(ideal, noisy)
        warm_session = CheckSession(config)
        result = warm_session.check(ideal, noisy)
        assert result.stats.result_cache_hit == 1
        assert warm_session._backend is None  # untouched engine

    @pytest.mark.parametrize("name", available_backends())
    def test_structurally_identical_pair_skips_planning(
        self, name, tmp_path, monkeypatch
    ):
        config = self.config(name, tmp_path)
        CheckSession(config).check(*pair(angle=0.3))
        calls = counting_build_plan(monkeypatch)
        warm = CheckSession(config).check(*pair(angle=0.4, p=0.98))
        assert calls == []  # zero planning
        assert warm.stats.result_cache_hit == 0  # a genuinely new pair
        assert warm.stats.plan_cache_hit >= 1

    def test_within_session_replays_count_as_plan_hits(self, tmp_path):
        config = self.config("einsum", tmp_path)
        session = CheckSession(config)
        session.check(*pair(angle=0.3))
        again = session.check(*pair(angle=0.5))
        assert again.stats.plan_cache_hit >= 1

    def test_cache_off_is_exactly_todays_behaviour(self, tmp_path):
        ideal, noisy = pair()
        config = CheckConfig(epsilon=0.05, backend="einsum")
        assert config.cache is False
        session = CheckSession(config)
        assert session.cache is None
        result = session.check(ideal, noisy)
        assert result.stats.plan_cache_hit == 0
        assert result.stats.result_cache_hit == 0
        assert session.backend.plan_cache is None
        # and cached/uncached verdicts agree exactly
        cached = CheckSession(self.config("einsum", tmp_path)).check(
            ideal, noisy
        )
        assert strip_timings(cached.to_dict()) == strip_timings(
            result.to_dict()
        )

    def test_corrupt_result_entry_recomputes_silently(self, tmp_path):
        ideal, noisy = pair()
        config = self.config("dense", tmp_path)
        cold = CheckSession(config).check(ideal, noisy)
        for blob in tmp_path.rglob("result-*.blob"):
            blob.write_bytes(blob.read_bytes()[:13])
        recomputed = CheckSession(config).check(ideal, noisy)
        assert recomputed.stats.result_cache_hit == 0
        assert strip_timings(recomputed.to_dict()) == strip_timings(
            cold.to_dict()
        )
        # the store self-healed: the next session hits again
        rewarmed = CheckSession(config).check(ideal, noisy)
        assert rewarmed.stats.result_cache_hit == 1

    def test_version_salt_bump_invalidates_results(
        self, tmp_path, monkeypatch
    ):
        ideal, noisy = pair()
        config = self.config("dense", tmp_path)
        CheckSession(config).check(ideal, noisy)
        monkeypatch.setattr(
            fingerprint, "CACHE_VERSION", fingerprint.CACHE_VERSION + 1
        )
        stale = CheckSession(config).check(ideal, noisy)
        assert stale.stats.result_cache_hit == 0

    def test_config_change_misses(self, tmp_path):
        ideal, noisy = pair()
        CheckSession(self.config("dense", tmp_path)).check(ideal, noisy)
        other = CheckSession(
            self.config("dense", tmp_path, epsilon=0.04)
        ).check(ideal, noisy)
        assert other.stats.result_cache_hit == 0

    def test_time_budgeted_runs_are_never_cached(self, tmp_path):
        ideal, noisy = pair()
        config = self.config(
            "tdd",
            tmp_path,
            algorithm="alg1",
            alg1_time_budget_seconds=60.0,
        )
        CheckSession(config).check(ideal, noisy)
        again = CheckSession(config).check(ideal, noisy)
        assert again.stats.result_cache_hit == 0
        assert list(tmp_path.rglob("result-*.blob")) == []

    def test_repeated_checks_dedup_to_one_computation(self, tmp_path):
        ideal, noisy = pair()
        session = CheckSession(self.config("einsum", tmp_path))
        results = [session.check(ideal, noisy) for _ in range(3)]
        hits = [r.stats.result_cache_hit for r in results]
        assert hits == [0, 1, 1]  # first computes, the rest are lookups
        fidelities = {r.fidelity for r in results}
        assert len(fidelities) == 1

    def test_backend_instance_is_never_mutated(self, tmp_path):
        """A caching session must not attach its plan cache to a
        caller-owned instance — that would leak caching into every
        other session sharing it, including cache=False ones."""
        ideal, noisy = pair()
        backend = get_backend("einsum")
        caching = CheckSession(CheckConfig(
            epsilon=0.05, backend=backend, cache=True,
            cache_dir=str(tmp_path),
        ))
        cached = caching.check(ideal, noisy)
        assert backend.plan_cache is None  # untouched
        assert cached.stats.plan_cache_hit == 0
        # the result cache still applies to instance-backed sessions
        warm = CheckSession(caching.config).check(ideal, noisy)
        assert warm.stats.result_cache_hit == 1
        # plan-caching an instance is opt-in at construction
        owned = get_backend("einsum", plan_cache=tmp_path)
        session = CheckSession(CheckConfig(
            epsilon=0.05, backend=owned, cache=True,
            cache_dir=str(tmp_path),
        ))
        assert session.backend.plan_cache is owned.plan_cache

    def test_cache_dir_pathlike_normalises_to_str(self, tmp_path):
        config = CheckConfig(cache=True, cache_dir=tmp_path)
        assert config.cache_dir == str(tmp_path)
        hash(config)  # stays hashable (worker session-cache key)
