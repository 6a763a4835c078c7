"""Unit tests for stats aggregation and worker-transport serialisation."""

import pickle

import pytest

from repro.core import CheckConfig, CheckResult, CheckSession, RunStats
from repro.core.stats import TermTimes
from repro.library import qft
from repro.noise import insert_random_noise
from repro.tensornet import build_plan
from repro.core.miter import algorithm_network


def checked_result() -> CheckResult:
    ideal = qft(3)
    noisy = insert_random_noise(ideal, 2, seed=0)
    return CheckSession(CheckConfig(epsilon=0.05)).check(ideal, noisy)


class TestRunStats:
    def test_cache_counters_default_zero_and_serialise(self):
        record = RunStats().to_dict()
        assert record["plan_cache_hit"] == 0
        assert record["result_cache_hit"] == 0

    def test_planning_counters_default_zero_and_serialise(self):
        record = RunStats().to_dict()
        assert record["planning_seconds"] == 0.0
        assert record["plan_trials"] == 0


class TestTermTimes:
    def test_reads_as_the_per_term_list(self):
        times = TermTimes()
        times.add_run(0.5, 1)
        times.add_run(0.25, 3)
        expected = [0.5, 0.25, 0.25, 0.25]
        assert len(times) == 4 and list(times) == expected
        assert times == expected and expected == times
        assert times[1:] == expected[1:] and times[-1] == 0.25
        assert max(times) == 0.5
        assert times != [0.5, 0.25, 0.25]

    def test_alg1_keeps_one_run_per_chunk_and_serialises_a_list(self):
        from repro.core import fidelity_individual

        ideal = qft(3)
        noisy = insert_random_noise(ideal, 3, seed=1)  # 64 terms
        stats = fidelity_individual(noisy, ideal).stats
        assert isinstance(stats.term_times, TermTimes)
        assert len(stats.term_times) == stats.terms_computed == 64
        assert len(stats.term_times._runs) < 64
        record = stats.to_dict()
        assert record["term_times"] == list(stats.term_times)
        assert type(record["term_times"]) is list
        clone = pickle.loads(pickle.dumps(stats))
        assert clone == stats
        assert RunStats(**record) == stats


class TestPickleRoundTrip:
    """Worker transport runs on pickle; these types must survive it."""

    def test_run_stats(self):
        stats = RunStats(algorithm="alg1", backend="tdd", time_seconds=1.0,
                         max_nodes=7, term_times=[0.1, 0.2])
        assert pickle.loads(pickle.dumps(stats)) == stats

    def test_check_result_from_a_real_check(self):
        result = checked_result()
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
        assert clone.verdict == result.verdict
        assert clone.stats.max_nodes == result.stats.max_nodes

    def test_check_config_hashable_and_picklable(self):
        config = CheckConfig(epsilon=0.05, backend="einsum")
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert hash(clone) == hash(config)  # worker session-cache key

    def test_contraction_plan(self):
        ideal = qft(2)
        noisy = insert_random_noise(ideal, 1, seed=0)
        network = algorithm_network(noisy, ideal, "alg2")
        plan = build_plan(network, max_intermediate_size=8)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.steps == plan.steps
        assert clone.slices == plan.slices
        assert clone.num_slices() == plan.num_slices()
        assert clone.dims == plan.dims


class TestStatsAggregator:
    def test_counters_accumulate_and_peaks_take_max(self):
        from repro.core import StatsAggregator

        aggregate = StatsAggregator()
        aggregate.add(RunStats(time_seconds=1.0,
                               plan_cache_hit=1, result_cache_hit=0,
                               max_nodes=10, terms_computed=3,
                               planning_seconds=0.25, plan_trials=12))
        aggregate.add(RunStats(time_seconds=0.5,
                               plan_cache_hit=0, result_cache_hit=1,
                               max_nodes=4, terms_computed=1,
                               early_stopped=True,
                               planning_seconds=0.05, plan_trials=0))
        aggregate.add(None)  # error responses carry no stats
        snapshot = aggregate.snapshot()
        assert snapshot["checks"] == 2
        assert snapshot["wall_seconds"] == 1.5
        # each run's wall time is its compute time
        assert snapshot["cpu_seconds"] == 1.5
        assert snapshot["plan_cache_hits"] == 1
        assert snapshot["result_cache_hits"] == 1
        assert snapshot["planning_seconds"] == 0.3
        assert snapshot["plan_trials"] == 12
        assert snapshot["max_nodes"] == 10
        assert snapshot["terms_computed"] == 4
        assert snapshot["early_stopped"] == 1
        assert snapshot["timed_out"] == 0

    def test_empty_snapshot_is_all_zero(self):
        from repro.core import StatsAggregator

        aggregate = StatsAggregator()
        aggregate.add(None)
        snapshot = aggregate.snapshot()
        assert snapshot["checks"] == 0
        assert not any(snapshot.values())

    def test_slicing_counters_and_timeouts_accumulate(self):
        from repro.core import StatsAggregator

        aggregate = StatsAggregator()
        aggregate.add(RunStats(max_intermediate_size=64,
                               batched_slice_calls=3, timed_out=True))
        aggregate.add(RunStats(max_intermediate_size=16,
                               batched_slice_calls=2, timed_out=True))
        aggregate.add(RunStats())
        snapshot = aggregate.snapshot()
        assert snapshot["checks"] == 3
        assert snapshot["max_intermediate_size"] == 64  # peak, not sum
        assert snapshot["batched_slice_calls"] == 5
        assert snapshot["timed_out"] == 2
        assert snapshot["early_stopped"] == 0

    def test_snapshot_is_a_point_in_time_copy(self):
        from repro.core import StatsAggregator

        aggregate = StatsAggregator()
        aggregate.add(RunStats(time_seconds=1.0))
        before = aggregate.snapshot()
        aggregate.add(RunStats(time_seconds=1.0))
        assert before["checks"] == 1
        assert aggregate.snapshot()["checks"] == 2

    def test_thread_safe_under_concurrent_adds(self):
        import threading

        from repro.core import StatsAggregator

        aggregate = StatsAggregator()

        def spin():
            for _ in range(500):
                aggregate.add(RunStats(time_seconds=0.001,
                                       result_cache_hit=1))

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = aggregate.snapshot()
        assert snapshot["checks"] == 4000
        assert snapshot["result_cache_hits"] == 4000
