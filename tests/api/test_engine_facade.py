"""Unit tests for the Engine facade."""

import pytest

from repro import (
    CheckConfig,
    CheckRequest,
    CheckResponse,
    CheckSession,
    CircuitSpec,
    Engine,
    NoiseSpec,
    Verdict,
    qft,
)
from repro.api import ConfigError, JobNotFoundError, ReproError
from repro.backends import NumpyEinsumBackend
from repro.cache.fingerprint import request_fingerprint
from repro.circuits import qasm


def library_request(num_qubits=3, seed=0, **kwargs):
    defaults = dict(
        ideal=CircuitSpec.from_library("qft", num_qubits=num_qubits),
        noise=NoiseSpec(noises=2, seed=seed),
        epsilon=0.05,
    )
    defaults.update(kwargs)
    return CheckRequest(**defaults)


class TestCheck:
    def test_check_agrees_with_bare_session(self):
        engine = Engine()
        response = engine.check(library_request())
        ideal = qft(3)
        noisy = NoiseSpec(noises=2, seed=0).apply(ideal)
        direct = CheckSession(CheckConfig(epsilon=0.05)).check(ideal, noisy)
        assert response.ok
        assert response.equivalent == direct.equivalent
        assert response.fidelity == direct.fidelity

    def test_request_config_overrides_base(self):
        engine = Engine(CheckConfig(backend="tdd"))
        response = engine.check(
            library_request(config={"backend": "einsum"})
        )
        assert response.result.backend == "einsum"

    def test_typed_errors_raise_from_check(self):
        with pytest.raises(ReproError) as err:
            Engine().check(
                CheckRequest(ideal=CircuitSpec.from_path("/missing.qasm"))
            )
        assert err.value.code == "circuit_load_failed"

    def test_fidelity_mode(self):
        engine = Engine()
        request = library_request(mode="fidelity")
        response = engine.check(request)
        assert response.ok
        assert 0.9 < response.fidelity <= 1.0
        assert engine.fidelity(library_request()) == response.fidelity

    def test_fidelity_mode_keeps_the_lower_bound_note(self):
        """A capped alg1 fidelity run that cannot prove a negative
        carries the same guidance note as check mode."""
        response = Engine().check(CheckRequest(
            ideal=CircuitSpec.from_library("qft", num_qubits=3),
            noise=NoiseSpec(noises=2, p=0.5, seed=0),  # heavy noise
            mode="fidelity",
            epsilon=0.4,
            config={"algorithm": "alg1", "alg1_max_terms": 1},
        ))
        assert response.ok
        assert not response.equivalent
        assert response.result.is_lower_bound
        assert "lower bound" in response.result.note

    def test_sessions_are_shared_per_config(self):
        engine = Engine()
        engine.check(library_request(seed=0))
        engine.check(library_request(seed=1))
        assert len(engine._sessions) == 1
        engine.check(library_request(config={"backend": "tdd"}))
        assert len(engine._sessions) == 2

    def test_session_memo_is_bounded(self):
        """A service sweeping epsilons must not retain warm backend
        state per distinct config forever."""
        from repro.api.engine import _SESSION_MEMO_ENTRIES

        engine = Engine()
        request = library_request(num_qubits=2)
        for i in range(_SESSION_MEMO_ENTRIES + 8):
            engine.check(library_request(
                num_qubits=2, epsilon=0.05 + i * 0.001
            ))
        assert len(engine._resolved) <= _SESSION_MEMO_ENTRIES
        assert len(engine._sessions) <= _SESSION_MEMO_ENTRIES
        assert engine.check(request).ok  # still serving

    def test_circuit_memo_reuses_pure_specs(self):
        engine = Engine()
        spec = CircuitSpec.from_library("qft", num_qubits=3)
        first = engine._circuit(spec)
        again = engine._circuit(CircuitSpec.from_library("qft", num_qubits=3))
        assert first is again

    def test_live_circuit_specs_skip_serialisation(self):
        ideal = qft(2)
        noisy = NoiseSpec(noises=1, seed=0).apply(ideal)
        response = Engine().check(
            CheckRequest(
                ideal=CircuitSpec.from_circuit(ideal),
                noisy=CircuitSpec.from_circuit(noisy),
                epsilon=0.05,
            )
        )
        assert response.ok


class TestCheckIter:
    def test_serial_is_streaming_and_ordered(self):
        engine = Engine()
        requests = [library_request(seed=s) for s in range(3)]
        iterator = engine.check_iter(iter(requests))
        responses = list(iterator)
        assert [r.index for r in responses] == [0, 1, 2]
        assert all(r.ok for r in responses)

    def test_error_isolation_keeps_positions(self):
        engine = Engine()
        bad = CheckRequest(ideal=CircuitSpec.from_path("/missing.qasm"))
        out = list(engine.check_iter([library_request(), bad,
                                      library_request(seed=1)]))
        assert [r.verdict for r in out] == [
            Verdict.EQUIVALENT, Verdict.ERROR, Verdict.EQUIVALENT,
        ]
        assert out[1].error_code == "circuit_load_failed"
        assert out[1].index == 1

    def test_parallel_matches_serial(self):
        requests = [library_request(seed=s, num_qubits=2) for s in range(4)]
        serial = [r.fidelity for r in Engine().check_iter(requests)]
        with Engine(jobs=2) as engine:
            parallel = list(engine.check_iter(requests))
            # the pool is shared across calls
            again = list(engine.check_iter(requests[:2]))
        assert [r.fidelity for r in parallel] == serial
        assert [r.index for r in parallel] == [0, 1, 2, 3]
        assert [r.fidelity for r in again] == serial[:2]

    def test_parallel_isolates_bad_rows(self):
        bad = CheckRequest(ideal=CircuitSpec.from_path("/missing.qasm"))
        with Engine(jobs=2) as engine:
            out = list(engine.check_iter(
                [library_request(num_qubits=2), bad]
            ))
        assert [r.verdict for r in out] == [Verdict.EQUIVALENT, Verdict.ERROR]

    def test_parallel_rejects_instance_backends(self):
        request = library_request(num_qubits=2)
        request = CheckRequest(
            ideal=request.ideal, noise=request.noise, epsilon=0.05,
        )
        with Engine(CheckConfig(backend=NumpyEinsumBackend()), jobs=2) as engine:
            out = list(engine.check_iter([request]))
        assert out[0].verdict == Verdict.ERROR
        assert out[0].error_code == "invalid_config"
        assert "tdd" in str(out[0].error)  # names the registry choices

    def test_parallel_stream_yields_in_input_order(self):
        requests = [library_request(seed=s, num_qubits=2) for s in range(3)]
        with Engine(jobs=2) as engine:
            iterator = engine.check_iter(requests)
            first = next(iterator)
            assert first.index == 0
            assert first.request is requests[0]
            assert [r.index for r in iterator] == [1, 2]

    def test_closing_a_parallel_stream_cancels_queued_checks(
        self, monkeypatch
    ):
        """One fast check, then seven slow ones on two workers: after the
        first response, at most five slow checks have left the queue
        (two running, three in the pool's call queue); closing the
        stream cancels the rest instead of leaving them to run."""
        slow = dict(
            ideal=CircuitSpec.from_library("qft", num_qubits=6),
            noise=NoiseSpec(noises=4, seed=1),
            mode="fidelity",
            config={
                "algorithm": "alg1", "backend": "tdd",
                "use_local_optimisations": False,
            },
        )
        requests = [library_request(num_qubits=2)] + [
            library_request(**slow) for _ in range(7)
        ]
        with Engine(jobs=2) as engine:
            futures = []
            start = engine._start

            def recording_start(request, pooled):
                state = start(request, pooled)
                futures.append(state[1])
                return state

            monkeypatch.setattr(engine, "_start", recording_start)
            iterator = engine.check_iter(requests)
            assert next(iterator).ok
            iterator.close()
            assert len(futures) == 8
            assert sum(future.cancelled() for future in futures) >= 2

    def test_parallel_worker_failure_serialises(self):
        with Engine(jobs=2) as engine:
            out = list(engine.check_iter(
                [library_request(num_qubits=2), width_mismatch_request()]
            ))
        record = out[1].to_dict()
        assert record["verdict"] == "ERROR"
        assert record["equivalent"] is False
        assert record["index"] == 1
        assert record["error_type"] == "ValueError"
        parsed = CheckResponse.from_json(out[1].to_json())
        assert parsed == out[1]
        assert str(parsed.error) == (
            "circuits must have the same number of qubits"
        )

    @pytest.mark.parametrize("backend", ["tdd", "dense", "einsum"])
    def test_parallel_every_backend(self, backend):
        requests = [
            library_request(seed=s, num_qubits=2, config={"backend": backend})
            for s in range(2)
        ]
        serial = list(Engine().check_iter(requests))
        with Engine(jobs=2) as engine:
            parallel = list(engine.check_iter(requests))
        for a, b in zip(serial, parallel):
            assert b.result.backend == backend
            assert b.verdict == a.verdict
            assert abs(b.fidelity - a.fidelity) <= 1e-12


class TestJobs:
    def test_submit_and_result(self):
        engine = Engine()
        handle = engine.submit(library_request())
        assert engine.pending_jobs() == (handle.id,)
        response = engine.result(handle)
        assert response.ok

    def test_each_job_collected_once(self):
        engine = Engine()
        handle = engine.submit(library_request())
        engine.result(handle)
        with pytest.raises(JobNotFoundError):
            engine.result(handle)
        with pytest.raises(JobNotFoundError):
            engine.result("job-999")

    def test_submit_captures_resolution_errors(self):
        engine = Engine()
        handle = engine.submit(
            CheckRequest(ideal=CircuitSpec.from_path("/missing.qasm"))
        )
        response = engine.result(handle)
        assert response.verdict == Verdict.ERROR
        assert response.error_code == "circuit_load_failed"

    def test_pool_backed_jobs(self):
        with Engine(jobs=2) as engine:
            handles = [
                engine.submit(library_request(seed=s, num_qubits=2))
                for s in range(2)
            ]
            results = [engine.result(h) for h in handles]
        assert all(r.ok for r in results)

    def test_result_accepts_raw_ids(self):
        engine = Engine()
        handle = engine.submit(library_request())
        assert engine.result(handle.id).ok

    def test_timed_out_jobs_stay_collectable(self):
        """Regression: py3.10's concurrent.futures.TimeoutError is not
        the builtin; a timeout must re-shelve the job either way."""
        import concurrent.futures

        class StuckFuture:
            def result(self, timeout=None):
                raise concurrent.futures.TimeoutError()

        engine = Engine()
        handle = engine.submit(library_request())
        engine._jobs_pending[handle.id] = (
            handle.request, ("future", StuckFuture()), 0.0
        )
        with pytest.raises(concurrent.futures.TimeoutError):
            engine.result(handle, timeout=0.01)
        assert handle.id in engine.pending_jobs()


def width_mismatch_request():
    """Resolves cleanly, then the session raises: a worker-side failure."""
    return library_request(
        num_qubits=2, noisy=CircuitSpec.from_library("qft", num_qubits=3)
    )


def run_batch(engine, requests, method):
    if method == "check_iter":
        return list(engine.check_iter(requests))
    handles = [engine.submit(request) for request in requests]
    return [engine.result(handle) for handle in handles]


class TestOnePoolPath:
    """check_iter and submit/result share one start/finish dispatch, so a
    failure inside the check is the same ERROR response on all four
    (jobs, call shape) paths."""

    BATCHES = {
        "mixed": lambda: [
            library_request(num_qubits=2),
            width_mismatch_request(),
            library_request(num_qubits=2, seed=1),
        ],
        "all_bad": lambda: [width_mismatch_request()] * 2,
        "empty": lambda: [],
    }

    @pytest.mark.parametrize("batch", sorted(BATCHES))
    @pytest.mark.parametrize("method", ["check_iter", "submit"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_check_failure_is_an_error_at_its_position(
        self, jobs, method, batch
    ):
        requests = self.BATCHES[batch]()
        with Engine(jobs=jobs) as engine:
            responses = run_batch(engine, requests, method)
        assert len(responses) == len(requests)
        for position, (request, response) in enumerate(
            zip(requests, responses)
        ):
            assert response.request is request
            # stream responses carry their position; job responses none
            expected_index = position if method == "check_iter" else None
            assert response.index == expected_index
            if request.noisy is None:
                assert response.verdict == Verdict.EQUIVALENT
                continue
            assert response.verdict == Verdict.ERROR
            assert response.error_code == "check_failed"
            assert response.error.error_type == "ValueError"
            assert str(response.error) == (
                "circuits must have the same number of qubits"
            )
            assert response.to_dict()["index"] == expected_index


class TestJobLifecycle:
    def test_ttl_evicts_abandoned_jobs(self):
        engine = Engine(job_ttl_seconds=0.01)
        stale = engine.submit(library_request(seed=0))
        import time as _time

        _time.sleep(0.05)
        fresh = engine.submit(library_request(seed=1))  # sweeps on submit
        assert stale.id not in engine.pending_jobs()
        assert fresh.id in engine.pending_jobs()
        with pytest.raises(JobNotFoundError):
            engine.result(stale)
        assert engine.result(fresh).ok

    def test_max_pending_bounds_the_job_table(self):
        engine = Engine(max_pending_jobs=3)
        handles = [
            engine.submit(library_request(seed=s)) for s in range(5)
        ]
        pending = engine.pending_jobs()
        assert len(pending) == 3
        # oldest evicted first, newest retained
        assert handles[0].id not in pending
        assert handles[4].id in pending
        with pytest.raises(JobNotFoundError):
            engine.result(handles[0])
        assert engine.result(handles[4]).ok

    def test_job_state_lifecycle(self):
        engine = Engine()
        handle = engine.submit(library_request())
        assert engine.job_state(handle) == "deferred"
        failed = engine.submit(
            CheckRequest(ideal=CircuitSpec.from_path("/missing.qasm"))
        )
        assert engine.job_state(failed) == "failed"
        engine.result(handle)
        assert engine.job_state(handle) == "unknown"
        assert engine.job_state("job-424242") == "unknown"

    def test_validation(self):
        with pytest.raises(ValueError):
            Engine(max_pending_jobs=0)
        with pytest.raises(ValueError):
            Engine(job_ttl_seconds=0)

    def test_close_is_idempotent_and_recoverable(self):
        engine = Engine()
        engine.submit(library_request())
        engine.close()
        engine.close()  # second close is a no-op
        assert engine.pending_jobs() == ()
        # the engine stays fully usable after close
        assert engine.check(library_request()).ok

    def test_reset_is_idempotent(self):
        engine = Engine()
        engine.reset()  # never-used engine
        engine.check(library_request())
        engine.reset()
        engine.reset()
        assert engine._sessions == {}
        assert engine.check(library_request()).ok


class TestThreadSafety:
    def test_concurrent_identical_requests_share_one_session(self, tmp_path):
        """Threaded hammer: same request from many threads must create
        one session and hit the result cache for every repeat."""
        import threading

        engine = Engine(cache=True, cache_dir=str(tmp_path / "cache"))
        workers = 8
        barrier = threading.Barrier(workers)
        responses = [None] * workers

        def hammer(slot):
            barrier.wait()
            responses[slot] = engine.respond(library_request())

        threads = [
            threading.Thread(target=hammer, args=(slot,))
            for slot in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(r.ok for r in responses)
        fidelities = {r.fidelity for r in responses}
        assert len(fidelities) == 1
        assert len(engine._sessions) == 1
        # exactly one cold compute; every other request was a lookup
        hits = sum(r.stats.result_cache_hit for r in responses)
        assert hits == workers - 1

    def test_concurrent_mixed_configs_stay_isolated(self, tmp_path):
        import threading

        engine = Engine(cache=True, cache_dir=str(tmp_path / "cache"))
        configs = [None, {"backend": "tdd"}]
        results = []
        lock = threading.Lock()

        def hammer(overrides):
            request = library_request(num_qubits=2, **(
                {"config": overrides} if overrides else {}
            ))
            response = engine.respond(request)
            with lock:
                results.append(response)

        threads = [
            threading.Thread(target=hammer, args=(configs[i % 2],))
            for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(r.ok for r in results)
        fidelities = [r.fidelity for r in results]
        assert max(fidelities) - min(fidelities) < 1e-9  # same answer
        assert len(engine._sessions) == 2


class TestCacheSharing:
    def test_one_cache_across_sessions_and_requests(self, tmp_path):
        engine = Engine(cache=True, cache_dir=str(tmp_path / "cache"))
        cold = engine.check(library_request())
        warm = engine.check(library_request())
        assert cold.stats.result_cache_hit == 0
        assert warm.stats.result_cache_hit == 1
        assert warm.fidelity == cold.fidelity
        # different config -> different session, same cache object
        engine.check(library_request(config={"backend": "tdd"}))
        sessions = list(engine._sessions.values())
        assert len(sessions) == 2
        assert sessions[0].cache is sessions[1].cache is engine.cache

    def test_workers_share_the_disk_tier(self, tmp_path):
        requests = [library_request(seed=s, num_qubits=2) for s in range(2)]
        with Engine(jobs=2, cache=True,
                    cache_dir=str(tmp_path / "cache")) as engine:
            list(engine.check_iter(requests))
            warm = list(engine.check_iter(requests))
        assert [r.stats.result_cache_hit for r in warm] == [1, 1]

    def test_in_process_warmth_serves_pool_workers(self, tmp_path):
        """A verdict the engine computed in-process is a disk-tier hit
        for every pool worker."""
        request = library_request(num_qubits=2)
        with Engine(jobs=2, cache=True,
                    cache_dir=str(tmp_path / "cache")) as engine:
            cold = engine.check(request)
            warm = list(engine.check_iter([request, request]))
        assert cold.stats.result_cache_hit == 0
        assert [r.stats.result_cache_hit for r in warm] == [1, 1]
        assert {r.fidelity for r in warm} == {cold.fidelity}

    def test_stream_dedups_byte_identical_rows(self, tmp_path):
        engine = Engine(cache=True, cache_dir=str(tmp_path / "cache"))
        out = list(engine.check_iter([library_request()] * 3))
        hits = [r.stats.result_cache_hit for r in out]
        assert hits == [0, 1, 1]  # first computes, the rest are lookups
        assert len({r.fidelity for r in out}) == 1

    def test_fingerprint_is_the_result_cache_key(self, tmp_path):
        engine = Engine(cache=True, cache_dir=str(tmp_path / "cache"))
        request = library_request()
        fingerprint = engine.fingerprint(request)
        config, ideal, noisy = engine._resolve(request)
        assert fingerprint == request_fingerprint(ideal, noisy, config)
        assert fingerprint == engine.cache.results.key_for(
            ideal, noisy, config
        )
        # equal queries fingerprint equal; different epsilon does not
        assert engine.fingerprint(library_request()) == fingerprint
        assert engine.fingerprint(
            library_request(epsilon=0.2)
        ) != fingerprint
        # a fidelity-mode query is a different query (no early
        # termination) and must never alias the check-mode key
        assert engine.fingerprint(
            library_request(mode="fidelity")
        ) != fingerprint

    def test_cache_knobs_inherit_from_base_config(self, tmp_path):
        engine = Engine(
            CheckConfig(cache=True, cache_dir=str(tmp_path / "cache"))
        )
        assert engine.cache is not None
        # sessions never open private caches
        assert engine.config.cache is False


class TestDenseAlgorithm:
    """``algorithm="dense"`` is the Table I SuperOp baseline: bounded by
    the paper's 8 GiB envelope, not by a Kraus-term count."""

    @staticmethod
    def fidelity_request(num_qubits, noises, **config):
        return CheckRequest(
            ideal=CircuitSpec.from_library("qft", num_qubits=num_qubits),
            noise=NoiseSpec(noises=noises, seed=0),
            epsilon=0.05,
            mode="fidelity",
            config=config,
        )

    def test_answers_sixteen_thousand_kraus_terms(self):
        # 7 depolarising sites: 4**7 global Kraus terms
        with Engine() as engine:
            dense = engine.check(self.fidelity_request(3, 7, algorithm="dense"))
            alg2 = engine.check(self.fidelity_request(
                3, 7, algorithm="alg2", backend="einsum"
            ))
        assert dense.result.stats.algorithm == "dense"
        assert dense.result.stats.backend == "dense-linalg"
        assert abs(dense.fidelity - alg2.fidelity) <= 1e-9

    def test_refuses_seven_qubits_before_evolving(self, monkeypatch):
        from repro.baseline import superop

        def evolve(circuit):
            raise AssertionError("the dense SuperOp was evolved")

        monkeypatch.setattr(superop, "_evolve_circuit", evolve)
        with Engine() as engine:
            (response,) = engine.check_iter(
                [self.fidelity_request(7, 2, algorithm="dense")]
            )
        assert response.verdict == Verdict.ERROR
        assert response.error_code == "check_failed"
        assert response.error.error_type == "MemoryLimitExceeded"


class TestValidation:
    def test_jobs_validated(self):
        with pytest.raises(ValueError):
            Engine(jobs=0)

    def test_bad_override_is_config_error_listing_choices(self):
        with pytest.raises(ConfigError) as err:
            Engine().check(library_request(config={"order_method": "psychic"}))
        assert "anneal" in str(err.value)

    def test_qasm_loading(self, tmp_path):
        path = tmp_path / "c.qasm"
        qasm.dump(qft(2), path)
        response = Engine().check(
            CheckRequest(
                ideal=CircuitSpec.from_path(path),
                noise=NoiseSpec(noises=1, seed=0),
                epsilon=0.05,
            )
        )
        assert response.ok
