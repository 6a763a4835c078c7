"""End-to-end tests of the HTTP service over a live loopback socket.

One module-scoped :class:`ServiceThread` (its own event loop on a
background thread) serves most tests; saturation / deadline / shutdown
tests build private servers around gated engines.
"""

import http.client
import io
import json
import threading
import time

import pytest

from repro import Engine
from repro.service import ServiceConfig, ServiceThread

REQUEST = {
    "schema_version": "1",
    "ideal": {"library": "qft", "params": {"num_qubits": 3}},
    "noise": {"noises": 2, "seed": 0},
    "epsilon": 0.05,
}


def call(server, method, path, body=None, headers=None):
    """One HTTP exchange; returns (status, headers-dict, body-bytes)."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        payload = response.read()
        return response.status, dict(response.getheaders()), payload
    finally:
        conn.close()


def check_body(**overrides):
    record = dict(REQUEST)
    record.update(overrides)
    return json.dumps(record).encode()


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    # module scope outlives the autouse per-test cache isolation, and
    # the engine resolves $REPRO_CACHE_DIR at construction — pin the
    # env here so the module's cache never touches ~/.cache/repro
    patch = pytest.MonkeyPatch()
    patch.setenv(
        "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("service-cache"))
    )
    log = io.StringIO()
    try:
        with ServiceThread(Engine(cache=True), log_stream=log) as handle:
            handle.log = log
            yield handle
    finally:
        patch.undo()


class TestHealthAndRouting:
    def test_healthz(self, server):
        status, _, body = call(server, "GET", "/healthz")
        assert status == 200
        assert json.loads(body) == {
            "status": "ok", "schema_version": "1",
        }

    def test_unknown_path_is_404(self, server):
        status, _, body = call(server, "GET", "/nope")
        assert status == 404
        assert json.loads(body)["error_code"] == "invalid_request"

    def test_wrong_method_is_405(self, server):
        status, _, _ = call(server, "GET", "/v1/check")
        assert status == 405

    def test_keep_alive_serves_sequential_requests(self, server):
        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
        try:
            for _ in range(3):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()


class TestCheck:
    def test_check_round_trip(self, server):
        status, headers, body = call(
            server, "POST", "/v1/check", body=check_body()
        )
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        record = json.loads(body)
        assert record["schema_version"] == "1"
        assert record["verdict"] == "EQUIVALENT"
        assert 0.9 < record["fidelity"] <= 1.0

    def test_warm_repeat_hits_the_result_cache(self, server):
        call(server, "POST", "/v1/check", body=check_body(epsilon=0.045))
        status, _, body = call(
            server, "POST", "/v1/check", body=check_body(epsilon=0.045)
        )
        assert status == 200
        assert json.loads(body)["stats"]["result_cache_hit"] == 1

    def test_malformed_json_is_400(self, server):
        status, _, body = call(server, "POST", "/v1/check", body=b"{oops")
        assert status == 400
        record = json.loads(body)
        assert record["error_code"] == "invalid_request"
        assert record["verdict"] == "ERROR"

    def test_unknown_field_is_400(self, server):
        status, _, body = call(
            server, "POST", "/v1/check", body=check_body(epsilonn=0.1)
        )
        assert status == 400
        assert json.loads(body)["error_code"] == "unknown_field"

    def test_missing_circuit_is_400(self, server):
        status, _, body = call(
            server, "POST", "/v1/check",
            body=check_body(ideal={"path": "/missing.qasm"}),
        )
        assert status == 400
        assert json.loads(body)["error_code"] == "circuit_load_failed"

    def test_bad_timeout_header_is_400(self, server):
        status, _, body = call(
            server, "POST", "/v1/check", body=check_body(),
            headers={"X-Repro-Timeout": "soon"},
        )
        assert status == 400
        assert json.loads(body)["error_code"] == "invalid_request"


class TestBatch:
    def test_streamed_ndjson_keeps_order_and_isolates_errors(self, server):
        rows = b"\n".join([
            check_body(),
            b'{"bogus_field": 1}',
            check_body(epsilon=0.04),
        ])
        status, headers, body = call(server, "POST", "/v1/batch", body=rows)
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        assert headers.get("Transfer-Encoding") == "chunked"
        records = [json.loads(line) for line in body.splitlines()]
        assert [r["index"] for r in records] == [0, 1, 2]
        assert [r["verdict"] for r in records] == [
            "EQUIVALENT", "ERROR", "EQUIVALENT",
        ]
        assert records[1]["error_code"] == "unknown_field"

    def test_empty_batch_is_400(self, server):
        status, _, body = call(server, "POST", "/v1/batch", body=b"\n\n")
        assert status == 400
        assert json.loads(body)["error_code"] == "invalid_request"


class TestJobs:
    def test_submit_poll_collect_once(self, server):
        status, _, body = call(
            server, "POST", "/v1/jobs", body=check_body()
        )
        assert status == 202
        job = json.loads(body)
        assert job["schema_version"] == "1"
        status, _, body = call(server, "GET", f"/v1/jobs/{job['id']}")
        assert status == 200
        assert json.loads(body)["verdict"] == "EQUIVALENT"
        # collectable exactly once
        status, _, body = call(server, "GET", f"/v1/jobs/{job['id']}")
        assert status == 404
        assert json.loads(body)["error_code"] == "job_not_found"

    def test_unknown_job_is_404(self, server):
        status, _, body = call(server, "GET", "/v1/jobs/job-424242")
        assert status == 404
        assert json.loads(body)["error_code"] == "job_not_found"

    def test_running_job_answers_202(self, server):
        original = server.service.engine.job_state
        server.service.engine.job_state = lambda handle: "running"
        try:
            status, _, body = call(server, "GET", "/v1/jobs/job-77")
            assert status == 202
            assert json.loads(body)["state"] == "running"
        finally:
            server.service.engine.job_state = original

    def test_submit_of_bad_request_is_400(self, server):
        status, _, body = call(server, "POST", "/v1/jobs", body=b"nope")
        assert status == 400


class TestMetricsAndLogs:
    def test_metrics_exposition(self, server):
        call(server, "POST", "/v1/check", body=check_body())
        status, headers, body = call(server, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{method="POST",path="/v1/check"' in text
        assert "# TYPE repro_request_seconds histogram" in text
        assert "repro_request_seconds_bucket" in text
        assert "# TYPE repro_inflight gauge" in text
        assert "# TYPE repro_checks_total counter" in text
        assert "repro_result_cache_hits_total" in text
        assert "repro_planning_seconds_total" in text
        assert "repro_plan_trials_total" in text

    def test_engine_counters_accumulate(self, server):
        _, _, before = call(server, "GET", "/metrics")
        call(server, "POST", "/v1/check", body=check_body())
        _, _, after = call(server, "GET", "/metrics")

        def checks(page):
            for line in page.decode().splitlines():
                if line.startswith("repro_checks_total"):
                    return float(line.split()[-1])
            raise AssertionError("repro_checks_total missing")

        assert checks(after) == checks(before) + 1

    def test_structured_log_lines(self, server):
        call(server, "POST", "/v1/check", body=check_body())
        lines = [
            json.loads(line)
            for line in server.log.getvalue().splitlines()
        ]
        assert lines[0]["event"] == "ready"
        requests = [l for l in lines if l["event"] == "request"]
        checks = [r for r in requests if r["path"] == "/v1/check"]
        assert checks, "no /v1/check log line"
        record = checks[-1]
        assert record["method"] == "POST"
        assert record["status"] == 200
        assert record["wall_ms"] >= 0
        assert len(record["trace_id"]) == 16
        assert "result_cache_hit" in record


def wait_for_log(server, predicate, timeout=5.0):
    """Log lines land after the response drains — poll briefly."""
    deadline = time.time() + timeout
    while True:
        matches = [
            record
            for record in (
                json.loads(line)
                for line in server.log.getvalue().splitlines()
            )
            if predicate(record)
        ]
        if matches or time.time() >= deadline:
            return matches
        time.sleep(0.01)


class TestTracing:
    def test_trace_header_inlines_the_span_tree(self, server):
        status, _, body = call(
            server, "POST", "/v1/check",
            body=check_body(epsilon=0.043),
            headers={"X-Repro-Trace": "1"},
        )
        assert status == 200
        record = json.loads(body)
        tree = record["trace"]
        assert tree["name"] == "engine.request"
        assert len(tree["attrs"]["trace_id"]) == 16
        assert tree["children"]

    def test_no_header_means_no_trace(self, server):
        status, _, body = call(
            server, "POST", "/v1/check", body=check_body(epsilon=0.042)
        )
        assert status == 200
        assert "trace" not in json.loads(body)

    def test_zero_header_value_stays_off(self, server):
        status, _, body = call(
            server, "POST", "/v1/check",
            body=check_body(epsilon=0.041),
            headers={"X-Repro-Trace": "0"},
        )
        assert status == 200
        assert "trace" not in json.loads(body)

    def test_phase_seconds_histogram_is_exported(self, server):
        # a sliced einsum check exercises every phase incl. execute
        status, _, _ = call(
            server, "POST", "/v1/check",
            body=check_body(epsilon=0.047, config={
                "backend": "einsum",
                "max_intermediate_size": 64,
                "slice_batch": 4,
            }),
            headers={"X-Repro-Trace": "1"},
        )
        assert status == 200
        _, _, body = call(server, "GET", "/metrics")
        text = body.decode()
        assert "# TYPE repro_phase_seconds histogram" in text
        assert 'repro_phase_seconds_bucket{phase="execute"' in text
        assert 'repro_phase_seconds_count{phase="plan"' in text

    def test_trace_id_threads_through_the_job_lifecycle(self, server):
        status, _, body = call(
            server, "POST", "/v1/jobs", body=check_body(epsilon=0.046)
        )
        assert status == 202
        job = json.loads(body)
        assert len(job["trace_id"]) == 16
        assert job["id"].startswith(f"job-{job['trace_id']}-")
        status, _, _ = call(server, "GET", f"/v1/jobs/{job['id']}")
        assert status == 200
        collected = wait_for_log(
            server,
            lambda l: l.get("job_id") == job["id"]
            and l.get("status") == 200,
        )
        assert collected
        assert collected[-1]["trace_id"] == job["trace_id"]

    def test_check_log_and_trace_share_one_identity(self, server):
        _, _, body = call(
            server, "POST", "/v1/check",
            body=check_body(epsilon=0.049),
            headers={"X-Repro-Trace": "yes"},
        )
        trace_id = json.loads(body)["trace"]["attrs"]["trace_id"]
        assert wait_for_log(
            server, lambda l: l.get("trace_id") == trace_id
        )


class _GatedEngine(Engine):
    """An engine whose ``respond`` blocks until released — drives the
    saturation and deadline paths deterministically."""

    def __init__(self):
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def respond(self, request):
        self.entered.set()
        assert self.release.wait(timeout=30), "gate never released"
        return super().respond(request)


class TestAdmissionControl:
    def test_saturated_service_answers_503_with_retry_after(self):
        engine = _GatedEngine()
        with ServiceThread(
            engine, log_stream=io.StringIO(), max_inflight=1
        ) as server:
            first = {}

            def occupant():
                first["response"] = call(
                    server, "POST", "/v1/check", body=check_body()
                )

            thread = threading.Thread(target=occupant)
            thread.start()
            assert engine.entered.wait(timeout=10)
            # slot is taken: the next request must be rejected, not queued
            status, headers, body = call(
                server, "POST", "/v1/check", body=check_body()
            )
            assert status == 503
            assert headers["Retry-After"] == "1"
            assert json.loads(body)["error_code"] == "overloaded"
            # cheap endpoints stay responsive under saturation
            assert call(server, "GET", "/healthz")[0] == 200
            assert call(server, "GET", "/metrics")[0] == 200
            engine.release.set()
            thread.join(timeout=30)
            assert first["response"][0] == 200

    def test_deadline_expiry_answers_504_typed_error(self):
        engine = _GatedEngine()
        with ServiceThread(
            engine, log_stream=io.StringIO(), max_inflight=2
        ) as server:
            status, _, body = call(
                server, "POST", "/v1/check", body=check_body(),
                headers={"X-Repro-Timeout": "0.2"},
            )
            assert status == 504
            record = json.loads(body)
            assert record["error_code"] == "deadline_exceeded"
            assert record["verdict"] == "ERROR"
            # the slot is still held by the abandoned thread...
            engine.release.set()
            # ...and the service keeps serving
            deadline = time.time() + 10
            while time.time() < deadline:
                if call(server, "GET", "/healthz")[0] == 200:
                    break
            status, _, _ = call(
                server, "POST", "/v1/check", body=check_body()
            )
            assert status == 200


class TestShutdown:
    def test_stop_drains_and_closes_engine(self):
        engine = Engine()
        log = io.StringIO()
        server = ServiceThread(engine, log_stream=log).start()
        assert call(server, "GET", "/healthz")[0] == 200
        server.stop()
        events = [json.loads(l) for l in log.getvalue().splitlines()]
        assert events[-1]["event"] == "shutdown"
        assert events[-1]["drained"] is True
        with pytest.raises(OSError):
            call(server, "GET", "/healthz")
        server.stop()  # idempotent

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_inflight=0)
        with pytest.raises(ValueError):
            ServiceConfig(request_timeout=0)
