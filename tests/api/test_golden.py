"""Golden wire-schema fixtures: version-1 payloads pinned byte-stable.

The fixtures under ``tests/api/fixtures`` are the committed contract of
``schema_version == "1"``.  A diff here is a wire-schema change: if it
is additive, regenerate the fixtures (see ``_regenerate``); if it
renames or retypes a field, that is a schema break and needs a version
bump plus back-compat parsing.

Timing fields (wall clocks and per-term timings) are the one sanctioned
instability: they are zeroed before comparison, everything else must
match byte for byte.
"""

import json
from pathlib import Path

from repro import (
    SCHEMA_VERSION,
    CheckRequest,
    CheckResponse,
    CircuitSpec,
    Engine,
    NoiseSpec,
)
from repro.api.errors import CircuitLoadError

FIXTURES = Path(__file__).parent / "fixtures"

#: stats fields a golden comparison zeroes (machine-dependent timings)
TIMING_STATS = {
    "time_seconds": 0.0,
    "cpu_seconds": 0.0,
    "planning_seconds": 0.0,
    "term_times": [],
}


def golden_request() -> CheckRequest:
    return CheckRequest(
        ideal=CircuitSpec.from_library("qft", num_qubits=2),
        noisy=None,
        noise=NoiseSpec(channel="depolarizing", p=0.999, noises=1, seed=0),
        epsilon=0.05,
        mode="check",
        config={"algorithm": "alg2", "backend": "tdd"},
    )


def golden_error_response() -> CheckResponse:
    return CheckResponse.from_error(
        CircuitLoadError(
            "no such file: missing.qasm",
            error_type="FileNotFoundError",
            index=3,
        )
    )


def normalise(record: dict) -> dict:
    record = json.loads(json.dumps(record))  # deep copy, JSON types only
    if "time_seconds" in record:
        record["time_seconds"] = 0.0
    if isinstance(record.get("stats"), dict):
        record["stats"].update(TIMING_STATS)
    return record


def canonical(record: dict) -> str:
    return json.dumps(record, indent=2, sort_keys=False) + "\n"


def load(name: str) -> dict:
    with open(FIXTURES / name) as handle:
        return json.load(handle)


class TestGoldenRequest:
    def test_request_payload_is_byte_stable(self):
        fixture = (FIXTURES / "request_v1.json").read_text()
        assert canonical(golden_request().to_dict()) == fixture

    def test_fixture_parses_back_to_the_request(self):
        assert CheckRequest.from_dict(load("request_v1.json")) == \
            golden_request()

    def test_fixture_declares_current_version(self):
        assert load("request_v1.json")["schema_version"] == SCHEMA_VERSION


class TestGoldenResponse:
    def test_response_payload_is_byte_stable_modulo_timing(self):
        fixture = (FIXTURES / "response_v1.json").read_text()
        response = Engine().check(golden_request())
        assert canonical(normalise(response.to_dict())) == fixture

    def test_fixture_parses_back_losslessly(self):
        record = load("response_v1.json")
        parsed = CheckResponse.from_dict(record)
        assert parsed.ok
        assert canonical(parsed.to_dict()) == canonical(record)

    def test_cli_json_emits_the_same_schema(self, tmp_path, capsys):
        """check --json output == API payload: one schema, not two."""
        from repro.circuits import qasm
        from repro.cli import main
        from repro.library import qft

        path = tmp_path / "qft2.qasm"
        qasm.dump(qft(2), path)
        main([  # the golden request pins the tdd backend
            "check", str(path), "--noises", "1", "--epsilon", "0.05",
            "--algorithm", "alg2", "--backend", "tdd", "--json",
        ])
        record = json.loads(capsys.readouterr().out)
        fixture = load("response_v1.json")
        assert normalise(record) == normalise(fixture)


class TestGoldenError:
    def test_error_payload_is_byte_stable(self):
        fixture = (FIXTURES / "error_v1.json").read_text()
        assert canonical(golden_error_response().to_dict()) == fixture

    def test_fixture_parses_back_to_equal_response(self):
        assert CheckResponse.from_dict(load("error_v1.json")) == \
            golden_error_response()


def _regenerate():  # pragma: no cover - maintenance hook
    """Rewrite the fixtures from the current schema (run by hand)."""
    (FIXTURES / "request_v1.json").write_text(
        canonical(golden_request().to_dict())
    )
    (FIXTURES / "response_v1.json").write_text(
        canonical(normalise(Engine().check(golden_request()).to_dict()))
    )
    (FIXTURES / "error_v1.json").write_text(
        canonical(golden_error_response().to_dict())
    )


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
