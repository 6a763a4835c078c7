"""Unit tests for the wire-schema response types and error taxonomy."""

import json
import pickle

import pytest

from repro import SCHEMA_VERSION, CheckResponse, Verdict
from repro.api import (
    ERROR_CODES,
    CheckFailedError,
    CircuitLoadError,
    ReproError,
    SchemaVersionError,
    error_from_code,
)
from repro.core import CheckResult, RunStats


def sample_result(equivalent=True):
    return CheckResult(
        equivalent=equivalent,
        epsilon=0.05,
        fidelity=0.999 if equivalent else 0.5,
        is_lower_bound=False,
        stats=RunStats(algorithm="alg2", backend="tdd", max_nodes=7),
        algorithm="alg2",
        backend="tdd",
    )


class TestErrorTaxonomy:
    def test_every_code_maps_back_to_its_class(self):
        for code, cls in ERROR_CODES.items():
            assert error_from_code(code, "msg").code == code
            assert isinstance(error_from_code(code, "msg"), cls)

    def test_unknown_code_degrades_to_base(self):
        error = error_from_code("from_the_future", "msg")
        assert type(error) is ReproError
        assert error.code == "from_the_future"

    def test_wrap_keeps_repro_errors_and_adopts_others(self):
        typed = CircuitLoadError("gone")
        assert CheckFailedError.wrap(typed) is typed
        adopted = CheckFailedError.wrap(ValueError("boom"), index=2)
        assert adopted.code == "check_failed"
        assert adopted.error_type == "ValueError"
        assert adopted.index == 2

    def test_structural_equality(self):
        a = CircuitLoadError("gone", error_type="OSError", index=1)
        b = CircuitLoadError("gone", error_type="OSError", index=1)
        assert a == b and hash(a) == hash(b)
        assert a != CircuitLoadError("gone", error_type="OSError", index=2)

    def test_to_dict_is_wire_schema(self):
        record = CircuitLoadError("gone").to_dict()
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["verdict"] == "ERROR"
        assert record["error_code"] == "circuit_load_failed"


class TestCheckResponse:
    def test_exactly_one_of_result_or_error(self):
        with pytest.raises(ValueError):
            CheckResponse(verdict=Verdict.EQUIVALENT)
        with pytest.raises(ValueError):
            CheckResponse(
                verdict=Verdict.ERROR,
                result=sample_result(),
                error=ReproError("x"),
            )

    def test_success_wire_matches_check_result(self):
        result = sample_result()
        response = CheckResponse.from_result(result)
        assert response.ok
        assert response.verdict == Verdict.EQUIVALENT
        assert response.to_dict() == result.to_dict()
        assert response.to_dict()["schema_version"] == SCHEMA_VERSION

    def test_not_equivalent_verdict(self):
        response = CheckResponse.from_result(sample_result(False))
        assert response.verdict == Verdict.NOT_EQUIVALENT
        assert not response.equivalent

    def test_success_roundtrip_identity(self):
        response = CheckResponse.from_result(sample_result())
        parsed = CheckResponse.from_json(response.to_json())
        assert parsed == response
        assert parsed.to_dict() == response.to_dict()

    def test_indexed_responses_roundtrip(self):
        """Regression: stream responses (index set) must survive the
        wire — success and error alike."""
        for response in (
            CheckResponse.from_result(sample_result(), index=3),
            CheckResponse.from_error(ReproError("boom"), index=4),
        ):
            parsed = CheckResponse.from_json(response.to_json())
            assert parsed == response
            assert parsed.index == response.index
        # standalone success records still omit the field
        assert "index" not in CheckResponse.from_result(
            sample_result()
        ).to_dict()

    def test_error_roundtrip_identity(self):
        error = CircuitLoadError(
            "gone", error_type="FileNotFoundError", index=4
        )
        response = CheckResponse.from_error(error)
        parsed = CheckResponse.from_dict(json.loads(response.to_json()))
        assert parsed == response
        assert parsed.error_code == "circuit_load_failed"
        assert parsed.error.error_type == "FileNotFoundError"
        assert parsed.index == 4

    def test_bad_schema_version_rejected(self):
        record = CheckResponse.from_result(sample_result()).to_dict()
        record["schema_version"] = "0"
        with pytest.raises(SchemaVersionError):
            CheckResponse.from_dict(record)

    def test_missing_required_fields_are_typed(self):
        """Regression: a truncated peer record must raise ReproError,
        not a bare KeyError."""
        with pytest.raises(ReproError, match="epsilon"):
            CheckResponse.from_dict(
                {"schema_version": "1", "equivalent": True}
            )

    def test_raise_for_error(self):
        ok = CheckResponse.from_result(sample_result())
        assert ok.raise_for_error() is ok
        with pytest.raises(CircuitLoadError):
            CheckResponse.from_error(CircuitLoadError("gone")).raise_for_error()

    def test_check_failed_wire_carries_schema_code_and_index(self):
        """The record a pool worker's failure becomes on the wire."""
        response = CheckResponse.from_error(
            CheckFailedError("boom", error_type="ValueError"), index=5
        )
        record = response.to_dict()
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["verdict"] == "ERROR"
        assert record["error_code"] == "check_failed"
        assert record["error_type"] == "ValueError"
        assert record["index"] == 5
        parsed = CheckResponse.from_dict(record)
        assert isinstance(parsed.error, CheckFailedError)
        assert parsed == response

    def test_responses_pickle(self):
        for response in (
            CheckResponse.from_result(sample_result(), index=1),
            CheckResponse.from_error(CircuitLoadError("gone"), index=2),
        ):
            clone = pickle.loads(pickle.dumps(response))
            assert clone == response
