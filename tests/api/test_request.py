"""Unit tests for the wire-schema request types."""

import json

import pytest

from repro import CheckConfig, CheckRequest, CircuitSpec, NoiseSpec, qft
from repro.api import (
    CONFIG_OVERRIDE_FIELDS,
    CircuitLoadError,
    CircuitSpecError,
    ConfigError,
    InvalidRequestError,
    NoiseSpecError,
    SchemaVersionError,
    UnknownFieldError,
)
from repro.circuits import qasm


class TestCircuitSpec:
    def test_exactly_one_source_required(self):
        with pytest.raises(CircuitSpecError):
            CircuitSpec()
        with pytest.raises(CircuitSpecError):
            CircuitSpec(qasm="x", path="y")
        with pytest.raises(CircuitSpecError):
            CircuitSpec(circuit=qft(2), path="y")

    def test_params_only_with_library(self):
        with pytest.raises(CircuitSpecError):
            CircuitSpec(qasm="x", params={"n": 1})

    def test_inline_resolves(self):
        text = qasm.dumps(qft(2))
        circuit = CircuitSpec.inline(text).resolve()
        assert circuit.num_qubits == 2

    def test_path_resolves(self, tmp_path):
        path = tmp_path / "c.qasm"
        qasm.dump(qft(3), path)
        assert CircuitSpec.from_path(path).resolve().num_qubits == 3

    def test_library_resolves_with_params(self):
        spec = CircuitSpec.from_library("qft", num_qubits=4)
        assert spec.resolve().num_qubits == 4

    def test_unknown_library_lists_choices(self):
        with pytest.raises(CircuitSpecError, match="qft"):
            CircuitSpec.from_library("nope").resolve()

    def test_missing_file_is_typed_load_error(self):
        with pytest.raises(CircuitLoadError) as err:
            CircuitSpec.from_path("/definitely/missing.qasm").resolve()
        assert err.value.code == "circuit_load_failed"
        assert err.value.error_type == "FileNotFoundError"

    def test_bad_library_params_are_typed(self):
        with pytest.raises(CircuitLoadError):
            CircuitSpec.from_library("qft", bogus_kwarg=1).resolve()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(UnknownFieldError):
            CircuitSpec.from_dict({"qasm": "x", "bogus": 1})

    def test_circuit_backed_spec_serialises_as_qasm(self):
        spec = CircuitSpec.from_circuit(qft(2))
        wire = spec.to_dict()
        assert set(wire) == {"qasm"}
        assert qasm.loads(wire["qasm"]).num_qubits == 2

    def test_specs_are_hashable_and_equal_by_content(self):
        a = CircuitSpec.from_library("qft", num_qubits=3)
        b = CircuitSpec.from_library("qft", num_qubits=3)
        assert a == b
        assert hash(a) == hash(b)


class TestNoiseSpec:
    def test_unknown_channel_lists_choices(self):
        with pytest.raises(NoiseSpecError, match="depolarizing"):
            NoiseSpec(channel="nonsense")

    def test_noises_and_every_gate_conflict(self):
        with pytest.raises(NoiseSpecError):
            NoiseSpec(noises=2, every_gate=True)

    def test_apply_matches_insert_random_noise(self):
        from repro import insert_random_noise

        ideal = qft(3)
        spec = NoiseSpec(noises=2, seed=7)
        direct = insert_random_noise(ideal, 2, seed=7)
        applied = spec.apply(ideal)
        assert applied.num_noise_sites == direct.num_noise_sites == 2

    def test_apply_every_gate(self):
        noisy = NoiseSpec(every_gate=True).apply(qft(2))
        assert noisy.num_noise_sites > 0

    def test_placement_required(self):
        """Regression: a channel with nowhere to go must be rejected,
        not silently no-op into an EQUIVALENT verdict."""
        with pytest.raises(NoiseSpecError, match="placement"):
            NoiseSpec()
        with pytest.raises(NoiseSpecError, match="placement"):
            NoiseSpec.from_dict({"channel": "depolarizing", "p": 0.9})


class TestCheckRequest:
    def request(self, **kwargs):
        defaults = dict(
            ideal=CircuitSpec.from_library("qft", num_qubits=2),
            noise=NoiseSpec(noises=1, seed=0),
            epsilon=0.05,
        )
        defaults.update(kwargs)
        return CheckRequest(**defaults)

    def test_parse_serialise_identity(self):
        request = self.request(config={"backend": "einsum"})
        wire = request.to_dict()
        parsed = CheckRequest.from_dict(json.loads(json.dumps(wire)))
        assert parsed == request
        assert parsed.to_dict() == wire

    def test_bad_schema_version_rejected(self):
        wire = self.request().to_dict()
        wire["schema_version"] = "99"
        with pytest.raises(SchemaVersionError) as err:
            CheckRequest.from_dict(wire)
        assert err.value.code == "unsupported_schema_version"

    def test_absent_schema_version_defaults_to_current(self):
        wire = self.request().to_dict()
        del wire["schema_version"]
        assert CheckRequest.from_dict(wire) == self.request()

    def test_unknown_top_level_field_rejected(self):
        wire = self.request().to_dict()
        wire["epsilonn"] = 0.1
        with pytest.raises(UnknownFieldError) as err:
            CheckRequest.from_dict(wire)
        assert err.value.code == "unknown_field"
        assert "epsilonn" in str(err.value)
        assert err.value.details["unknown"] == ["epsilonn"]

    def test_missing_ideal_rejected(self):
        with pytest.raises(InvalidRequestError):
            CheckRequest.from_dict({"epsilon": 0.1})

    def test_epsilon_validated_at_construction(self):
        with pytest.raises(InvalidRequestError):
            self.request(epsilon=1.5)

    def test_non_numeric_epsilon_is_typed_not_a_bare_valueerror(self):
        """Regression: float('oops') must not escape the taxonomy."""
        for bad in ("oops", [0.1], True):
            with pytest.raises(InvalidRequestError):
                CheckRequest.from_dict({
                    "ideal": {"library": "qft"}, "epsilon": bad,
                })
        # an explicit null means "use the default", not an error
        parsed = CheckRequest.from_dict(
            {"ideal": {"library": "qft"}, "epsilon": None}
        )
        assert parsed.epsilon == 0.01

    def test_non_string_mode_is_typed(self):
        with pytest.raises(InvalidRequestError):
            CheckRequest.from_dict({"ideal": {"library": "qft"}, "mode": 5})

    def test_unhashable_config_values_are_typed(self):
        """Regression: a JSON list override must not become a memo-dict
        TypeError deep inside the engine."""
        with pytest.raises(InvalidRequestError, match="hashable"):
            self.request(config={"max_intermediate_size": [64]})
        with pytest.raises(InvalidRequestError, match="hashable"):
            CheckRequest.from_dict({
                "ideal": {"library": "qft"},
                "config": {"max_intermediate_size": [64]},
            })

    def test_unhashable_library_params_are_typed(self):
        with pytest.raises(CircuitSpecError, match="hashable"):
            CircuitSpec.from_dict({"library": "qft", "params": {"n": [1]}})

    def test_mode_validated(self):
        with pytest.raises(InvalidRequestError, match="fidelity"):
            self.request(mode="bogus")

    def test_engine_owned_config_keys_rejected(self):
        # cache_url/workers: a wire request must never be able to point
        # computation or cache traffic at an attacker's host
        for key in ("epsilon", "cache", "cache_dir", "cache_url", "workers"):
            with pytest.raises(InvalidRequestError, match="Engine-owned|top-level"):
                self.request(config={key: 1})

    def test_unknown_config_override_lists_valid_fields(self):
        with pytest.raises(InvalidRequestError) as err:
            self.request(config={"bogus_knob": 1})
        for name in ("backend", "algorithm", "order_method"):
            assert name in str(err.value)

    def test_removed_planner_override_is_invalid_request(self):
        # ``planner`` was folded into ``order_method``; the typed error's
        # valid-override list points at the surviving knob
        wire = self.request().to_dict()
        wire["config"] = {"planner": "greedy"}
        with pytest.raises(InvalidRequestError) as err:
            CheckRequest.from_dict(json.loads(json.dumps(wire)))
        assert err.value.code == "invalid_request"
        assert "order_method" in err.value.details["valid"]
        assert "planner" not in err.value.details["valid"]

    @pytest.mark.parametrize(
        "removed", ["tree_decomposition", "hyper", "sequential", "greedy"]
    )
    def test_removed_tree_decomposition_is_invalid_request(self, removed):
        # the ``tree_decomposition`` order method was folded into
        # ``min_fill``, and the ``hyper`` search and the ``sequential``
        # and ``greedy`` planners were deleted; there is no alias, so the
        # wire value is rejected with the typed config error listing the
        # surviving choices
        from repro import Engine
        from repro.tensornet import ORDER_METHODS

        wire = self.request().to_dict()
        wire["config"] = {"order_method": removed}
        request = CheckRequest.from_dict(json.loads(json.dumps(wire)))
        with pytest.raises(ConfigError) as err:
            request.resolve_config()
        assert isinstance(err.value, InvalidRequestError)
        assert str(list(ORDER_METHODS)) in str(err.value)
        assert removed not in ORDER_METHODS
        response = Engine().respond(request)
        assert response.verdict == "ERROR"
        assert response.error_code == "invalid_config"

    def test_config_override_fields_track_check_config(self):
        import dataclasses

        names = {f.name for f in dataclasses.fields(CheckConfig)}
        assert set(CONFIG_OVERRIDE_FIELDS) == names - {
            "epsilon", "cache", "cache_dir", "cache_url", "workers"
        }

    def test_resolve_config_applies_overrides(self):
        config = self.request(
            config={"backend": "einsum", "order_method": "anneal"}
        ).resolve_config()
        assert config.backend == "einsum"
        assert config.order_method == "anneal"
        assert config.epsilon == 0.05

    def test_resolve_config_bad_value_is_typed(self):
        request = self.request(config={"backend": "warp-drive"})
        with pytest.raises(ConfigError) as err:
            request.resolve_config()
        # the message carries the valid choices (satellite requirement)
        assert "tdd" in str(err.value)

    def test_base_merge_row_wins(self):
        base = self.request(config={"backend": "einsum"})
        row = {"epsilon": 0.2, "config": {"backend": "dense"}}
        merged = CheckRequest.from_dict(row, base=base)
        assert merged.epsilon == 0.2
        assert dict(merged.config)["backend"] == "dense"
        assert merged.ideal == base.ideal
        assert merged.noise == base.noise

    def test_base_merge_explicit_null_clears_noise(self):
        base = self.request()
        merged = CheckRequest.from_dict({"noise": None}, base=base)
        assert merged.noise is None

    def test_null_scalars_inherit_base_not_schema_default(self):
        """Regression: `"epsilon": null` must not silently reset an
        operator's CLI flag to 0.01."""
        base = self.request(epsilon=0.2, mode="fidelity")
        merged = CheckRequest.from_dict(
            {"epsilon": None, "mode": None}, base=base
        )
        assert merged.epsilon == 0.2
        assert merged.mode == "fidelity"

    def test_random_library_specs_require_a_seed(self):
        """Regression: a seedless random generator would resolve to a
        different circuit per process, breaking fingerprints."""
        for name in ("quantum_volume", "randomized_benchmarking"):
            with pytest.raises(CircuitSpecError, match="seed"):
                CircuitSpec.from_library(name, num_qubits=2)
        spec = CircuitSpec.from_library("quantum_volume", num_qubits=2,
                                        seed=5)
        assert spec.resolve().num_qubits == 2

    def test_noise_p_type_validated(self):
        with pytest.raises(NoiseSpecError, match="number"):
            NoiseSpec(p="0.9")

    def test_noise_placement_types_validated(self):
        """Regression: bool('false') is True — string booleans and
        string seeds must be rejected, not silently coerced."""
        with pytest.raises(NoiseSpecError, match="boolean"):
            NoiseSpec(every_gate="false")
        with pytest.raises(NoiseSpecError, match="integer"):
            NoiseSpec(seed="7")
        with pytest.raises(NoiseSpecError, match="integer"):
            NoiseSpec(noises=True)

    def test_resolve_circuits_failures_are_typed(self):
        request = CheckRequest(
            ideal=CircuitSpec.from_path("/definitely/missing.qasm")
        )
        with pytest.raises(CircuitLoadError):
            request.resolve_circuits()

    def test_resolve_circuits_applies_noise(self):
        ideal, noisy = self.request().resolve_circuits()
        assert ideal.num_noise_sites == 0
        assert noisy.num_noise_sites == 1

    def test_requests_hash_and_compare_by_content(self):
        assert self.request() == self.request()
        assert hash(self.request()) == hash(self.request())

    def test_from_json_rejects_garbage(self):
        with pytest.raises(InvalidRequestError):
            CheckRequest.from_json("{not json")
