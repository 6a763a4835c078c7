"""The Engine's noise-placement memo: a warm p-sweep hit costs O(noises).

A request's noise is placed once per (base circuit spec, noise spec
without ``p``) and then filled with one channel per request.  A warm
hit must therefore build one channel and its k noise instructions, and
key the miter template without re-reading a gate matrix.  Requests that
differ in where the noise goes must miss, and specs that can change
under the Engine (live circuits, files) are never memoised.
"""

import dataclasses

import pytest

from repro import (
    CheckConfig,
    CheckRequest,
    CheckSession,
    CircuitSpec,
    Engine,
    NoiseSpec,
)
from repro import trace as T
from repro.api import request as request_module
from repro.api.errors import CircuitLoadError
from repro.cache.fingerprint import circuit_fingerprint
from repro.circuits import Instruction, qasm
from repro.core import miter
from repro.gates import Gate
from repro.library import qft
from repro.noise import bit_flip, depolarizing, model

#: traced, so every request of a test shares one session (and template memo)
SWEEP_CONFIG = {"backend": "einsum", "algorithm": "alg2", "trace": True}


def sweep_request(p, library="qft", noises=6, **params):
    return CheckRequest(
        ideal=CircuitSpec.from_library(library, **params),
        noise=NoiseSpec(noises=noises, seed=2021, p=p),
        config=SWEEP_CONFIG,
    )


def traced(engine, request):
    """(response, placement_hit, template_hit) of one request."""
    recorder = T.TraceRecorder()
    with T.recording(recorder):
        response = engine.check(request)
    (resolve,) = [s for s in recorder.spans if s.name == "request.resolve"]
    (build,) = [s for s in recorder.spans if s.name == "network.build"]
    return (
        response,
        resolve.attributes.get("placement_hit"),
        build.attributes["template_hit"],
    )


def fresh_fidelity(request):
    """The request's fidelity from ``resolve_circuits`` and a new session."""
    ideal, noisy = request.resolve_circuits()
    config = request.resolve_config(CheckConfig())
    return CheckSession(config).run(ideal, noisy, request.mode).fidelity


class TestWarmHitIsONoises:
    @pytest.mark.parametrize(
        "library, params, noises",
        [("qft", {"num_qubits": 7}, 6),
         ("bernstein_vazirani", {"num_qubits": 16}, 9)],
    )
    def test_counts(self, monkeypatch, library, params, noises):
        engine = Engine()
        for p in (0.99, 0.98):  # warm the placement and the template
            engine.check(sweep_request(p, library, noises, **params))

        counts = {"channels": 0, "instructions": 0, "placements": 0,
                  "matrix_reads": 0}
        depolarizing = request_module.CHANNELS["depolarizing"]

        def channel(p):
            counts["channels"] += 1
            return depolarizing(p)

        monkeypatch.setitem(request_module.CHANNELS, "depolarizing", channel)
        post_init = Instruction.__post_init__

        def counted_post_init(self):
            counts["instructions"] += 1
            post_init(self)

        monkeypatch.setattr(Instruction, "__post_init__", counted_post_init)

        def never(*args, **kwargs):
            counts["placements"] += 1
            raise AssertionError("a warm hit placed the noise again")

        monkeypatch.setattr(model, "insert_random_noise", never)
        monkeypatch.setattr(model.NoiseModel, "apply", never)

        keying = {"inside": False}
        key = miter.miter_key

        def watched_key(*args, **kwargs):
            keying["inside"] = True
            try:
                return key(*args, **kwargs)
            finally:
                keying["inside"] = False

        def attribute(self, name):
            if name == "matrix" and keying["inside"]:
                counts["matrix_reads"] += 1
            return object.__getattribute__(self, name)

        monkeypatch.setattr(miter, "miter_key", watched_key)
        monkeypatch.setattr(Gate, "__getattribute__", attribute)

        request = sweep_request(0.97, library, noises, **params)
        response, placement_hit, template_hit = traced(engine, request)
        monkeypatch.undo()

        assert placement_hit is True and template_hit is True
        assert counts == {"channels": 1, "instructions": noises,
                          "placements": 0, "matrix_reads": 0}
        assert repr(response.fidelity) == repr(fresh_fidelity(request))


class TestMissSeparation:
    BASE = NoiseSpec(noises=2, seed=3, p=0.95)

    @pytest.mark.parametrize(
        "change",
        [{"seed": 4}, {"channel": "bit_flip"}, {"noises": 3},
         {"noises": None, "every_gate": True}],
        ids=["seed", "channel", "noises", "every_gate"],
    )
    def test_each_field_resolves_its_own_placement(self, change):
        engine = Engine()
        ideal = CircuitSpec.from_library("qft", num_qubits=3)
        first = CheckRequest(ideal=ideal, noise=self.BASE,
                             config=SWEEP_CONFIG)
        second = dataclasses.replace(
            first, noise=dataclasses.replace(self.BASE, **change)
        )
        for request in (first, second):
            response, placement_hit, _ = traced(engine, request)
            assert placement_hit is False
            assert repr(response.fidelity) == repr(fresh_fidelity(request))
        # each placement is now warm under its own key
        for request in (first, second):
            assert traced(engine, request)[1] is True

    def test_a_mutated_live_circuit_changes_the_answer(self):
        engine = Engine()
        noisy = qft(3)
        request = CheckRequest(
            ideal=CircuitSpec.from_library("qft", num_qubits=3),
            noisy=CircuitSpec.from_circuit(noisy),
            noise=NoiseSpec(noises=2, seed=0, p=0.99),
            config=SWEEP_CONFIG,
        )
        before, placement_hit, _ = traced(engine, request)
        assert placement_hit is False
        noisy.rz(0.5, 1)
        after, placement_hit, _ = traced(engine, request)
        assert placement_hit is False
        assert after.fidelity != before.fidelity
        assert repr(after.fidelity) == repr(fresh_fidelity(request))

    def test_a_rewritten_file_changes_the_answer(self, tmp_path):
        engine = Engine()
        path = tmp_path / "noisy.qasm"
        qasm.dump(qft(3), str(path))
        request = CheckRequest(
            ideal=CircuitSpec.from_library("qft", num_qubits=3),
            noisy=CircuitSpec.from_path(path),
            noise=NoiseSpec(noises=2, seed=0, p=0.99),
            config=SWEEP_CONFIG,
        )
        before, placement_hit, _ = traced(engine, request)
        assert placement_hit is False
        qasm.dump(qft(3).rz(0.5, 1), str(path))
        after, placement_hit, _ = traced(engine, request)
        assert placement_hit is False
        assert after.fidelity != before.fidelity
        assert repr(after.fidelity) == repr(fresh_fidelity(request))


class TestTypedErrorsOnAWarmPlacement:
    @pytest.mark.parametrize("p", [1.5, -0.1])
    def test_bad_p_is_circuit_load_failed(self, p):
        engine = Engine()
        engine.check(sweep_request(0.99, num_qubits=3))
        bad = sweep_request(p, num_qubits=3)
        response = engine.respond(bad)
        assert response.verdict == "ERROR"
        assert response.error_code == "circuit_load_failed"
        with pytest.raises(CircuitLoadError) as err:
            engine.check(bad)
        assert err.value.code == "circuit_load_failed"
        # the placement stays warm and good requests still answer
        response, placement_hit, _ = traced(
            engine, sweep_request(0.98, num_qubits=3)
        )
        assert response.ok and placement_hit is True


@pytest.mark.parametrize("every_gate", [False, True])
def test_place_then_fill_matches_the_library_noise_functions(every_gate):
    """The placement path lays noise exactly where ``insert_random_noise``
    and a ``NoiseModel`` default error put it, with the same channel data."""
    ideal = qft(4)
    if every_gate:
        spec = NoiseSpec(every_gate=True, p=0.97, channel="bit_flip")
        direct = model.NoiseModel().set_default_error(
            lambda: bit_flip(0.97)
        ).apply(ideal)
    else:
        spec = NoiseSpec(noises=4, seed=5, p=0.97)
        direct = model.insert_random_noise(
            ideal, 4, channel_factory=lambda: depolarizing(0.97), seed=5
        )
    filled = spec.apply(ideal)
    assert [(i.name, i.qubits) for i in filled] == [
        (i.name, i.qubits) for i in direct
    ]
    assert circuit_fingerprint(filled) == circuit_fingerprint(direct)
    assert filled.noise_slots() == spec.placement(ideal).slots
