"""The default backend: one ``DEFAULT_BACKEND``, read by every entry point.

A config, CLI command or helper that names no backend must run on
:data:`repro.backends.DEFAULT_BACKEND`, so the CLI, the Engine and the
library never disagree on what "the default" computes.
"""

import inspect

import numpy as np
import pytest

from repro import CheckRequest, CircuitSpec, Engine, NoiseSpec
from repro.backends import DEFAULT_BACKEND, available_backends
from repro.baseline import process_fidelity
from repro.cli import build_parser
from repro.core import (
    CheckSession,
    check_unitary_equivalence,
    fidelity_collective,
    fidelity_individual,
    fidelity_sampled,
)
from repro.library import qft
from repro.noise import insert_random_noise

HELPERS = (
    fidelity_individual,
    fidelity_collective,
    check_unitary_equivalence,
    fidelity_sampled,
)


class TestOneDefault:
    def test_default_is_the_registered_einsum_kernel(self):
        assert DEFAULT_BACKEND == "einsum"
        assert DEFAULT_BACKEND in available_backends()

    def test_session_default(self):
        assert CheckSession().backend.name == DEFAULT_BACKEND

    @pytest.mark.parametrize("command", ["check", "fidelity", "batch"])
    def test_cli_default(self, command):
        args = build_parser().parse_args([command, "ideal.qasm"])
        assert args.backend == DEFAULT_BACKEND

    @pytest.mark.parametrize("helper", HELPERS, ids=lambda f: f.__name__)
    def test_helper_signature_default(self, helper):
        default = inspect.signature(helper).parameters["backend"].default
        assert default == DEFAULT_BACKEND

    def test_helpers_run_on_the_default(self):
        ideal = qft(3)
        noisy = insert_random_noise(ideal, 2, seed=0)
        results = [
            fidelity_individual(noisy, ideal),
            fidelity_collective(noisy, ideal),
            check_unitary_equivalence(ideal, qft(3)),
            fidelity_sampled(noisy, ideal, num_samples=4, seed=0),
        ]
        assert [r.stats.backend for r in results] == [DEFAULT_BACKEND] * 4


class TestDefaultEndToEnd:
    @pytest.mark.parametrize(
        "library, num_qubits",
        [("grover", 3), ("qft", 4), ("bernstein_vazirani", 5)],
    )
    def test_default_engine_fidelity_matches_the_dense_baseline(
        self, library, num_qubits
    ):
        spec = CircuitSpec.from_library(library, num_qubits=num_qubits)
        noise = NoiseSpec(noises=3, seed=11)
        with Engine() as engine:
            response = engine.check(CheckRequest(
                ideal=spec, noise=noise, mode="fidelity",
            ))
        assert response.ok
        assert response.result.backend == "einsum"
        assert response.stats.backend == "einsum"
        assert not response.result.is_lower_bound
        ideal = spec.resolve()
        reference = process_fidelity(noise.apply(ideal), ideal)
        assert np.isclose(response.fidelity, reference, rtol=0, atol=1e-9)
