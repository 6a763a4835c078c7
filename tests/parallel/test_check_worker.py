"""Unit tests for the batch worker entry point (``run_check_item``).

The Engine's pool ships each check to ``run_check_item``; these call it
in-process, so they pin its contract without starting a pool.
"""

import pickle

import numpy as np
import pytest

from repro.core import CheckConfig, CheckResult, CheckSession
from repro.library import qft
from repro.noise import insert_random_noise
from repro.parallel import worker
from repro.parallel.worker import run_check_item, session_for_config


@pytest.fixture(autouse=True)
def fresh_worker_sessions(monkeypatch):
    """Keep the module-global session memo from leaking between tests."""
    monkeypatch.setattr(worker, "_WORKER_SESSIONS", {})


def pair(seed=0):
    ideal = qft(3)
    return ideal, insert_random_noise(ideal, 2, seed=seed)


class TestRunCheckItem:
    def test_success_returns_result_and_no_error(self):
        config = CheckConfig(epsilon=0.05)
        ideal, noisy = pair()
        result, error = run_check_item(config, ideal, noisy, "check")
        assert error is None
        assert isinstance(result, CheckResult)
        direct = CheckSession(config).check(ideal, noisy)
        assert result.equivalent == direct.equivalent
        assert np.isclose(result.fidelity, direct.fidelity, atol=1e-12)
        # the pair travels back over the pool's pickle transport
        clone, _ = pickle.loads(pickle.dumps((result, error)))
        assert clone.fidelity == result.fidelity

    def test_raising_check_is_returned_not_raised(self):
        result, error = run_check_item(
            CheckConfig(epsilon=0.05), qft(2), qft(3), "check"
        )
        assert result is None
        assert error == (
            "ValueError", "circuits must have the same number of qubits"
        )

    def test_unknown_mode_is_an_isolated_failure(self):
        ideal, noisy = pair()
        result, (error_type, message) = run_check_item(
            CheckConfig(epsilon=0.05), ideal, noisy, "psychic"
        )
        assert result is None
        assert error_type == "ValueError"
        assert message.startswith("unknown run mode 'psychic'")

    def test_fidelity_mode_matches_session_run(self):
        config = CheckConfig(epsilon=0.05)
        ideal, noisy = pair(seed=1)
        result, error = run_check_item(config, ideal, noisy, "fidelity")
        assert error is None
        direct = CheckSession(config).run(ideal, noisy, "fidelity")
        assert not result.is_lower_bound
        assert np.isclose(result.fidelity, direct.fidelity, atol=1e-12)

    def test_worker_reuses_one_session_per_config(self):
        config = CheckConfig(epsilon=0.05, backend="tdd", algorithm="alg2")
        ideal, noisy = pair()
        run_check_item(config, ideal, noisy, "check")
        session = session_for_config(config)
        manager = session.backend.manager
        assert manager is not None  # warmed by the first item
        run_check_item(config, *pair(seed=1), "check")
        assert session_for_config(config) is session
        assert session.backend.manager is manager
        other = CheckConfig(epsilon=0.05, backend="einsum")
        assert session_for_config(other) is not session
