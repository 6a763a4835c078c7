"""The paper's worked Examples 3, 4 and 5 as executable tests.

Example 3 (Alg I): QFT2 with a bit flip N before the second H and a phase
flip N' after S gives ``tr(U† E_11) = 4p`` and zero for the other three
terms, hence ``F_J = p^2``.

Example 4 (Alg II): the single doubled contraction yields ``16 p^2``.

Example 5: with p = 0.95 and eps = 0.1, the first trace term alone
certifies equivalence (partial sum 0.9025 > 0.9).
"""

import numpy as np
import pytest

from repro.backends import TddBackend
from repro.core import (
    CheckConfig,
    CheckSession,
    alg2_trace_network,
    fidelity_collective,
    fidelity_individual,
)
from oracles import term_network
from tests.conftest import make_noisy_qft2


class TestExample3:
    def test_individual_traces(self, qft2_ideal, qft2_noisy):
        """tr(U† E_11) = 4p; the three other terms vanish."""
        p = 0.9
        traces = []
        for selection in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            net = term_network(qft2_noisy, qft2_ideal, selection)
            traces.append(TddBackend().contract_scalar(net))
        assert np.isclose(traces[0], 4 * p)
        for t in traces[1:]:
            assert np.isclose(t, 0.0, atol=1e-9)

    def test_fidelity_is_p_squared(self, qft2_ideal, qft2_noisy):
        result = fidelity_individual(qft2_noisy, qft2_ideal)
        assert np.isclose(result.fidelity, 0.81, atol=1e-9)
        assert result.stats.terms_total == 4

    @pytest.mark.parametrize("p", [0.5, 0.8, 0.99, 1.0])
    def test_other_parameters(self, qft2_ideal, p):
        noisy = make_noisy_qft2(p)
        result = fidelity_individual(noisy, qft2_ideal)
        assert np.isclose(result.fidelity, p * p, atol=1e-9)


class TestExample4:
    def test_collective_trace_is_16_p_squared(self, qft2_ideal, qft2_noisy):
        p = 0.9
        net = alg2_trace_network(qft2_noisy, qft2_ideal)
        value = TddBackend().contract_scalar(net)
        assert np.isclose(value, 16 * p * p)

    def test_fidelity_matches(self, qft2_ideal, qft2_noisy):
        result = fidelity_collective(qft2_noisy, qft2_ideal)
        assert np.isclose(result.fidelity, 0.81, atol=1e-9)
        assert result.stats.terms_computed == 1


class TestExample5:
    def test_early_termination_certifies(self, qft2_ideal):
        noisy = make_noisy_qft2(0.95)
        result = fidelity_individual(noisy, qft2_ideal, epsilon=0.1)
        assert result.stats.early_stopped
        assert result.stats.terms_computed == 1
        # Partial sum (4 * 0.95)^2 / 16 = 0.9025 > 0.9.
        assert np.isclose(result.fidelity, 0.9025, atol=1e-9)
        assert result.is_lower_bound

    def test_checker_accepts(self, qft2_ideal):
        noisy = make_noisy_qft2(0.95)
        out = CheckSession(CheckConfig(epsilon=0.1)).check(qft2_ideal, noisy)
        assert out.equivalent

    def test_checker_rejects_large_error(self, qft2_ideal):
        noisy = make_noisy_qft2(0.5)  # F_J = 0.25
        out = CheckSession(CheckConfig(epsilon=0.1, algorithm="alg2")).check(
            qft2_ideal, noisy
        )
        assert not out.equivalent
        assert np.isclose(out.fidelity, 0.25, atol=1e-9)
