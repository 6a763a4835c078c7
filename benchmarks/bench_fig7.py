"""Fig. 7 benchmark: Alg I vs Alg II as the number of noises grows.

The paper's Fig. 7 plots log(t1/t2) against the noise count for bv3-5 and
qft3-5: Algorithm I wins at one noise, Algorithm II wins as noises
accumulate, with the log-ratio growing roughly linearly.  These cases
time both algorithms at the sweep's end points; the report script
produces the full series.  Both algorithms run on the paper's ``tdd``
backend, whatever the library default.

Run: ``pytest benchmarks/bench_fig7.py --benchmark-only``
Full series: ``python benchmarks/report_fig7.py``
"""

from __future__ import annotations

import pytest

from repro.core import fidelity_collective, fidelity_individual
from repro.noise import depolarizing, insert_random_noise

from _common import NOISE_P, NOISE_SEED, fig7_workloads

CIRCUITS = sorted(fig7_workloads())
NOISE_COUNTS = [1, 3]


def _pair(name: str, k: int):
    build = fig7_workloads()[name]
    ideal = build()
    noisy = insert_random_noise(
        ideal, k,
        channel_factory=lambda: depolarizing(NOISE_P),
        seed=NOISE_SEED,
    )
    return ideal, noisy


@pytest.mark.parametrize("name", CIRCUITS)
@pytest.mark.parametrize("k", NOISE_COUNTS)
def test_alg1_noise_scaling(benchmark, name, k):
    """t1: Algorithm I, full enumeration (4^k terms)."""
    ideal, noisy = _pair(name, k)
    result = benchmark(fidelity_individual, noisy, ideal, backend="tdd")
    assert result.stats.terms_computed == 4**k


@pytest.mark.parametrize("name", CIRCUITS)
@pytest.mark.parametrize("k", NOISE_COUNTS)
def test_alg2_noise_scaling(benchmark, name, k):
    """t2: Algorithm II, one doubled contraction regardless of k."""
    ideal, noisy = _pair(name, k)
    result = benchmark(fidelity_collective, noisy, ideal, backend="tdd")
    assert result.stats.terms_computed == 1
