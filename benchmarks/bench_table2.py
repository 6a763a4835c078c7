"""Table II benchmark: Alg I with vs without the shared computed table.

The paper's Table II measures the saving from keeping one computed table
across all of Algorithm I's trace terms (bv3-5, 1-8 noises).  Each case
here benchmarks one (circuit, noise-count, table-mode) cell at a reduced
noise range so the suite stays quick; the report script sweeps 1..8.

Run: ``pytest benchmarks/bench_table2.py --benchmark-only``
Full table: ``python benchmarks/report_table2.py``
"""

from __future__ import annotations

import pytest

from repro.backends import get_backend
from repro.core import fidelity_individual
from repro.noise import depolarizing, insert_random_noise

from _common import NOISE_P, NOISE_SEED, table2_workloads

CIRCUITS = sorted(table2_workloads())
NOISE_COUNTS = [1, 2, 3]


def _run(noisy, ideal, shared: bool):
    """Alg I on a fresh TDD backend with or without shared tables."""
    backend = get_backend("tdd", share_computed_table=shared)
    return fidelity_individual(noisy, ideal, backend=backend)


def _noisy(name: str, k: int):
    build = table2_workloads()[name]
    return insert_random_noise(
        build(), k,
        channel_factory=lambda: depolarizing(NOISE_P),
        seed=NOISE_SEED,
    )


@pytest.mark.parametrize("name", CIRCUITS)
@pytest.mark.parametrize("k", NOISE_COUNTS)
def test_alg1_with_computed_table(benchmark, name, k):
    """'Opt.' column: one shared TDD manager across all trace terms."""
    build = table2_workloads()[name]
    ideal = build()
    noisy = _noisy(name, k)
    result = benchmark(_run, noisy, ideal, True)
    assert result.stats.terms_computed == 4**k


@pytest.mark.parametrize("name", CIRCUITS)
@pytest.mark.parametrize("k", NOISE_COUNTS)
def test_alg1_without_computed_table(benchmark, name, k):
    """'Ori.' column: a fresh manager (cold caches) for every term."""
    build = table2_workloads()[name]
    ideal = build()
    noisy = _noisy(name, k)
    result = benchmark(_run, noisy, ideal, False)
    assert result.stats.terms_computed == 4**k
