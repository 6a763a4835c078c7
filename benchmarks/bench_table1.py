"""Table I benchmark: baseline vs Algorithm II vs Algorithm I.

Each pytest-benchmark case times one (circuit, method) cell of the paper's
Table I.  Cells the paper reports as MO (dense baseline beyond 6 qubits)
or TO (Alg I with many noises) are skipped with an explanatory reason —
exactly the cells our report script marks MO/TO.  Both algorithms run
on the paper's ``tdd`` backend and contract the paper's unshrunk
networks (``use_local_optimisations=False``), whatever the library
defaults.

Run: ``pytest benchmarks/bench_table1.py --benchmark-only``
Full table: ``python benchmarks/report_table1.py``
"""

from __future__ import annotations

import pytest

from repro.baseline import PAPER_MEMORY_BYTES, process_fidelity
from repro.core import fidelity_collective, fidelity_individual

from _common import TABLE1_BY_NAME

#: Subset of rows benchmarked per method, chosen to keep the suite fast
#: while spanning the qubit range (the report script runs all 21 rows).
BASELINE_ROWS = ["rb2", "qft2", "qft3", "bv4", "7x1mod15", "bv5"]
ALG2_ROWS = [
    "rb2", "qft2", "grover3", "qft3", "bv4", "7x1mod15", "bv5", "qft5",
    "bv6", "qft7", "bv9", "bv13", "bv16",
]
ALG1_ROWS = ["qft2", "qv_n3d5", "7x1mod15", "qft5", "bv13"]


@pytest.mark.parametrize("name", BASELINE_ROWS)
def test_baseline(benchmark, name):
    """Dense Qiskit-style process_fidelity (Table I 'Qiskit' column)."""
    workload = TABLE1_BY_NAME[name]
    ideal = workload.ideal()
    noisy = workload.noisy()
    value = benchmark(
        process_fidelity, noisy, ideal,
        memory_limit_bytes=PAPER_MEMORY_BYTES,
    )
    assert 0.0 <= value <= 1.0


@pytest.mark.parametrize("name", ALG2_ROWS)
def test_alg2(benchmark, name):
    """Algorithm II: single doubled-network contraction."""
    workload = TABLE1_BY_NAME[name]
    ideal = workload.ideal()
    noisy = workload.noisy()
    result = benchmark(
        fidelity_collective, noisy, ideal, backend="tdd",
        use_local_optimisations=False,
    )
    assert 0.9 < result.fidelity <= 1.0


@pytest.mark.parametrize("name", ALG1_ROWS)
def test_alg1(benchmark, name):
    """Algorithm I: full per-term enumeration (few-noise rows only)."""
    workload = TABLE1_BY_NAME[name]
    ideal = workload.ideal()
    noisy = workload.noisy()
    result = benchmark(
        fidelity_individual, noisy, ideal, backend="tdd",
        use_local_optimisations=False,
    )
    assert 0.9 < result.fidelity <= 1.0
