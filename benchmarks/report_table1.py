"""Regenerate the paper's Table I.

For every benchmark row: run the dense baseline (with the paper's 8 GB
memory envelope), Algorithm II, and Algorithm I, reporting wall-clock
seconds and peak TDD node counts (both algorithms run on the ``tdd``
backend and contract the paper's unshrunk networks, whatever the library
defaults).  Cells print MO when the baseline
refuses the dense allocation and TO when Algorithm I exceeds its
wall-clock budget — the same failure modes the paper tabulates.

Usage::

    python benchmarks/report_table1.py            # quick envelope
    python benchmarks/report_table1.py --paper    # 3600 s / full baseline
    python benchmarks/report_table1.py --rows qft5 bv9
"""

from __future__ import annotations

import argparse
import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from _common import TABLE1_ROWS  # noqa: E402

from repro.baseline import (  # noqa: E402
    PAPER_MEMORY_BYTES,
    MemoryLimitExceeded,
    estimate_superop_bytes,
    process_fidelity,
)
from repro.core import fidelity_collective, fidelity_individual  # noqa: E402


def run_baseline(ideal, noisy, max_qubits):
    if ideal.num_qubits > max_qubits:
        return "TO*", None
    try:
        start = time.perf_counter()
        process_fidelity(
            noisy, ideal, memory_limit_bytes=PAPER_MEMORY_BYTES
        )
        return f"{time.perf_counter() - start:.2f}", None
    except MemoryLimitExceeded:
        return "MO", None


def run_alg2(ideal, noisy):
    result = fidelity_collective(
        noisy, ideal, backend="tdd", use_local_optimisations=False
    )
    return f"{result.stats.time_seconds:.2f}", result.stats.max_nodes


def run_alg1(ideal, noisy, budget):
    result = fidelity_individual(
        noisy, ideal, time_budget_seconds=budget, backend="tdd",
        use_local_optimisations=False,
    )
    if result.stats.timed_out:
        return "TO", "TO"
    return f"{result.stats.time_seconds:.2f}", result.stats.max_nodes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--paper", action="store_true",
        help="paper envelope: 3600 s budgets, baseline up to the memory wall",
    )
    parser.add_argument(
        "--budget", type=float, default=None,
        help="Alg I wall-clock budget in seconds (default 30, paper 3600)",
    )
    parser.add_argument(
        "--max-baseline-qubits", type=int, default=None,
        help="skip the dense baseline above this width (default 5, paper 7)",
    )
    parser.add_argument(
        "--rows", nargs="*", default=None, help="subset of row names to run"
    )
    args = parser.parse_args()

    budget = args.budget or (3600.0 if args.paper else 30.0)
    max_baseline = args.max_baseline_qubits or (7 if args.paper else 5)

    rows = TABLE1_ROWS
    if args.rows:
        rows = [w for w in TABLE1_ROWS if w.name in set(args.rows)]

    header = (
        f"{'Circuit':<10} {'n':>3} {'|G|':>4} {'k':>3} "
        f"{'Qiskit(s)':>10} {'AlgII(s)':>9} {'nodes':>7} "
        f"{'AlgI(s)':>9} {'nodes':>7}"
    )
    print(header)
    print("-" * len(header))
    for workload in rows:
        ideal = workload.ideal()
        noisy = workload.noisy()
        base_time, _ = run_baseline(ideal, noisy, max_baseline)
        alg2_time, alg2_nodes = run_alg2(ideal, noisy)
        alg1_time, alg1_nodes = run_alg1(ideal, noisy, budget)
        print(
            f"{workload.name:<10} {ideal.num_qubits:>3} "
            f"{ideal.num_gates:>4} {workload.num_noises:>3} "
            f"{base_time:>10} {alg2_time:>9} {alg2_nodes:>7} "
            f"{alg1_time:>9} {alg1_nodes:>7}",
            flush=True,
        )
    print(
        "\nTO = exceeded wall-clock budget; TO* = baseline skipped above "
        f"{max_baseline} qubits in quick mode; MO = dense SuperOp over the "
        f"{PAPER_MEMORY_BYTES / 1024**3:.0f} GiB envelope "
        f"(e.g. 7 qubits need ~{estimate_superop_bytes(7) / 1024**3:.1f} GiB)."
    )


if __name__ == "__main__":
    main()
