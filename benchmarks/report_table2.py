"""Regenerate the paper's Table II: utility of the shared computed table.

For bv3-5 with 1..max noises, run Algorithm I twice — once with a single
TDD manager shared across all trace terms ('Opt.') and once with a fresh
manager per term ('Ori.') — and report the runtime ratio.  Algorithm I
contracts the paper's unshrunk network (``use_local_optimisations=False``).

Usage::

    python benchmarks/report_table2.py                # k = 1..4
    python benchmarks/report_table2.py --max-noises 8 # paper range
"""

from __future__ import annotations

import argparse
import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from _common import NOISE_P, NOISE_SEED, table2_workloads  # noqa: E402

from repro.backends import get_backend  # noqa: E402
from repro.core import fidelity_individual  # noqa: E402
from repro.noise import depolarizing, insert_random_noise  # noqa: E402


def measure(build, k, shared):
    ideal = build()
    noisy = insert_random_noise(
        ideal, k,
        channel_factory=lambda: depolarizing(NOISE_P),
        seed=NOISE_SEED,
    )
    result = fidelity_individual(
        noisy, ideal,
        backend=get_backend("tdd", share_computed_table=shared),
        use_local_optimisations=False,  # the paper's unshrunk network
    )
    return result.stats.time_seconds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-noises", type=int, default=4)
    args = parser.parse_args()

    circuits = table2_workloads()
    names = sorted(circuits)
    header = f"{'k':>3}" + "".join(
        f" {name + ' Opt.':>10} {name + ' Ori.':>10} {'rate':>6}"
        for name in names
    )
    print(header)
    print("-" * len(header))
    sums = {name: [0.0, 0.0] for name in names}
    for k in range(1, args.max_noises + 1):
        cells = []
        for name in names:
            opt = measure(circuits[name], k, shared=True)
            ori = measure(circuits[name], k, shared=False)
            sums[name][0] += opt
            sums[name][1] += ori
            rate = opt / ori if ori > 0 else float("nan")
            cells.append(f" {opt:>10.3f} {ori:>10.3f} {rate:>6.2f}")
        print(f"{k:>3}" + "".join(cells), flush=True)
    total_cells = []
    for name in names:
        opt, ori = sums[name]
        total_cells.append(
            f" {opt:>10.3f} {ori:>10.3f} {opt / ori:>6.2f}"
        )
    print("SUM" + "".join(total_cells))
    print(
        "\nOpt. = shared computed table, Ori. = fresh manager per term; "
        "rate = Opt./Ori. (the paper reports ~0.28-0.38)."
    )


if __name__ == "__main__":
    main()
