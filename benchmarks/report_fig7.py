"""Regenerate the paper's Fig. 7 data.

For bv3-5 and qft3-5 with 1..max noises, time Algorithm I (t1) and
Algorithm II (t2) and print ``log10(t1 / t2)`` — the paper's vertical
axis.  Positive values mean Algorithm II wins; the series grows roughly
linearly with the noise count because t1 scales with 4^k.  Both
algorithms contract the paper's unshrunk networks
(``use_local_optimisations=False``).

Usage::

    python benchmarks/report_fig7.py                # k = 1..4
    python benchmarks/report_fig7.py --max-noises 8 # paper range
    python benchmarks/report_fig7.py --backend einsum
"""

from __future__ import annotations

import argparse
import math
import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from _common import NOISE_P, NOISE_SEED, fig7_workloads  # noqa: E402

from repro.core import fidelity_collective, fidelity_individual  # noqa: E402
from repro.noise import depolarizing, insert_random_noise  # noqa: E402


def measure(build, k, budget, backend):
    ideal = build()
    noisy = insert_random_noise(
        ideal, k,
        channel_factory=lambda: depolarizing(NOISE_P),
        seed=NOISE_SEED,
    )
    # the paper's unshrunk networks
    r1 = fidelity_individual(
        noisy, ideal, time_budget_seconds=budget, backend=backend,
        use_local_optimisations=False,
    )
    r2 = fidelity_collective(
        noisy, ideal, backend=backend, use_local_optimisations=False
    )
    t1 = r1.stats.time_seconds
    t2 = r2.stats.time_seconds
    return t1, t2, r1.stats.timed_out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-noises", type=int, default=4)
    parser.add_argument(
        "--budget", type=float, default=60.0,
        help="per-point Alg I wall-clock budget",
    )
    parser.add_argument(
        "--backend", default="tdd",
        help="contraction backend of both (default tdd, the paper's "
        "engine, whatever the library default)",
    )
    args = parser.parse_args()

    ks = list(range(1, args.max_noises + 1))
    families = fig7_workloads()
    print(f"{'circuit':<8}" + "".join(f" k={k:<8}" for k in ks))
    print("-" * (8 + 10 * len(ks)))
    for name, build in families.items():
        cells = []
        for k in ks:
            t1, t2, timed_out = measure(build, k, args.budget, args.backend)
            if timed_out:
                cells.append(f"{'>TO':>9}")
            else:
                cells.append(f"{math.log10(t1 / t2):>9.2f}")
        print(f"{name:<8}" + " ".join(cells), flush=True)
    print(
        "\nCell = log10(t1/t2): negative -> Alg I faster, positive -> "
        "Alg II faster; growth with k is ~linear (t1 ~ 4^k)."
    )


if __name__ == "__main__":
    main()
