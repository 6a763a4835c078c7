"""Quickstart: is my noisy QFT still a QFT?

Builds the 5-qubit quantum Fourier transform, injects the paper's
NISQ-grade depolarising noise (p = 0.999) at random locations, and asks
the equivalence checker whether the noisy implementation is still
0.01-equivalent to the ideal circuit.

Run: ``python examples/quickstart.py``
"""

from repro import (
    CheckConfig,
    CheckSession,
    average_fidelity_from_jamiolkowski,
    insert_random_noise,
    qft,
)


def main() -> None:
    ideal = qft(5)
    noisy = insert_random_noise(ideal, num_noises=4, seed=7)
    print(f"ideal circuit : {ideal}")
    print(f"noisy circuit : {noisy}")

    session = CheckSession(CheckConfig(epsilon=0.01))
    result = session.check(ideal, noisy)

    print(f"\nbackend       : {result.backend}")
    print(f"algorithm     : {result.algorithm}")
    print(f"F_J           : {result.fidelity:.6f}"
          + (" (lower bound)" if result.is_lower_bound else ""))
    print(f"equivalent    : {result.equivalent} (epsilon = {result.epsilon})")
    print(f"time          : {result.stats.time_seconds:.3f} s")

    favg = average_fidelity_from_jamiolkowski(result.fidelity, 2**5)
    print(f"\nInterpretation: a Haar-random input state would come out with "
          f"average fidelity ~{favg:.6f}.")


if __name__ == "__main__":
    main()
