"""Parallel checking: batch-level workers and slice-level executors.

Checks a batch of noisy QFT variants through ``Engine.check_iter``
serially and with ``jobs=2`` worker processes (same results, same
order), shows a poisoned batch item coming back as an ERROR response
instead of a crash, and runs one memory-sliced contraction through a
process-backed slice executor.

Run: ``python examples/parallel_batch.py``
"""

import time

from repro import (
    CheckRequest,
    CircuitSpec,
    Engine,
    insert_random_noise,
    qft,
)
from repro.backends import get_backend
from repro.core import StatsAggregator
from repro.core.miter import algorithm_network
from repro.parallel import ProcessSliceExecutor
from repro.tensornet import build_plan, slice_plan


def request(ideal, noisy) -> CheckRequest:
    return CheckRequest(
        ideal=CircuitSpec.from_circuit(ideal),
        noisy=CircuitSpec.from_circuit(noisy),
        epsilon=0.01,
    )


def main() -> None:
    ideal = qft(5)
    requests = [
        request(ideal, insert_random_noise(ideal, num_noises=2, seed=seed))
        for seed in range(6)
    ]

    # --- batch-level parallelism: whole checks on worker processes ----------
    for jobs in (1, 2):
        aggregate = StatsAggregator()
        with Engine(jobs=jobs, backend="tdd") as engine:
            start = time.perf_counter()
            responses = list(engine.check_iter(requests))
            wall = time.perf_counter() - start
        for response in responses:
            aggregate.add(response.stats)
        verdicts = ", ".join(r.verdict for r in responses)
        print(f"jobs={jobs}: wall {wall:.3f}s, "
              f"cpu {aggregate.snapshot()['cpu_seconds']:.3f}s  [{verdicts}]")

    # --- error isolation: one bad item cannot take down the batch ----------
    # item 2 pairs a 2-qubit ideal with a 3-qubit noisy circuit
    poisoned = requests[:2] + [request(qft(2), qft(3))] + requests[2:3]
    with Engine(jobs=2, backend="tdd") as engine:
        responses = list(engine.check_iter(poisoned))
    for response in responses:
        detail = (
            f"F={response.fidelity:.6f}" if response.ok
            else f"[{response.error_code}] {response.error.error_type}: "
                 f"{response.error}"
        )
        print(f"item {response.index}: {response.verdict:14s} {detail}")

    # --- slice-level parallelism: one big sliced contraction ----------------
    noisy = insert_random_noise(ideal, num_noises=2, seed=0)
    network = algorithm_network(noisy, ideal, "alg2")
    plan = build_plan(network)
    sliced = slice_plan(plan, max(1, plan.peak_size() // 4))
    print(f"\nsliced plan: {sliced.num_slices()} independent subplans "
          f"(peak intermediate {sliced.peak_size()} elements)")
    serial = get_backend("einsum").contract_scalar(network, plan=sliced)
    with ProcessSliceExecutor(jobs=2) as executor:
        backend = get_backend("einsum", executor=executor)
        parallel = backend.contract_scalar(network, plan=sliced)
    print(f"serial   sum: {serial.real:.12f}")
    print(f"parallel sum: {parallel.real:.12f} "
          f"(|diff| = {abs(parallel - serial):.2e})")


if __name__ == "__main__":
    main()
