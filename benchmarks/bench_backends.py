"""Micro-benchmark of the contraction backends on Table-I-style rows.

Times all three registered engines (tdd / dense / einsum) on a handful of
small Table I workloads, for both algorithms, and writes the raw numbers
to ``BENCH_backends.json`` so future performance PRs have a trajectory to
compare against.  Since the plan-IR refactor, *planning* (building the
shared :class:`~repro.tensornet.planner.ContractionPlan` for the network
the algorithm contracts) is timed separately from *execution* (the
fidelity computation replaying the cached plan), and each cell records
the plan's predicted cost next to the measured times — so both plan
quality and plan overhead are tracked across PRs.  Agreement across
backends is asserted to 1e-9 while we're at it — a benchmark that
silently computes the wrong number is worse than no benchmark.

Since the parallel-subsystem PR the report also carries a ``parallel``
section: wall-clock rows for a sliced contraction and a batch-checking
workload at jobs ∈ {1, 2, 4}, with the serial-relative speedup and the
machine's CPU count recorded (speedup is bounded by the latter — a
single-core CI runner will honestly report ~1×).

Since the caching PR a ``cache`` section records cold-vs-warm rows per
backend: the same check against an empty cache (``cold``), a
structurally identical new pair against the warm cache (``warm_plan``
— plan-cache hit, contraction still runs) and an exact repeat
(``warm_result`` — result-cache hit, nothing runs), each with its
wall-clock time and the ``RunStats`` hit counters.

Since the array-API PR a ``batched`` section compares the two sliced
execution modes on the finely sliced qft3 row: ``looped``
(``slice_batch=1``, one einsum sweep per slice — the old behaviour) vs
``batched`` (auto ``slice_batch``, whole chunks of slices per einsum
call).  Each row records the effective batch, the number of batched
kernel sweeps and the wall clock; the batched row carries its speedup
over looped, and the einsum speedup is asserted to stay above
``MIN_BATCHED_SPEEDUP``.  When torch is installed an ``einsum-torch``
pair of rows rides along and its fidelity is held to the same 1e-9.

Since the plan-search PR a ``planning`` section races four
``order_method`` values (greedy, min_fill, and the budgeted anneal /
hyper searches) on a small and a large alg-2 workload, recording
predicted cost, planning time and trials per row.  The anytime floor is
asserted everywhere, a funded one-second search must *strictly* beat
both heuristics on the large workload, and a warm plan-cache rerun must
replay the searched plan with zero trials.

Since the typed-API PR an ``engine`` section records the front-door
overhead: per-check latency of ``Engine.check(request)`` against bare
``CheckSession.check(ideal, noisy)`` on the same warm pair, with the
ratio.  The engine's request resolution is a handful of dict lookups,
so the ratio should stay within a few percent of 1.0 (the acceptance
bound is 5%).

Usage::

    python benchmarks/bench_backends.py                  # default rows
    python benchmarks/bench_backends.py --rows qft3 bv4  # subset
    python benchmarks/bench_backends.py --repeats 5
    python benchmarks/bench_backends.py --jobs 1 2 4 8
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from _common import TABLE1_BY_NAME  # noqa: E402

from repro.backends import available_backends, get_backend  # noqa: E402
from repro.core import (  # noqa: E402
    CheckConfig,
    CheckSession,
    fidelity_collective,
    fidelity_individual,
)
from repro.core.miter import algorithm_network  # noqa: E402
from repro.library import qft  # noqa: E402
from repro.noise import depolarizing, insert_random_noise  # noqa: E402
from repro.parallel import ProcessSliceExecutor  # noqa: E402
from repro.tensornet import (  # noqa: E402
    ContractionStats,
    build_plan,
    slice_plan,
)

#: Small rows where every backend (including dense) finishes in seconds.
DEFAULT_ROWS = ["rb2", "qft2", "grover3", "qft3", "bv4"]

#: Alg I on every row is capped so exponential rows can't run away.
ALG1_MAX_TERMS = 64

#: Worker counts for the serial-vs-parallel speedup rows.
DEFAULT_JOBS = [1, 2, 4]

#: Acceptance floor: batched sliced execution must beat the per-slice
#: loop by at least this factor on the einsum backend (measured ~17x on
#: a single-core container; 5x leaves headroom for noisy CI runners).
MIN_BATCHED_SPEEDUP = 5.0

#: Search budget for the ``planning`` section — the acceptance budget:
#: within one second, anneal or hyper must strictly beat both heuristic
#: planners on the qft4 workload (measured: improvement by trial ~10 at
#: hundreds of trials per second, so this holds on slow CI too).
PLAN_SEARCH_BUDGET_SECONDS = 1.0


def bench_cell(workload, backend_name, algorithm, repeats):
    """Plan/exec timings + fidelity for one (row, backend, alg) cell."""
    ideal = workload.ideal()
    noisy = workload.noisy()
    network = algorithm_network(noisy, ideal, algorithm)

    plan_times = []
    plan = None
    for _ in range(repeats):
        backend = get_backend(backend_name)  # cold planner, like the CLI
        start = time.perf_counter()
        plan = backend.plan_for(network)
        plan_times.append(time.perf_counter() - start)
    plan_times.sort()

    exec_times = []
    fidelity = None
    peak = 0
    stats = None
    for _ in range(repeats):
        backend = get_backend(backend_name)
        backend.plan_for(network)  # warm plan: execution timed alone
        start = time.perf_counter()
        if algorithm == "alg1":
            result = fidelity_individual(
                noisy, ideal, backend=backend, max_terms=ALG1_MAX_TERMS
            )
        else:
            result = fidelity_collective(noisy, ideal, backend=backend)
        exec_times.append(time.perf_counter() - start)
        fidelity = result.fidelity
        stats = result.stats
        peak = max(peak, result.stats.max_nodes,
                   result.stats.max_intermediate_size)
    exec_times.sort()

    return {
        "backend": backend_name,
        "algorithm": algorithm,
        "plan_seconds": plan_times[len(plan_times) // 2],
        "median_exec_seconds": exec_times[len(exec_times) // 2],
        "best_exec_seconds": exec_times[0],
        # total wall clock, comparable with pre-split trajectories
        "median_seconds": plan_times[len(plan_times) // 2]
        + exec_times[len(exec_times) // 2],
        "predicted_cost": stats.predicted_cost,
        "predicted_peak_size": stats.predicted_peak_size,
        "slice_count": stats.slice_count,
        "plan_width": plan.width(),
        "fidelity": fidelity,
        "peak_size": peak,
        "repeats": repeats,
    }


def bench_sliced_parallel(jobs_list, repeats):
    """Wall-clock rows: one sliced contraction at each worker count.

    The speedup baseline is always a measured ``jobs=1`` run, whatever
    order (or subset) ``--jobs`` requests.
    """
    ideal = qft(3)
    noisy = insert_random_noise(ideal, 2, seed=0)
    network = algorithm_network(noisy, ideal, "alg2")
    plan = build_plan(network)
    # peak//8 slices this network into ~8k subplans of ~0.2ms each —
    # exactly the many-small-slices regime chunked dispatch exists for.
    sliced = slice_plan(plan, max(1, plan.peak_size() // 8))

    def measure(jobs):
        executor = ProcessSliceExecutor(jobs=jobs) if jobs > 1 else None
        backend = get_backend("einsum", executor=executor)
        try:
            if executor is not None:  # pool spin-up priced separately
                executor._ensure_pool()
            times = []
            value = None
            for _ in range(repeats):
                start = time.perf_counter()
                value = backend.contract_scalar(network, plan=sliced)
                times.append(time.perf_counter() - start)
        finally:
            if executor is not None:
                executor.close()
        return min(times), value

    serial_best, reference = measure(1)
    rows = []
    for jobs in jobs_list:
        if jobs == 1:
            best, value = serial_best, reference
        else:
            best, value = measure(jobs)
            if abs(value - reference) > 1e-9:
                raise AssertionError(
                    f"jobs={jobs} disagrees with serial by "
                    f"{abs(value - reference):.2e}"
                )
        rows.append({
            "workload": "sliced-qft3-alg2",
            "backend": "einsum",
            "num_slices": sliced.num_slices(),
            "jobs": jobs,
            "wall_seconds": best,
            "speedup_vs_serial": serial_best / best if best else 0.0,
        })
        print(
            f"parallel sliced   jobs {jobs}  wall {best:8.4f}s  "
            f"speedup {rows[-1]['speedup_vs_serial']:.2f}x"
        )
    return rows


def bench_batch_parallel(jobs_list, repeats, num_pairs=6):
    """Wall-clock rows: a check_many batch at each worker count.

    As with the sliced rows, the baseline is a measured ``jobs=1`` run.
    """
    # ~100ms of TDD work per item: heavy enough that worker processes
    # amortise their spawn cost, small enough for CI.
    ideal = qft(6)
    pairs = [
        (ideal, insert_random_noise(ideal, 2, seed=seed))
        for seed in range(num_pairs)
    ]
    config = CheckConfig(epsilon=0.05, algorithm="alg2", backend="tdd")

    def measure(jobs):
        times = []
        fidelities = None
        for _ in range(repeats):
            session = CheckSession(config)
            start = time.perf_counter()
            results = list(session.check_many(pairs, jobs=jobs))
            times.append(time.perf_counter() - start)
            fidelities = [result.fidelity for result in results]
        return min(times), fidelities

    serial_best, reference = measure(1)
    rows = []
    for jobs in jobs_list:
        if jobs == 1:
            best, fidelities = serial_best, reference
        else:
            best, fidelities = measure(jobs)
            if any(
                abs(a - b) > 1e-9 for a, b in zip(fidelities, reference)
            ):
                raise AssertionError(f"jobs={jobs} batch results diverged")
        rows.append({
            "workload": f"batch-qft6-x{num_pairs}",
            "backend": "tdd",
            "num_pairs": num_pairs,
            "jobs": jobs,
            "wall_seconds": best,
            "speedup_vs_serial": serial_best / best if best else 0.0,
        })
        print(
            f"parallel batch    jobs {jobs}  wall {best:8.4f}s  "
            f"speedup {rows[-1]['speedup_vs_serial']:.2f}x"
        )
    return rows


def bench_batched(repeats):
    """Looped vs batched execution of the finely sliced qft3 row.

    The same ~8k-slice plan as the parallel section, contracted two
    ways on every batch-capable backend that is installed: the
    ``slice_batch=1`` reference loop and the auto-sized batched kernel.
    Both must agree with the *unsliced* dense contraction to 1e-9
    (relative), and the einsum batched/looped ratio is the PR's
    headline number — asserted against :data:`MIN_BATCHED_SPEEDUP` so a
    regression fails the benchmark instead of quietly shipping.
    """
    ideal = qft(3)
    noisy = insert_random_noise(ideal, 2, seed=0)
    network = algorithm_network(noisy, ideal, "alg2")
    plan = build_plan(network)
    sliced = slice_plan(plan, max(1, plan.peak_size() // 8))
    reference = get_backend("dense").contract_scalar(network, plan=plan)
    scale = max(1.0, abs(reference))

    names = [
        name for name in ("einsum", "dense", "einsum-torch")
        if name in available_backends()
    ]
    rows = []
    speedups = {}
    for backend_name in names:
        timings = {}
        for mode, slice_batch in (("looped", 1), ("batched", None)):
            backend = get_backend(backend_name, slice_batch=slice_batch)
            best = None
            value = None
            stats = None
            for _ in range(repeats):
                stats = ContractionStats()
                start = time.perf_counter()
                value = backend.contract_scalar(
                    network, plan=sliced, stats=stats
                )
                seconds = time.perf_counter() - start
                if best is None or seconds < best:
                    best = seconds
            if abs(value - reference) > 1e-9 * scale:
                raise AssertionError(
                    f"{backend_name}/{mode} disagrees with the unsliced "
                    f"contraction by {abs(value - reference):.2e}"
                )
            timings[mode] = best
            rows.append({
                "workload": "sliced-qft3-alg2",
                "backend": backend_name,
                "mode": mode,
                "num_slices": sliced.num_slices(),
                "slice_batch": backend.effective_slice_batch(sliced),
                "batched_slice_calls": stats.batched_slice_calls,
                "wall_seconds": best,
            })
            print(
                f"batched {mode:7s} {backend_name:12s} "
                f"slice_batch {rows[-1]['slice_batch']:5d}  "
                f"wall {best:8.4f}s"
            )
        speedup = (
            timings["looped"] / timings["batched"]
            if timings["batched"] else 0.0
        )
        rows[-1]["speedup_vs_looped"] = speedup
        speedups[backend_name] = speedup
        print(
            f"batched speedup {backend_name:12s} {speedup:.2f}x "
            f"over the per-slice loop"
        )
    if speedups.get("einsum", 0.0) < MIN_BATCHED_SPEEDUP:
        raise AssertionError(
            f"einsum batched speedup {speedups.get('einsum', 0.0):.2f}x "
            f"fell below the {MIN_BATCHED_SPEEDUP:.0f}x floor"
        )
    return rows


def bench_cache(repeats):
    """Cold-vs-warm rows per backend: plan and whole-check reuse.

    Three phases per backend, all on a QFT-4 pair with two noises:

    * ``cold`` — empty cache directory, everything computes;
    * ``warm_plan`` — a structurally identical pair (same noise sites,
      different channel parameter) against the warm cache: planning is
      a lookup, the contraction still runs;
    * ``warm_result`` — the exact cold pair again: the whole check is
      one lookup.

    Cold rows get a fresh directory per repeat; warm rows reuse the
    populated one with a fresh session per repeat (the service
    pattern).  Fidelity equality between cold and warm_result is
    asserted — a cache that changes answers is worse than no cache.
    """
    ideal = qft(4)
    noisy = insert_random_noise(ideal, 2, seed=0)

    def twin(repeat):
        # same seed => same noise sites => identical structure; the
        # channel parameter differs (and differs per repeat, so repeats
        # cannot hit the result entry stored by an earlier repeat) —
        # only the plan cache can serve these
        p = 0.99 - 0.001 * repeat
        return insert_random_noise(
            ideal, 2, channel_factory=lambda: depolarizing(p), seed=0
        )

    rows = []
    for backend_name in available_backends():
        def timed_check(cache_dir, pair):
            session = CheckSession(CheckConfig(
                epsilon=0.05, algorithm="alg2", backend=backend_name,
                cache=True, cache_dir=cache_dir,
            ))
            start = time.perf_counter()
            result = session.check(*pair)
            return time.perf_counter() - start, result

        cold_best = None
        cold_result = None
        warm_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
        try:
            for repeat in range(repeats):
                fresh = tempfile.mkdtemp(prefix="repro-bench-cache-")
                try:
                    seconds, result = timed_check(fresh, (ideal, noisy))
                finally:
                    shutil.rmtree(fresh, ignore_errors=True)
                if cold_best is None or seconds < cold_best:
                    cold_best, cold_result = seconds, result
            phases = [("cold", cold_best, cold_result)]

            timed_check(warm_dir, (ideal, noisy))  # populate
            for phase, pair_for in (
                ("warm_plan", lambda r: (ideal, twin(r))),
                ("warm_result", lambda r: (ideal, noisy)),
            ):
                best = None
                outcome = None
                for repeat in range(repeats):
                    seconds, result = timed_check(
                        warm_dir, pair_for(repeat)
                    )
                    if best is None or seconds < best:
                        best, outcome = seconds, result
                phases.append((phase, best, outcome))
        finally:
            shutil.rmtree(warm_dir, ignore_errors=True)

        for phase, seconds, result in phases:
            rows.append({
                "workload": "qft4-2noise-alg2",
                "backend": backend_name,
                "phase": phase,
                "check_seconds": seconds,
                "plan_cache_hit": result.stats.plan_cache_hit,
                "result_cache_hit": result.stats.result_cache_hit,
                "fidelity": result.fidelity,
            })
            print(
                f"cache {phase:11s} {backend_name:8s} "
                f"check {seconds:8.4f}s  "
                f"plan_hits {result.stats.plan_cache_hit}  "
                f"result_hits {result.stats.result_cache_hit}"
            )
        by_phase = {row["phase"]: row for row in rows
                    if row["backend"] == backend_name}
        if abs(by_phase["warm_result"]["fidelity"]
               - by_phase["cold"]["fidelity"]) > 0.0:
            raise AssertionError(
                f"{backend_name}: warm result diverged from cold"
            )
        if by_phase["warm_result"]["result_cache_hit"] != 1:
            raise AssertionError(f"{backend_name}: warm rerun missed")
        if by_phase["warm_plan"]["plan_cache_hit"] < 1:
            raise AssertionError(f"{backend_name}: twin pair replanned")
    return rows


def bench_planning(repeats):
    """Plan quality per order method, and the warm-cache search skip.

    Four ``order_method`` values race on two alg-2 workloads: the small
    qft3 row and the larger qft4 row (the acceptance workload).  Each
    row records the predicted cost, the peak intermediate, the planning
    wall clock and — for the search planners, funded with
    :data:`PLAN_SEARCH_BUDGET_SECONDS` — the trials run.  Asserted:

    * anytime floor — no search planner ever costs more than either
      heuristic, on any workload;
    * on the largest workload the funded search is *strictly* cheaper
      than both greedy and min_fill;
    * a warm plan-cache rerun replays the searched plan with zero
      trials (the search is paid for exactly once per structure).
    """
    names = ("greedy", "min_fill", "anneal", "hyper")
    rows = []
    costs = {}
    for workload, qubits in (("qft3-2noise-alg2", 3),
                             ("qft4-2noise-alg2", 4)):
        ideal = qft(qubits)
        noisy = insert_random_noise(ideal, 2, seed=0)
        network = algorithm_network(noisy, ideal, "alg2")
        for name in names:
            kwargs = {"order_method": name}
            search = name in ("anneal", "hyper")
            if search:
                kwargs.update(
                    plan_budget_seconds=PLAN_SEARCH_BUDGET_SECONDS,
                    plan_seed=0,
                )
            best = None
            plan = None
            # the budget *is* the wall clock for search planners: one
            # funded run each, best-of-repeats for the heuristics
            for _ in range(1 if search else repeats):
                start = time.perf_counter()
                plan = build_plan(network, **kwargs)
                seconds = time.perf_counter() - start
                if best is None or seconds < best:
                    best = seconds
            report = plan.search_report
            costs[(workload, name)] = plan.total_cost()
            rows.append({
                "workload": workload,
                "planner": name,
                "predicted_cost": plan.total_cost(),
                "peak_intermediate_size": plan.peak_size(),
                "plan_seconds": best,
                "budget_seconds": (
                    PLAN_SEARCH_BUDGET_SECONDS if search else None
                ),
                "trials": report.trials if report else None,
            })
            trials = "-" if report is None else str(report.trials)
            print(
                f"planning {workload:18s} {name:9s} "
                f"cost {plan.total_cost():>10d}  "
                f"plan {best:7.3f}s  trials {trials:>5s}"
            )
    for (workload, name), cost in costs.items():
        if name in ("anneal", "hyper"):
            floor = min(costs[(workload, "greedy")],
                        costs[(workload, "min_fill")])
            if cost > floor:
                raise AssertionError(
                    f"{workload}/{name}: searched cost {cost} above the "
                    f"heuristic floor {floor} — anytime guarantee broken"
                )
    large = "qft4-2noise-alg2"
    heuristic_best = min(costs[(large, "greedy")],
                         costs[(large, "min_fill")])
    searched_best = min(costs[(large, "anneal")], costs[(large, "hyper")])
    if searched_best >= heuristic_best:
        raise AssertionError(
            f"{large}: funded search ({searched_best}) failed to beat "
            f"the heuristics ({heuristic_best})"
        )

    # warm plan-cache rerun: the search must run exactly once
    ideal = qft(4)
    noisy = insert_random_noise(ideal, 2, seed=0)
    network = algorithm_network(noisy, ideal, "alg2")
    knobs = dict(
        order_method="anneal",
        plan_budget_seconds=PLAN_SEARCH_BUDGET_SECONDS,
        plan_seed=0,
    )
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-plan-cache-")
    try:
        cold = get_backend("einsum", plan_cache=cache_dir, **knobs)
        start = time.perf_counter()
        cold.plan_for(network)
        cold_seconds = time.perf_counter() - start
        warm = get_backend("einsum", plan_cache=cache_dir, **knobs)
        start = time.perf_counter()
        warm.plan_for(network)
        warm_seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if warm.plan_cache_hits != 1:
        raise AssertionError("warm plan rerun missed the plan cache")
    if warm.plan_trials_total != 0:
        raise AssertionError("warm plan rerun re-ran the search")
    warm_rerun = {
        "workload": large,
        "planner": "anneal",
        "cold_plan_seconds": cold_seconds,
        "cold_trials": cold.plan_trials_total,
        "warm_plan_seconds": warm_seconds,
        "warm_trials": warm.plan_trials_total,
        "plan_cache_hit": warm.plan_cache_hits,
    }
    print(
        f"planning warm rerun: cold {cold_seconds:7.3f}s "
        f"({cold.plan_trials_total} trials) -> "
        f"warm {warm_seconds:7.3f}s (0 trials, cache hit)"
    )
    return {
        "budget_seconds": PLAN_SEARCH_BUDGET_SECONDS,
        "rows": rows,
        "warm_rerun": warm_rerun,
    }


def bench_engine_overhead(repeats, num_checks=50):
    """Per-check latency of the Engine front door vs a bare session.

    Both paths run the identical contraction on a warm backend; the
    difference is pure request ceremony (config memo, circuit memo,
    response wrap).  Requests carry live circuit objects — the
    service-loop shape where the caller already holds them.
    """
    from repro import CheckRequest, CircuitSpec, Engine

    ideal = qft(3)
    noisy = insert_random_noise(ideal, 2, seed=0)
    config = CheckConfig(epsilon=0.05, algorithm="alg2", backend="tdd")
    session = CheckSession(config)
    request = CheckRequest(
        ideal=CircuitSpec.from_circuit(ideal),
        noisy=CircuitSpec.from_circuit(noisy),
        epsilon=0.05,
        config={"algorithm": "alg2", "backend": "tdd"},
    )
    engine = Engine()

    direct = session.check(ideal, noisy)        # warm both paths
    fronted = engine.check(request)
    if abs(direct.fidelity - fronted.fidelity) > 0.0:
        raise AssertionError("engine and bare session disagree")

    def per_check(run_one):
        best = None
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(num_checks):
                run_one()
            seconds = (time.perf_counter() - start) / num_checks
            if best is None or seconds < best:
                best = seconds
        return best

    session_seconds = per_check(lambda: session.check(ideal, noisy))
    engine_seconds = per_check(lambda: engine.check(request))
    row = {
        "workload": "qft3-2noise-alg2",
        "backend": "tdd",
        "num_checks": num_checks,
        "session_check_seconds": session_seconds,
        "engine_check_seconds": engine_seconds,
        "overhead_ratio": engine_seconds / session_seconds - 1.0,
        "fidelity": fronted.fidelity,
    }
    print(
        f"engine overhead   session {session_seconds * 1e3:8.3f}ms  "
        f"engine {engine_seconds * 1e3:8.3f}ms  "
        f"overhead {row['overhead_ratio'] * 100:+.2f}%"
    )
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", nargs="*", default=DEFAULT_ROWS)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--jobs", nargs="*", type=int, default=DEFAULT_JOBS)
    parser.add_argument("--output", default="BENCH_backends.json")
    args = parser.parse_args(argv)

    backends = available_backends()
    report = {"rows": {}, "backends": backends}
    for name in args.rows:
        workload = TABLE1_BY_NAME[name]
        cells = []
        for algorithm in ("alg2", "alg1"):
            values = {}
            for backend_name in backends:
                cell = bench_cell(workload, backend_name, algorithm,
                                  args.repeats)
                cells.append(cell)
                values[backend_name] = cell["fidelity"]
                print(
                    f"{name:10s} {algorithm:5s} {backend_name:8s} "
                    f"plan {cell['plan_seconds']:8.4f}s  "
                    f"exec {cell['median_exec_seconds']:8.4f}s  "
                    f"cost {cell['predicted_cost']:>10d}  "
                    f"F={cell['fidelity']:.10f}"
                )
            spread = max(values.values()) - min(values.values())
            if spread > 1e-9:
                raise AssertionError(
                    f"{name}/{algorithm}: backends disagree by {spread:.2e}"
                )
        report["rows"][name] = {
            "num_qubits": workload.ideal().num_qubits,
            "num_noises": workload.num_noises,
            "cells": cells,
        }

    report["parallel"] = {
        "cpu_count": os.cpu_count(),
        "jobs": args.jobs,
        "sliced": bench_sliced_parallel(args.jobs, args.repeats),
        "batch": bench_batch_parallel(args.jobs, args.repeats),
    }

    report["batched"] = bench_batched(args.repeats)

    report["cache"] = bench_cache(args.repeats)

    report["planning"] = bench_planning(args.repeats)

    report["engine"] = bench_engine_overhead(args.repeats)

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
