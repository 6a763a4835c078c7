"""Closed-loop benchmark of ``Engine.check``, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_alg2 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --smoke

One client, ``jobs=1``, one process per workload run.  ``--trace 0``
measures the end-to-end metrics untraced; ``--trace 1`` runs half the
time untraced and half with every layer timed from outside (see
``layers.py``) and reports the per-layer metrics, the tracing overhead
and how far the outside timers disagree with ``repro.trace``'s own phase
split.  Timing metrics are reported at a reference host speed, measured
by a calibration kernel run between requests (``hostspeed.py``), so the
shared host's slow phases do not move them.  Every response is checked against an independent fidelity
(``verify.py``) outside the timed region.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name
every metric with its unit and sample count.  The exit code is 0 only
when the run is correct.
"""

from __future__ import annotations

import os
import sys
import time

_STARTED = time.perf_counter()


def _cap_threads() -> int:
    """Keep BLAS/OpenMP pools at or below the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


NPROC = _cap_threads()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")
    return repro


_import_program()

import numpy as np  # noqa: E402

from repro import ReproError  # noqa: E402

import hostspeed  # noqa: E402
import layers  # noqa: E402
import verify  # noqa: E402
from workloads import ROW_OF_SPEC, WORKLOADS, State, with_trace  # noqa: E402

IMPORT_SECONDS = time.perf_counter() - _STARTED

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Seconds of Engine.check between two runs of the host-speed kernel
#: (one more closes every round).
CALIBRATE_EVERY = 0.02

#: Timed requests an untraced run needs at least, so that ten samples
#: lie beyond the p90.
MIN_REQUESTS = 100

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "checks_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


# --- machine ------------------------------------------------------------------


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        return (ROOT / ".git" / ref[5:]).read_text().strip()
    except OSError:
        return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _blas() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict form
        return "unknown"


def machine_info() -> dict:
    return {
        "nproc": NPROC,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "repro_git_sha": _git_sha(),
        "repro_src_digest": _src_digest(),
    }


# --- one phase of timed rounds ------------------------------------------------


class Phase:
    """Samples of one closed-loop phase."""

    def __init__(self):
        self.requests = []
        self.responses = []
        self.latencies = []
        self.kinds = []
        self.records = []  # per-request LayerRecords (traced phases)
        self.wall = 0.0
        #: (first sample, end sample, wall seconds, host-speed factor) of
        #: every round
        self.round_spans = []
        self.rounds = 0
        self.selfcheck_errors = []
        self.counts = {"plan_builds": 0, "miss": 0, "disk": 0, "memory": 0}


def _check_round(workload, phase, round_, responses, builds, tiers) -> None:
    """Assert the round's designed counts (the workload self-checks)."""
    if builds is not None:
        phase.counts["plan_builds"] += builds
    if workload.builds_per_request is not None and builds is not None:
        expected = workload.builds_per_request * len(round_.requests)
        if builds != expected:
            phase.selfcheck_errors.append(
                f"round {phase.rounds}: {builds} plan builds, "
                f"expected {expected}")
    if round_.kinds:
        designed = {kind: round_.kinds.count(kind)
                    for kind in ("miss", "disk", "memory")}
        observed = {
            "miss": sum(1 for r in responses
                        if r.ok and r.stats.result_cache_hit == 0),
            "disk": tiers["disk"],
            "memory": tiers["memory"],
        }
        for kind in designed:
            phase.counts[kind] += observed[kind]
        if observed != designed:
            phase.selfcheck_errors.append(
                f"round {phase.rounds}: cache outcomes {observed}, "
                f"designed {designed}")


def _tier_hits(engine) -> dict:
    """Result lookups answered by each cache tier in this round.

    Each round runs on a fresh Engine, so its tier counters are the
    round's own, and no plan lookup can hit: every structure is new.
    """
    memory, disk = engine.cache.store.tiers[:2]
    return {"memory": memory.stats().hits, "disk": disk.stats().hits}


def run_phase(workload, state, round_, seconds, min_requests, probe=None):
    phase = Phase()
    traced = probe is not None
    while True:
        engine = round_.engine
        requests = round_.requests
        if traced and workload.backend == "einsum":
            requests = [with_trace(r) for r in requests]
        responses, latencies, records, kernels = [], [], [], []
        since = calibrating = 0.0
        with layers.count_calls("repro.backends.base", "build_plan") as calls:
            started = time.perf_counter()
            for request in requests:
                with probe.request() if traced else nullcontext() as record:
                    begin = time.perf_counter()
                    responses.append(_check(engine, request))
                    latencies.append(time.perf_counter() - begin)
                if traced:
                    records.append(record)
                since += latencies[-1]
                if since >= CALIBRATE_EVERY or len(latencies) == len(requests):
                    paused = time.perf_counter()
                    kernels.append(hostspeed.kernel())
                    calibrating += time.perf_counter() - paused
                    since = 0.0
            # the calibration kernels are not the program's wall time
            wall = time.perf_counter() - started - calibrating
        first = len(phase.latencies)
        phase.round_spans.append((first, first + len(requests), wall,
                                  hostspeed.factor(kernels,
                                                   workload.host_sensitivity)))
        phase.wall += wall
        builds = None if calls["missing"] else calls["calls"]
        tiers = _tier_hits(engine) if round_.kinds else None
        _check_round(workload, phase, round_, responses, builds, tiers)
        phase.requests += requests
        phase.responses += responses
        phase.latencies += latencies
        phase.kinds += round_.kinds or [""] * len(requests)
        phase.records += records
        phase.rounds += 1
        if state.smoke or (
            phase.wall >= seconds and len(phase.latencies) >= min_requests
        ):
            return phase
        round_ = workload.next_round(state)
        state.rounds_made += 1


def _check(engine, request):
    try:
        return engine.check(request)
    except ReproError as error:
        return verify.error_response(request, error)


# --- metrics ------------------------------------------------------------------


def percentile(latencies, q: int) -> float:
    if len(latencies) < 2:
        return latencies[0]
    return statistics.quantiles(latencies, n=100)[q - 1]


def scaled(phase):
    """Latencies (s) and summed round wall time (s) at the reference host
    speed: each round's by the factor of the kernels run inside it."""
    latencies, wall = [], 0.0
    for first, end, round_wall, factor in phase.round_spans:
        latencies += [factor * x for x in phase.latencies[first:end]]
        wall += factor * round_wall
    return latencies, wall


def round_stats(phase) -> dict:
    """Each round's host-speed factor and its p50 and p90 latency (s) at
    the reference speed: the run's diagnostics, not its metrics."""
    stats = {"p50": [], "p90": [], "factor": []}
    for first, end, _, factor in phase.round_spans:
        latencies = phase.latencies[first:end]
        stats["p50"].append(factor * statistics.median(latencies))
        stats["p90"].append(factor * percentile(latencies, 90))
        stats["factor"].append(factor)
    return stats


def end_to_end(phase, setup_s: float, peak_rss_mb: float) -> dict:
    """Percentiles and throughput over every timed request of the run.

    Times are scaled to the reference host speed by the calibration
    kernels run inside each round, which takes out the host's slow
    phases (see ``hostspeed.py``).  Every round holds the same multiset
    of requests, so the p50 and p90 fall on the same ranks of the same
    latency bands in every run; across >= 100 requests at least ten
    samples lie beyond the p90.
    """
    latencies, wall = scaled(phase)
    n = len(latencies)
    completed = sum(1 for r in phase.responses if r.ok)
    return {
        "latency_p50_ms": (1e3 * statistics.median(latencies), n),
        "latency_p90_ms": (1e3 * percentile(latencies, 90), n),
        "checks_per_s": (completed / wall, n),
        "peak_rss_mb": (peak_rss_mb, 1),
        "setup_s": (setup_s, None),
    }


def phase_disagreement(phase) -> float:
    """Sum over requests and phases of |probe - repro.trace| over the
    summed latency, on requests that carry a ``repro.trace`` tree."""
    from repro.trace.export import tree_phase_seconds

    gap = wall = 0.0
    for response, record, latency in zip(
        phase.responses, phase.records, phase.latencies
    ):
        tree = response.result.trace if response.ok else None
        if tree is None:
            continue
        inside = tree_phase_seconds(tree)
        outside = layers.phase_split(record)
        for name in set(inside) | set(outside):
            gap += abs(inside.get(name, 0.0) - outside.get(name, 0.0))
        wall += latency
    return gap / wall if wall else None


def band_line(phase) -> str:
    """Median latency per row (and cache outcome): the bands the p50 and
    p90 ranks must fall inside."""
    bands = {}
    for request, kind, latency in zip(
        phase.requests, phase.kinds, phase.latencies
    ):
        label = ROW_OF_SPEC.get(request.ideal, "?") + (f"/{kind}" if kind
                                                       else "")
        bands.setdefault(label, []).append(latency)
    ranked = sorted(bands.items(), key=lambda kv: statistics.median(kv[1]))
    n = len(phase.latencies)
    share = 0
    parts = []
    for label, values in ranked:
        share += len(values)
        parts.append(f"{label}={1e3 * statistics.median(values):.3g}ms"
                     f"@{share / n:.0%}")
    return "# bands (row=median@cumulative share) " + " ".join(parts)


def design_lines(workload, phase) -> list:
    """Layer shares of the traced latency, per request class."""
    groups = {"all": range(len(phase.latencies))}
    if workload.name == "cache_rerun":
        groups["hits"] = [i for i, k in enumerate(phase.kinds)
                          if k in ("disk", "memory")]
        groups["misses"] = [i for i, k in enumerate(phase.kinds)
                            if k == "miss"]
    lines = []
    for group, indices in groups.items():
        shares = layers.shares(
            [phase.records[i] for i in indices],
            [phase.latencies[i] for i in indices],
        )
        ranked = sorted(shares.items(), key=lambda kv: -kv[1])
        text = " ".join(f"{k}={v:.1%}" for k, v in ranked if v >= 0.005)
        lines.append(f"# design {workload.name} {group} (n={len(indices)}): "
                     f"{text}")
    return lines


# --- one workload run ---------------------------------------------------------


def run_workload(name, seed, seconds, trace, smoke, reference=None):
    """Run one workload; returns (result dict, human-readable lines)."""
    workload = WORKLOADS[name]
    scratch = ROOT / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    state = None
    try:
        sensitivity = workload.host_sensitivity
        import_s = IMPORT_SECONDS * hostspeed.measure(sensitivity)
        setups = []
        for _ in range(1 if smoke else SETUP_REPEATS):
            if state is not None:
                state.close()
            state = State(seed=seed, smoke=smoke, trace=trace,
                          scratch=scratch)
            started = time.perf_counter()
            workload.setup(state)
            first = workload.next_round(state)
            state.rounds_made = 1
            elapsed = time.perf_counter() - started
            setups.append(elapsed * hostspeed.measure(sensitivity))
        setup_s = import_s + statistics.median(setups)

        if not trace:
            phases = [run_phase(workload, state, first, seconds,
                                0 if smoke else MIN_REQUESTS)]
        else:
            untraced = run_phase(workload, state, first, seconds / 2, 0)
            second = workload.next_round(state)
            state.rounds_made += 1
            probe = layers.LayerProbe()
            with probe:
                traced = run_phase(workload, state, second, seconds / 2, 0,
                                   probe)
            phases = [untraced, traced]
        # before verification, whose reference session is not the program's
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        reference = reference or verify.Reference()
        failures, attempted = [], 0
        for phase in phases:
            failures += verify.gate(phase.requests, phase.responses,
                                    reference)
            attempted += len(phase.requests)
        selfcheck = [e for phase in phases for e in phase.selfcheck_errors]

        lines = [f"# perfbench workload={name} seed={seed} "
                 f"seconds={seconds} trace={int(trace)} smoke={int(smoke)}",
                 "# machine " + json.dumps(machine_info(), sort_keys=True)]
        counts = {k: sum(p.counts[k] for p in phases)
                  for k in phases[0].counts}
        lines.append(
            f"# selfcheck rounds={sum(p.rounds for p in phases)} "
            + " ".join(f"{k}={v}" for k, v in counts.items())
            + (" ok" if not selfcheck else " FAILED: " + "; ".join(
                selfcheck[:5])))
        lines.append("# reference " + json.dumps(dict(reference.paths)))
        lines.append(band_line(phases[-1]))
        lines.append("# rounds (reference speed) " + json.dumps({
            key: [round(v, 6) for v in values]
            for key, values in round_stats(phases[0]).items()}))
        failed_ratio = len(failures) / max(1, attempted)
        lines.append(f"metric failed_ratio {failed_ratio:.6g} ratio "
                     f"n={attempted}")
        detail = verify.first_failures(failures)
        if detail:
            lines.append(f"# failures {detail}")

        if not trace:
            metrics = end_to_end(phases[0], setup_s, peak_rss_mb)
            for key, (value, count) in metrics.items():
                lines.append(
                    f"metric {key} {value:.6g} {END_TO_END_UNITS[key]} "
                    f"n={count if count is not None else len(setups)}")
            values = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                      for k, (v, _) in metrics.items()}
        else:
            untraced, traced = phases
            disagreement = (phase_disagreement(traced)
                            if workload.backend == "einsum" else None)
            per_layer = layers.layer_metrics(
                traced.records, traced.latencies, untraced.latencies,
                disagreement, traced.counts["plan_builds"],
                traced.counts["disk"])
            n = len(traced.latencies)
            for key, (value, unit) in per_layer.items():
                lines.append(f"metric {key} {value:.6g} {unit} n={n}")
            lines += design_lines(workload, traced)
            if probe.missing:
                lines.append("# warning: layer hooks not found: "
                             + ", ".join(probe.missing))
            values = {k: {"value": v, "unit": u}
                      for k, (v, u) in per_layer.items()}

        result = {
            "correct": not failures and not selfcheck,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": values,
        }
        return result, lines
    finally:
        if state is not None:
            state.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass


def run_all(args) -> int:
    """Every workload, each in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        out = child.stdout.strip().splitlines()
        print("\n".join(out[:-1]), flush=True)
        if child.returncode not in (0, 1) or not out:
            print(f"# {name}: exited {child.returncode}", flush=True)
            combined["correct"] = False
            continue
        result = json.loads(out[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one small round per workload, in seconds")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result, lines = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace), args.smoke)
    print("\n".join(lines), flush=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
