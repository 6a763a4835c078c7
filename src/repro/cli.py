"""Command-line interface: ``python -m repro <command>``.

``check``, ``fidelity`` and ``batch`` are thin request builders over
:class:`repro.api.Engine`: each translates its flags into a frozen
:class:`~repro.api.request.CheckRequest` and prints the engine's
response — so the CLI and the API emit the *same* versioned wire schema
(``schema_version`` ``"1"``), and anything the CLI can do an HTTP/RPC
layer can do with the identical payloads.

Commands
--------
``check``
    Decide epsilon-equivalence between an ideal OpenQASM 2 circuit and a
    noisy implementation (either a second QASM file plus a noise model,
    or random noise injected into the ideal circuit).  ``--json`` emits
    the full machine-readable result (the version-``1`` response wire
    schema).
``fidelity``
    Print the Jamiolkowski fidelity with a chosen algorithm
    ('alg1', 'alg2' or the dense-linalg baseline 'dense').
``batch``
    Check many pairs listed in a manifest through one shared
    :class:`~repro.api.Engine`, streaming one JSON wire record per line
    (JSONL).  Manifest rows come in two forms, freely mixed: the classic
    ``ideal.qasm [noisy.qasm]`` pair (the CLI noise/epsilon flags apply),
    or a ``{...}`` JSON object parsed as a wire-schema
    :class:`~repro.api.request.CheckRequest` (absent fields inherit the
    CLI flags; explicit fields win).  ``--jobs N`` fans whole checks out
    to N worker processes (output order stays deterministic); a bad row —
    malformed manifest line, invalid request object, unreadable QASM,
    raising check — becomes an ``ERROR`` record with a machine-readable
    ``error_code`` instead of aborting the batch, and a run summary lands
    on stderr.  Exit code: 0 all equivalent, 1 some non-equivalent, 2 any
    error records.
``plan``
    Build the contraction plan for the chosen algorithm's network and
    print a step/width/cost report — without contracting anything.  Use
    it to preview planner quality and slicing before committing to a
    heavy run.
``serve``
    Run the asyncio HTTP service over one shared engine: the same wire
    schema over ``POST /v1/check`` / ``/v1/batch`` / ``/v1/jobs``, with
    Prometheus ``GET /metrics``, admission control (503 + Retry-After
    past ``--max-inflight``) and per-request deadlines
    (``--request-timeout`` / ``X-Repro-Timeout``).  See
    ``docs/service.md``.
``cache``
    Inspect and manage the content-addressed disk cache that ``check``,
    ``batch`` and ``plan`` fill when run with ``--cache``:
    ``cache stats`` (entries by kind, bytes, location, per-tier
    breakdown; ``--cache-url`` adds the shared remote tier),
    ``cache clear`` and ``cache prune --max-bytes N`` (evict oldest
    entries down to a byte budget).  The directory is ``--cache-dir``,
    ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``, in that order.
``cache-server``
    Run the shared remote cache daemon other machines' checks reach via
    ``--cache-url`` / ``$REPRO_CACHE_URL``.  See ``docs/cluster.md``.
``worker``
    Run one remote slice-execution daemon; point checks at a pool of
    them with ``--workers`` / ``$REPRO_WORKERS``.  See
    ``docs/cluster.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import namedtuple
from typing import Optional

from .api import (
    CHANNELS,
    CheckRequest,
    CircuitSpec,
    Engine,
    InvalidRequestError,
    NoiseSpec,
    ReproError,
)
from .backends import available_backends, backend_availability
from .cache import CheckCache, DiskStore, count_by_kind
from .circuits import qasm
from .core import StatsAggregator
from .tensornet.ordering import ORDER_HEURISTICS
from .tensornet.planner import PLANNERS, build_plan


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Approximate equivalence checking of noisy quantum circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="epsilon-equivalence check")
    _add_circuit_args(check)
    check.add_argument(
        "--epsilon", type=float, default=0.01, help="error threshold"
    )
    check.add_argument(
        "--algorithm", default="auto",
        choices=["auto", "alg1", "alg2", "dense"],
    )
    _add_engine_args(check)
    _add_cache_args(check)
    _add_workers_arg(check)
    check.add_argument(
        "--json", action="store_true",
        help="emit the full result as one JSON object",
    )
    check.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a span trace of the check and write Chrome "
        "trace-event JSON to FILE (open it at https://ui.perfetto.dev); "
        "--json output carries the span tree inline as 'trace'",
    )

    fidelity = sub.add_parser("fidelity", help="compute F_J")
    _add_circuit_args(fidelity)
    fidelity.add_argument(
        "--algorithm", default="alg2", choices=["alg1", "alg2", "dense"]
    )
    _add_engine_args(fidelity)

    batch = sub.add_parser(
        "batch", help="check a manifest of QASM pairs, streaming JSONL"
    )
    batch.add_argument(
        "manifest",
        help="text file, one row per line: 'ideal.qasm [noisy.qasm]' "
        "pairs ('#' starts a comment) and/or JSON wire-schema request "
        "objects, freely mixed; the noise/epsilon/engine flags apply to "
        "path rows and fill absent fields of JSON rows",
    )
    _add_noise_args(batch)
    batch.add_argument(
        "--epsilon", type=float, default=0.01, help="error threshold"
    )
    batch.add_argument(
        "--algorithm", default="auto",
        choices=["auto", "alg1", "alg2", "dense"],
    )
    _add_engine_args(batch)
    _add_cache_args(batch)
    _add_workers_arg(batch)
    batch.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run checks in N worker processes (results keep manifest "
        "order; default 1 = serial)",
    )

    plan = sub.add_parser(
        "plan",
        help="print the contraction plan (steps, width, predicted flops) "
        "without contracting",
    )
    _add_circuit_args(plan)
    plan.add_argument(
        "--algorithm", default="alg2", choices=["alg1", "alg2"],
        help="plan alg2's doubled network, or alg1's first trace-term "
        "network",
    )
    # Plans are backend-independent (every backend executes the same
    # plan object), so `plan` takes no --backend.
    _add_engine_args(plan, include_backend=False)
    _add_cache_args(plan)
    plan.add_argument(
        "--max-steps", type=int, default=None,
        help="truncate the per-step listing (all steps by default)",
    )
    plan.add_argument(
        "--json", action="store_true",
        help="emit the plan as one JSON object instead of the report",
    )
    plan.add_argument(
        "--compare", action="store_true",
        help="race every registered planner on the network and print a "
        "cost/time table instead of one plan report (ignores --cache)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the HTTP checking service (POST /v1/check, /v1/batch, "
        "/v1/jobs; GET /metrics, /healthz)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: loopback only)",
    )
    serve.add_argument(
        "--port", type=int, default=8000,
        help="port to bind (0 picks an ephemeral port, printed in the "
        "ready log line)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=8, metavar="N",
        help="admission-control bound: request N+1 is answered 503 + "
        "Retry-After instead of queued",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=30.0, metavar="SECONDS",
        help="default per-request deadline; the X-Repro-Timeout header "
        "can shorten but never extend it (expiry answers 504)",
    )
    serve.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="engine worker processes for /v1/batch and /v1/jobs "
        "(default 1 = in-process)",
    )
    _add_cache_args(serve)
    _add_workers_arg(serve)

    cache_server = sub.add_parser(
        "cache-server",
        help="run the shared remote cache daemon (RemoteStore tier; see "
        "docs/cluster.md)",
    )
    cache_server.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: loopback only — the protocol "
        "is unauthenticated; see docs/cluster.md)",
    )
    cache_server.add_argument(
        "--port", type=int, default=0,
        help="port to bind (default 0 picks an ephemeral port, printed "
        "in the JSON ready line)",
    )
    cache_server.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="backing disk tier (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro)",
    )
    cache_server.add_argument(
        "--memory-entries", type=int, default=None, metavar="N",
        help="size of the in-memory LRU tier in front of the disk store",
    )

    worker = sub.add_parser(
        "worker",
        help="run one remote slice-execution daemon (RemoteSliceExecutor "
        "target; see docs/cluster.md)",
    )
    worker.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: loopback only — EXEC payloads "
        "are unpickled; never expose a worker to untrusted networks)",
    )
    worker.add_argument(
        "--port", type=int, default=0,
        help="port to bind (default 0 picks an ephemeral port, printed "
        "in the JSON ready line)",
    )
    worker.add_argument(
        "--heartbeat-interval", type=float, default=None,
        metavar="SECONDS",
        help="seconds between liveness heartbeats while a chunk computes",
    )

    backends = sub.add_parser(
        "backends",
        help="list registered contraction backends and their availability",
    )
    backends.add_argument(
        "--json", action="store_true",
        help="emit one JSON object mapping backend name to availability",
    )

    cache = sub.add_parser(
        "cache", help="inspect and manage the content-addressed disk cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    stats = cache_sub.add_parser(
        "stats", help="entry counts by kind, total bytes, location"
    )
    stats.add_argument(
        "--json", action="store_true",
        help="emit the stats as one JSON object",
    )
    clear = cache_sub.add_parser("clear", help="remove every cached entry")
    prune = cache_sub.add_parser(
        "prune", help="evict oldest entries down to a byte budget"
    )
    prune.add_argument(
        "--max-bytes", type=int, required=True, metavar="N",
        help="keep at most N bytes of cached payloads (oldest evicted "
        "first)",
    )
    for cache_command in (stats, clear, prune):
        cache_command.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="cache directory (default: $REPRO_CACHE_DIR or "
            "~/.cache/repro)",
        )
        cache_command.add_argument(
            "--cache-url", default=None, metavar="HOST:PORT",
            help="also inspect/manage this `repro cache-server`'s tier "
            "(admin path: an unreachable server is an error here, not "
            "fail-open)",
        )

    return parser


def _add_circuit_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("ideal", help="ideal circuit (OpenQASM 2 file)")
    sub.add_argument(
        "--noisy", default=None,
        help="noisy circuit QASM (noise applied on top per --channel)",
    )
    _add_noise_args(sub)


def _add_noise_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--channel", default="depolarizing", choices=sorted(CHANNELS),
        help="noise channel type",
    )
    sub.add_argument(
        "--p", type=float, default=0.999,
        help="channel keep-probability (paper convention)",
    )
    sub.add_argument(
        "--noises", type=int, default=None,
        help="insert this many channels at random positions",
    )
    sub.add_argument(
        "--every-gate", action="store_true",
        help="attach a channel after every gate instead",
    )
    sub.add_argument("--seed", type=int, default=0, help="noise placement seed")


def _add_engine_args(
    sub: argparse.ArgumentParser, include_backend: bool = True
) -> None:
    if include_backend:
        sub.add_argument(
            "--backend", default="tdd", choices=available_backends(),
            help="contraction backend",
        )
    sub.add_argument(
        "--order-method", default="tree_decomposition",
        choices=sorted(ORDER_HEURISTICS),
        help="index elimination order heuristic",
    )
    sub.add_argument(
        "--planner", default="order", choices=sorted(PLANNERS),
        help="contraction-plan strategy",
    )
    sub.add_argument(
        "--max-intermediate", type=int, default=None, metavar="SIZE",
        help="slice plans so no intermediate tensor exceeds SIZE elements",
    )
    sub.add_argument(
        "--plan-budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget of the search planners (anneal/hyper); "
        "0 returns their heuristic baseline, default is the search "
        "default budget; ignored by order/greedy",
    )
    sub.add_argument(
        "--plan-seed", type=int, default=None, metavar="N",
        help="seed of the search planners' randomized trials (fixed "
        "seed = reproducible searched plans; ignored by order/greedy)",
    )
    if include_backend:
        sub.add_argument(
            "--device", default=None, metavar="DEVICE",
            help="device the backend's numerics run on (e.g. 'cpu', "
            "'cuda', 'cuda:1'; accelerator devices need the "
            "einsum-torch/einsum-cupy backend)",
        )
        sub.add_argument(
            "--slice-batch", type=int, default=None, metavar="N",
            help="slices contracted per batched kernel sweep (default: "
            "auto-size against the memory budget; 1 = per-slice loop)",
        )


def _add_cache_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help="consult and fill the content-addressed plan + result "
        "cache (--no-cache, the default, runs exactly as before)",
    )
    sub.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro)",
    )
    sub.add_argument(
        "--cache-url", default=None, metavar="HOST:PORT",
        help="shared remote cache tier (a `repro cache-server` address); "
        "implies --cache.  Default: $REPRO_CACHE_URL when --cache is on. "
        "The tier is fail-open — an unreachable server degrades to the "
        "local cache, never to an error",
    )


def _add_workers_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--workers", default=None, metavar="HOST:PORT[,HOST:PORT...]",
        help="ship slice execution to remote `repro worker` daemons "
        "(default: $REPRO_WORKERS; unset runs slices locally)",
    )


def _noise_spec_from(args) -> Optional[NoiseSpec]:
    """The CLI noise flags as a wire-schema :class:`NoiseSpec`."""
    if args.every_gate:
        return NoiseSpec(
            channel=args.channel, p=args.p, every_gate=True, seed=args.seed
        )
    if args.noises is not None:
        return NoiseSpec(
            channel=args.channel, p=args.p, noises=args.noises,
            seed=args.seed,
        )
    return None


def _noisy_from(args, base):
    """Apply the CLI noise flags to a loaded base circuit."""
    spec = _noise_spec_from(args)
    return spec.apply(base) if spec is not None else base


def load_noisy(args):
    """Materialise the (ideal, noisy) pair from CLI arguments."""
    ideal = qasm.load(args.ideal)
    base = qasm.load(args.noisy) if args.noisy else ideal
    return ideal, _noisy_from(args, base)


def _config_overrides(args) -> dict:
    """The CLI engine flags as CheckConfig overrides for a request."""
    overrides = {
        "order_method": args.order_method,
        "planner": args.planner,
        "max_intermediate_size": args.max_intermediate,
    }
    if getattr(args, "algorithm", None) is not None:
        overrides["algorithm"] = args.algorithm
    if getattr(args, "backend", None) is not None:
        overrides["backend"] = args.backend
    if getattr(args, "device", None) is not None:
        overrides["device"] = args.device
    if getattr(args, "slice_batch", None) is not None:
        overrides["slice_batch"] = args.slice_batch
    if getattr(args, "plan_budget", None) is not None:
        overrides["plan_budget_seconds"] = args.plan_budget
    if getattr(args, "plan_seed", None) is not None:
        overrides["plan_seed"] = args.plan_seed
    if getattr(args, "trace", None) is not None:
        overrides["trace"] = True
    return overrides


def _request_from(args, ideal, noisy=None, mode="check") -> CheckRequest:
    """The CLI flags as a wire-schema :class:`CheckRequest`."""
    return CheckRequest(
        ideal=ideal,
        noisy=noisy,
        noise=_noise_spec_from(args),
        epsilon=getattr(args, "epsilon", 0.01),
        mode=mode,
        config=_config_overrides(args),
    )


def _engine_from(args, jobs: int = 1) -> Engine:
    cache_url = getattr(args, "cache_url", None)
    workers = getattr(args, "workers", None)
    if workers is None:
        # the CLI (not the library) is where $REPRO_WORKERS applies, so
        # plain API/test use never dials remote daemons implicitly
        from .cluster import WORKERS_ENV

        workers = os.environ.get(WORKERS_ENV) or None
    overrides = {"workers": workers} if workers else {}
    return Engine(
        jobs=jobs,
        # an explicit remote tier implies caching on
        cache=getattr(args, "cache", False) or bool(cache_url),
        cache_dir=getattr(args, "cache_dir", None),
        cache_url=cache_url,
        **overrides,
    )


def _print_error(error: ReproError) -> int:
    print(f"error [{error.code}]: {error}", file=sys.stderr)
    return 2


def cmd_check(args) -> int:
    try:
        # request construction validates the noise flags too — a bad
        # --noises/--p must take the typed-error exit, not a traceback
        request = _request_from(
            args,
            CircuitSpec.from_path(args.ideal),
            CircuitSpec.from_path(args.noisy) if args.noisy else None,
        )
        response = _engine_from(args).check(request)
    except ReproError as error:
        return _print_error(error)
    result = response.result
    trace_note = None
    if args.trace and result.trace is not None:
        from .trace import chrome_trace, tree_records

        spans = tree_records(result.trace)
        with open(args.trace, "w") as handle:
            json.dump(chrome_trace(spans), handle, indent=1)
            handle.write("\n")
        trace_note = f"{args.trace} ({len(spans)} spans)"
    if args.json:
        print(response.to_json())
        return 0 if result.equivalent else 1
    bound = " (lower bound)" if result.is_lower_bound else ""
    print(f"algorithm : {result.algorithm}")
    print(f"backend   : {result.backend}")
    print(f"fidelity  : {result.fidelity:.6f}{bound}")
    print(f"epsilon   : {result.epsilon}")
    print(f"verdict   : {'EQUIVALENT' if result.equivalent else 'NOT EQUIVALENT'}")
    print(f"time      : {result.stats.time_seconds:.3f} s")
    if result.note:
        print(f"note      : {result.note}")
    if trace_note is not None:
        print(f"trace     : {trace_note}")
    return 0 if result.equivalent else 1


def cmd_fidelity(args) -> int:
    try:
        request = _request_from(
            args,
            CircuitSpec.from_path(args.ideal),
            CircuitSpec.from_path(args.noisy) if args.noisy else None,
            mode="fidelity",
        )
        response = _engine_from(args).check(request)
    except ReproError as error:
        return _print_error(error)
    print(f"{response.fidelity:.10f}")
    return 0


def cmd_plan(args) -> int:
    from .core.miter import algorithm_network

    ideal, noisy = load_noisy(args)
    network = algorithm_network(noisy, ideal, args.algorithm)
    plan_seed = args.plan_seed if args.plan_seed is not None else 0
    if args.compare:
        return _cmd_plan_compare(args, network, plan_seed)

    def build():
        return build_plan(
            network,
            planner=args.planner,
            order_method=args.order_method,
            max_intermediate_size=args.max_intermediate,
            plan_budget_seconds=args.plan_budget,
            plan_seed=plan_seed,
        )

    cache_state = None
    if args.cache:
        plan, cache_state = CheckCache.open(args.cache_dir).plans.get_or_build(
            network,
            build,
            planner=args.planner,
            order_method=args.order_method,
            max_intermediate_size=args.max_intermediate,
            plan_budget_seconds=args.plan_budget,
            plan_seed=plan_seed,
        )
    else:
        plan = build()
    # The greedy planner never consults the order heuristic.
    order_method = args.order_method if args.planner == "order" else None
    if args.json:
        record = plan.to_dict()
        record["algorithm"] = args.algorithm
        record["order_method"] = order_method
        record["plan_cache"] = cache_state
        print(json.dumps(record))
        return 0
    print(f"algorithm        : {args.algorithm}")
    if order_method is not None:
        print(f"order method     : {order_method}")
    if cache_state is not None:
        print(f"plan cache       : {cache_state}")
    print(plan.report(max_steps=args.max_steps))
    return 0


def _cmd_plan_compare(args, network, plan_seed: int) -> int:
    """Race every registered planner on one network (``plan --compare``).

    Search planners run under ``--plan-budget``/``--plan-seed``; the
    heuristic planners plan as usual.  The cheapest plan is starred.
    Every row carries a span trace of its planning run (``trace`` in the
    JSON form, a summary section in the report) — the search planners'
    ``plan.search`` spans show where the budget went.
    """
    from .trace import TraceRecorder, recording, span as trace_span, span_tree

    rows = []
    traces = []
    for planner in PLANNERS:
        recorder = TraceRecorder()
        started = time.perf_counter()
        with recording(recorder):
            with trace_span("plan.build", planner=planner) as build_span:
                plan = build_plan(
                    network,
                    planner=planner,
                    order_method=args.order_method,
                    max_intermediate_size=args.max_intermediate,
                    plan_budget_seconds=args.plan_budget,
                    plan_seed=plan_seed,
                )
                build_span.set(
                    cost=plan.total_cost(), slices=plan.num_slices()
                )
        seconds = time.perf_counter() - started
        report = plan.search_report
        rows.append({
            "planner": planner,
            "order_method": (
                args.order_method if planner == "order" else None
            ),
            "total_cost": plan.total_cost(),
            "peak_intermediate_size": plan.peak_size(),
            "num_slices": plan.num_slices(),
            "plan_seconds": seconds,
            "trials": report.trials if report is not None else None,
            "trace": span_tree(recorder),
        })
        traces.append(recorder)
    best_cost = min(row["total_cost"] for row in rows)
    for row in rows:
        row["best"] = row["total_cost"] == best_cost
    if args.json:
        print(json.dumps({"algorithm": args.algorithm, "planners": rows}))
        return 0
    print(f"algorithm        : {args.algorithm}")
    print(
        f"{'planner':<10} {'cost':>14} {'peak':>10} {'slices':>7} "
        f"{'time_s':>8} {'trials':>7}"
    )
    for row in rows:
        name = row["planner"] + ("*" if row["best"] else "")
        trials = "-" if row["trials"] is None else str(row["trials"])
        print(
            f"{name:<10} {row['total_cost']:>14} "
            f"{row['peak_intermediate_size']:>10} "
            f"{row['num_slices']:>7} {row['plan_seconds']:>8.3f} "
            f"{trials:>7}"
        )
    print("trace:")
    for row, recorder in zip(rows, traces):
        # top-level spans only: trial batches would drown the summary
        parts = []
        for span in recorder.spans:
            if span.name == "plan.search.trials":
                continue
            attrs = ", ".join(
                f"{key}={value}"
                for key, value in span.attributes.items()
                if key != "planner"
            )
            note = f" ({attrs})" if attrs else ""
            parts.append(
                f"{span.name} {span.duration_ns / 1e6:.1f}ms{note}"
            )
        print(f"  {row['planner']:<10} {'; '.join(parts)}")
    return 0


def cmd_backends(args) -> int:
    availability = backend_availability()
    if args.json:
        print(json.dumps({
            name: {"available": missing is None, "missing": missing}
            for name, missing in availability.items()
        }))
        return 0
    for name, missing in availability.items():
        if missing is None:
            print(f"{name:14s} available")
        else:
            print(f"{name:14s} unavailable ({missing})")
    return 0


def _cache_stats(args, store, remote) -> int:
    stats = store.stats()
    kinds = count_by_kind(store.keys())
    # Per-tier breakdown: the local disk tier plus (when --cache-url is
    # given) the shared remote tier, each in CacheStats wire form.  The
    # raw server record rides along as "remote" so operators see the
    # server's own hit/miss/request counters, not just this client's.
    tiers = [stats] + ([] if remote is None else [remote.stats()])
    server = remote.server_stats() if remote is not None else None
    if args.json:
        record = stats.to_dict()
        record["kinds"] = kinds
        record["tiers"] = [tier.to_dict() for tier in tiers]
        if server is not None:
            record["remote"] = server
        print(json.dumps(record))
        return 0
    print(f"directory : {stats.directory}")
    print(
        f"entries   : {stats.entries} "
        f"({kinds['plans']} plans, {kinds['results']} results"
        + (f", {kinds['other']} other" if kinds["other"] else "")
        + ")"
    )
    print(f"bytes     : {stats.total_bytes}")
    if server is not None:
        remote_stats = server.get("stats", {})
        requests = server.get("requests", {})
        print(
            f"remote    : {args.cache_url} — "
            f"{remote_stats.get('entries', 0)} entries, "
            f"{remote_stats.get('total_bytes', 0)} bytes, "
            f"{remote_stats.get('hits', 0)} hits, "
            f"{remote_stats.get('misses', 0)} misses"
        )
        if requests:
            print(
                "requests  : " + ", ".join(
                    f"{name} {count}"
                    for name, count in sorted(requests.items())
                )
            )
    return 0


def cmd_cache(args) -> int:
    store = DiskStore(args.cache_dir)
    remote = None
    if getattr(args, "cache_url", None):
        # Admin commands want the truth: an unreachable server is a
        # typed error here, not the checker's silent fail-open fallback.
        from .cluster import RemoteStore

        remote = RemoteStore(args.cache_url, fail_open=False)
    try:
        if args.cache_command == "stats":
            return _cache_stats(args, store, remote)
        if args.cache_command == "clear":
            removed = store.clear()
            remote_note = ""
            if remote is not None:
                remote_note = (
                    f" and {remote.clear()} entries from {args.cache_url}"
                )
            print(
                f"removed {removed} entries from {store.directory}"
                + remote_note
            )
            return 0
        if args.cache_command == "prune":
            if args.max_bytes < 0:
                print("--max-bytes must be non-negative", file=sys.stderr)
                return 2
            removed = store.prune(args.max_bytes)
            remaining = store.stats()
            print(
                f"pruned {removed} entries from {store.directory}; "
                f"{remaining.entries} entries / {remaining.total_bytes} "
                "bytes remain"
            )
            if remote is not None:
                removed = remote.prune(args.max_bytes)
                remaining = remote.stats()
                print(
                    f"pruned {removed} entries from {args.cache_url}; "
                    f"{remaining.entries} entries / "
                    f"{remaining.total_bytes} bytes remain"
                )
            return 0
        raise AssertionError("unreachable")
    except ReproError as exc:
        return _print_error(exc)
    finally:
        if remote is not None:
            remote.close()


def _run_daemon(server) -> int:
    """Serve one daemon in the foreground until SIGTERM/SIGINT."""
    import asyncio

    from .daemon import run_until_signalled

    try:
        asyncio.run(run_until_signalled(server))
    except KeyboardInterrupt:
        pass  # SIGINT on platforms without loop signal handlers
    except OSError as exc:  # port in use, privileged bind, ...
        print(f"error [serve_failed]: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_cache_server(args) -> int:
    from .cluster import CacheServer

    if args.memory_entries is not None and args.memory_entries < 1:
        print("--memory-entries must be at least 1", file=sys.stderr)
        return 2
    kwargs = {"cache_dir": args.cache_dir}
    if args.memory_entries is not None:
        kwargs["memory_entries"] = args.memory_entries
    return _run_daemon(CacheServer(host=args.host, port=args.port, **kwargs))


def cmd_worker(args) -> int:
    from .cluster import EXIT_AFTER_ENV, WorkerServer

    if args.heartbeat_interval is not None and args.heartbeat_interval <= 0:
        print("--heartbeat-interval must be positive", file=sys.stderr)
        return 2
    fail_after = os.environ.get(EXIT_AFTER_ENV)
    kwargs = {}
    if args.heartbeat_interval is not None:
        kwargs["heartbeat_interval"] = args.heartbeat_interval
    if fail_after:
        kwargs["fail_after_chunks"] = int(fail_after)
    return _run_daemon(WorkerServer(host=args.host, port=args.port, **kwargs))


def cmd_serve(args) -> int:
    from .service import ReproService, ServiceConfig

    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            request_timeout=args.request_timeout,
        )
    except ValueError as exc:
        print(f"error [invalid_request]: {exc}", file=sys.stderr)
        return 2
    engine = _engine_from(args, jobs=args.jobs)
    try:
        return _run_daemon(ReproService(engine, config))
    finally:
        # a clean shutdown already closed it (idempotent); an interrupt
        # or a failed bind must not leak the engine's worker pool
        engine.close()


#: One parsed manifest row.  Exactly one of ``error`` (unparseable row),
#: ``request`` (a JSON wire-schema request object) or ``ideal`` (a
#: classic path pair, ``noisy`` optional) is populated.
ManifestRow = namedtuple("ManifestRow", "lineno ideal noisy error request")


def iter_manifest(path):
    """Yield one :class:`ManifestRow` per non-blank manifest line.

    Two row forms, freely mixed: classic ``ideal.qasm [noisy.qasm]``
    pairs ('#' starts a comment), and JSON objects (lines starting with
    ``{``) parsed as wire-schema check requests.  Malformed rows are
    *reported*, not raised: batch runs isolate per-row failures, so a
    typo on line 40 cannot take down lines 1–39.
    """
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if stripped.startswith("{"):
                # JSON rows skip comment stripping: '#' may legitimately
                # appear inside QASM text or parameter strings.
                try:
                    payload = json.loads(stripped)
                except json.JSONDecodeError as exc:
                    yield ManifestRow(lineno, None, None, (
                        f"{path}:{lineno}: bad JSON request row: {exc}"
                    ), None)
                    continue
                yield ManifestRow(lineno, None, None, None, payload)
                continue
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) > 2:
                yield ManifestRow(lineno, None, None, (
                    f"{path}:{lineno}: expected 'ideal.qasm [noisy.qasm]' "
                    f"or a JSON request object, got {len(parts)} fields"
                ), None)
                continue
            yield ManifestRow(lineno, parts[0], (
                parts[1] if len(parts) == 2 else None
            ), None, None)


def read_manifest(path):
    """Yield ``(ideal_path, noisy_path_or_None)`` entries of a manifest.

    The strict path-pair form of :func:`iter_manifest`: malformed rows
    raise ``ValueError`` (library callers who want fail-fast behaviour),
    and JSON request rows are rejected — parse those with
    :meth:`repro.api.CheckRequest.from_dict` via :func:`iter_manifest`.
    """
    for row in iter_manifest(path):
        if row.error is not None:
            raise ValueError(row.error)
        if row.request is not None:
            raise ValueError(
                "manifest contains JSON request rows; iterate with "
                "iter_manifest and parse them with CheckRequest.from_dict"
            )
        yield row.ideal, row.noisy


def cmd_batch(args) -> int:
    # The engine owns the --jobs worker pool; close it deterministically
    # rather than racing interpreter teardown.
    with _engine_from(args, jobs=args.jobs) as engine:
        try:
            return _run_batch(args, engine)
        except ReproError as error:
            # a bad *flag* (e.g. --noises -1) fails before any row runs;
            # per-row failures are isolated into ERROR records inside
            return _print_error(error)


def _run_batch(args, engine: Engine) -> int:
    start = time.perf_counter()
    if engine.cache_url is not None:
        from .cluster import metrics as cluster_metrics

        remote_before = cluster_metrics.counters_snapshot()
    rows = list(iter_manifest(args.manifest))  # row metadata only

    totals = {"checked": 0, "equivalent": 0, "errors": 0}
    # the same cumulative counter the service's /metrics endpoint uses
    aggregate = StatsAggregator()

    # JSON rows inherit absent fields from the CLI flags.  The base
    # request needs *some* ideal spec to construct; rows are required
    # to name their own (checked against the raw payload below), so
    # this placeholder never resolves.
    base_request = _request_from(args, CircuitSpec.inline(""))

    def manifest_error(message):
        # One wire shape for every error record: the same
        # ReproError.to_dict the engine path uses, with the historical
        # "ManifestError" type label for unparseable rows.
        return InvalidRequestError(
            message, error_type="ManifestError"
        ).to_dict()

    # One entry per manifest row: (lineno, ideal-label, noisy-label,
    # request-or-None, error-record-or-None).  Requests stay lazy —
    # circuits load inside the engine — so serial runs keep streaming.
    entries = []
    for row in rows:
        if row.error is not None:
            entries.append((row.lineno, row.ideal, row.noisy, None,
                            manifest_error(row.error)))
            continue
        if row.request is not None:
            try:
                # the raw payload must name its own ideal — the base
                # request's placeholder never stands in for it
                if not isinstance(row.request, dict) or row.request.get(
                    "ideal"
                ) is None:
                    raise InvalidRequestError(
                        f"{args.manifest}:{row.lineno}: request row is "
                        "missing 'ideal'"
                    )
                request = CheckRequest.from_dict(
                    row.request, base=base_request
                )
            except ReproError as exc:
                entries.append((row.lineno, None, None, None,
                                exc.to_dict()))
                continue
            noisy_label = (request.noisy or request.ideal).describe()
            entries.append((row.lineno, request.ideal.describe(),
                            noisy_label, request, None))
        else:
            request = _request_from(
                args,
                CircuitSpec.from_path(row.ideal),
                CircuitSpec.from_path(row.noisy) if row.noisy else None,
            )
            entries.append((row.lineno, row.ideal, row.noisy or row.ideal,
                            request, None))

    def emit(position, lineno, ideal_label, noisy_label, record):
        if record["verdict"] == "ERROR":
            totals["errors"] += 1
        else:
            totals["checked"] += 1
            totals["equivalent"] += int(record["equivalent"])
        # index = position in the manifest (error rows included), so it
        # stays joinable to the input; engine-stream indices would skip
        # the rows that never reached the engine.
        record["index"] = position
        record["line"] = lineno
        record["ideal"] = ideal_label
        record["noisy"] = noisy_label or ideal_label
        print(json.dumps(record), flush=True)

    # Every check routes through the engine: error-isolating, input
    # order preserved, fanned out to the shared pool when --jobs > 1
    # (each record still prints as soon as its check finishes on the
    # serial path).
    responses = engine.check_iter(
        entry[3] for entry in entries if entry[3] is not None
    )
    for position, (lineno, ideal_label, noisy_label, request,
                   error) in enumerate(entries):
        if error is not None:
            emit(position, lineno, ideal_label, noisy_label, error)
            continue
        response = next(responses)
        aggregate.add(response.stats)
        emit(position, lineno, ideal_label, noisy_label,
             response.to_dict())

    wall = time.perf_counter() - start
    snapshot = aggregate.snapshot()
    cache_note = ""
    if engine.cache is not None:
        cache_note = (
            f", plan hits {int(snapshot['plan_cache_hits'])}, "
            f"result hits {int(snapshot['result_cache_hits'])}"
        )
        if engine.cache_url is not None:
            # process-wide cluster counters; the delta over this batch
            from .cluster import metrics as cluster_metrics

            after = cluster_metrics.counters_snapshot()
            remote_hits = (
                after["remote_cache_hits"]
                - remote_before["remote_cache_hits"]
            )
            cache_note += f", remote hits {remote_hits}"
    print(
        f"batch: {len(rows)} rows, {totals['checked']} checked, "
        f"{totals['equivalent']} equivalent, "
        f"{totals['checked'] - totals['equivalent']} not equivalent, "
        f"{totals['errors']} errors; wall {wall:.3f}s, "
        f"cpu {snapshot['cpu_seconds']:.3f}s, jobs={args.jobs}{cache_note}",
        file=sys.stderr,
    )
    if totals["errors"]:
        return 2
    return 0 if totals["equivalent"] == totals["checked"] else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "check":
        return cmd_check(args)
    if args.command == "fidelity":
        return cmd_fidelity(args)
    if args.command == "batch":
        return cmd_batch(args)
    if args.command == "plan":
        return cmd_plan(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "cache-server":
        return cmd_cache_server(args)
    if args.command == "worker":
        return cmd_worker(args)
    if args.command == "cache":
        return cmd_cache(args)
    if args.command == "backends":
        return cmd_backends(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
