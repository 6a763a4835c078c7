"""Cost of going remote: cache-tier latency and executor overhead.

Everything here runs on one machine (in-process daemons on loopback via
:class:`~repro.daemon.ServerThread`), so the numbers measure
the *subsystem's* overhead — framing, pickling, socket round-trips,
dispatch threads — with zero real network latency and zero real extra
cores.  On a 1-CPU container the remote executor cannot win wall-clock;
the honest questions it answers are "what does a remote cache
round-trip cost next to a local disk hit?" and "how much does shipping
slices over sockets add to a contraction that gains nothing from it?".
On a real fleet the same overhead is what extra cores must amortise.

``remote_cache``
    put/get p50/p99 per payload size for a bare :class:`DiskStore`
    versus a :class:`RemoteStore` talking to a live cache server, plus
    the miss cost (one full round-trip answering nothing).
``remote_executor``
    the sliced qft(3) miter contracted by ``SerialExecutor`` versus
    ``RemoteSliceExecutor`` over two loopback workers, with the
    chunk/dispatch counters and the per-slice added cost; agreement to
    1e-9 is asserted while we are at it.

Usage::

    python benchmarks/bench_cluster.py
    python benchmarks/bench_cluster.py --repeats 30 --contractions 3
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from repro.backends import get_backend  # noqa: E402
from repro.cache.store import DiskStore  # noqa: E402
from repro.cluster import (  # noqa: E402
    CacheServer,
    RemoteSliceExecutor,
    RemoteStore,
    ServerThread,
    WorkerServer,
    counters_snapshot,
    reset_counters,
)
from repro.core.miter import algorithm_network  # noqa: E402
from repro.library import qft  # noqa: E402
from repro.noise import insert_random_noise  # noqa: E402
from repro.parallel import SerialExecutor  # noqa: E402
from repro.tensornet import build_plan, slice_plan  # noqa: E402

PAYLOAD_SIZES = {"1KiB": 1 << 10, "64KiB": 1 << 16}


def percentiles(samples):
    ordered = sorted(samples)
    return {
        "p50_ms": statistics.median(ordered) * 1000.0,
        "p99_ms": ordered[min(len(ordered) - 1,
                              int(len(ordered) * 0.99))] * 1000.0,
        "mean_ms": statistics.fmean(ordered) * 1000.0,
        "n": len(ordered),
    }


def timed(operation, repeats):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        operation()
        samples.append(time.perf_counter() - start)
    return percentiles(samples)


def bench_store(store, payload, repeats, key_prefix):
    """put / warm-get / miss-get latency against one CacheStore tier."""
    keys = [f"{key_prefix}-{index:04d}" for index in range(repeats)]
    iterator = iter(keys)
    puts = timed(lambda: store.put(next(iterator), payload), repeats)
    iterator = iter(keys)
    gets = timed(lambda: store.get(next(iterator)), repeats)
    misses = timed(lambda: store.get(f"{key_prefix}-absent"), repeats)
    assert store.get(keys[0]) == payload
    return {"put": puts, "get_hit": gets, "get_miss": misses}


def bench_remote_cache(tmp_path, repeats):
    report = {}
    for label, size in PAYLOAD_SIZES.items():
        payload = os.urandom(size)

        disk = DiskStore(tmp_path / f"disk-{label}")
        report.setdefault("disk", {})[label] = bench_store(
            disk, payload, repeats, "bench"
        )

        server = ServerThread(CacheServer(
            cache_dir=tmp_path / f"remote-{label}",
            log_stream=io.StringIO(),
        ))
        server.start()
        store = RemoteStore(server.url)
        try:
            report.setdefault("remote", {})[label] = bench_store(
                store, payload, repeats, "bench"
            )
        finally:
            store.close()
            server.stop()

        local = report["disk"][label]["get_hit"]["p50_ms"]
        remote = report["remote"][label]["get_hit"]["p50_ms"]
        report.setdefault("ratio_get_hit_p50", {})[label] = remote / local
    report["note"] = (
        "the cache server fronts a memory tier, so a hot remote get is "
        "one loopback round-trip + dict lookup and can beat a cold "
        "DiskStore read (which pays file open + integrity check) on "
        "larger payloads"
    )
    return report


def sliced_workload():
    ideal = qft(3)
    noisy = insert_random_noise(ideal, 2, seed=0)
    network = algorithm_network(noisy, ideal, "alg2")
    plan = build_plan(network)
    sliced = slice_plan(plan, max(1, plan.peak_size() // 4))
    return network, sliced


def bench_remote_executor(contractions):
    network, plan = sliced_workload()

    serial_backend = get_backend("dense", executor=SerialExecutor())
    reference = serial_backend.contract_scalar(network, plan=plan)
    serial = timed(
        lambda: serial_backend.contract_scalar(network, plan=plan),
        contractions,
    )

    workers = [
        ServerThread(WorkerServer(log_stream=io.StringIO()))
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    reset_counters()
    try:
        executor = RemoteSliceExecutor(
            [worker.url for worker in workers], chunk_size=3
        )
        try:
            remote_backend = get_backend("dense", executor=executor)
            value = remote_backend.contract_scalar(network, plan=plan)
            assert abs(value - reference) < 1e-9, (value, reference)
            remote = timed(
                lambda: remote_backend.contract_scalar(network, plan=plan),
                contractions,
            )
        finally:
            executor.close()
    finally:
        for worker in workers:
            worker.stop()
    counters = counters_snapshot()
    assert counters["remote_workers_lost"] == 0, counters

    num_slices = plan.num_slices()
    added_ms = remote["p50_ms"] - serial["p50_ms"]
    return {
        "workload": {
            "circuit": "qft3",
            "num_noises": 2,
            "num_slices": num_slices,
        },
        "serial": serial,
        "remote_two_workers": remote,
        "overhead_ratio_p50": remote["p50_ms"] / serial["p50_ms"],
        "added_ms_per_contraction": added_ms,
        "added_ms_per_slice": added_ms / num_slices,
        "counters": {
            key: value for key, value in counters.items()
            if key.startswith("remote_") and value
        },
        "note": (
            "one CPU, loopback sockets: the remote path pays pickling + "
            "framing + dispatch with no parallel speedup available, so "
            "ratio > 1 is expected; on a fleet the same added cost is "
            "the break-even bar for extra cores"
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=60,
                        help="cache operations per percentile sample")
    parser.add_argument("--contractions", type=int, default=5,
                        help="full contractions per executor sample")
    parser.add_argument("--output", default=None,
                        help="output path (default: BENCH_cluster.json "
                        "at the repo root)")
    args = parser.parse_args(argv)

    import pathlib
    import shutil
    import tempfile

    scratch = pathlib.Path(tempfile.mkdtemp(prefix="bench-cluster-"))
    try:
        report = {
            "remote_cache": bench_remote_cache(scratch, args.repeats),
            "remote_executor": bench_remote_executor(args.contractions),
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    cache = report["remote_cache"]
    for label in PAYLOAD_SIZES:
        print(
            f"cache {label}: disk get "
            f"{cache['disk'][label]['get_hit']['p50_ms']:.3f} ms, remote "
            f"get {cache['remote'][label]['get_hit']['p50_ms']:.3f} ms "
            f"({cache['ratio_get_hit_p50'][label]:.1f}x)",
            file=sys.stderr,
        )
    executor = report["remote_executor"]
    print(
        f"executor: serial {executor['serial']['p50_ms']:.1f} ms, remote "
        f"{executor['remote_two_workers']['p50_ms']:.1f} ms "
        f"({executor['overhead_ratio_p50']:.2f}x, "
        f"{executor['added_ms_per_slice']:.3f} ms/slice added)",
        file=sys.stderr,
    )

    output = args.output or os.path.join(
        os.path.dirname(__file__.rsplit("/", 1)[0]) or ".",
        "BENCH_cluster.json",
    )
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
