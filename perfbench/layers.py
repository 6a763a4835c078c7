"""Per-layer timing from outside the program.

:class:`LayerProbe` wraps public functions of each ``repro`` module
in-process (nothing under ``src/`` changes) and keeps, per request, the
*self time* of every wrapped call: its duration minus the part spent in
wrapped calls nested inside it.  Self times of all layers plus the
unattributed remainder add up to the request's wall time, so layer
shares of a workload's latency can be read directly.

A hook whose target no longer exists is reported in
:attr:`LayerProbe.missing` and its layer reads 0, so a refactor that
moves a function shows up as a warning instead of a crash.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute path) of every timed call.
HOOKS: List[Tuple[str, str, str]] = [
    ("api.resolve", "repro.api.request", "CircuitSpec.resolve"),
    ("api.resolve", "repro.api.engine", "apply_noise"),
    ("cache.fingerprint", "repro.cache.results", "request_fingerprint"),
    ("cache.get", "repro.cache.results", "ResultCache.get"),
    ("cache.put", "repro.cache.results", "ResultCache.put"),
    ("miter.build", "repro.core.algorithm2", "alg2_trace_network"),
    ("miter.build", "repro.core.algorithm1", "alg1_template"),
    ("plan", "repro.backends.base", "ContractionBackend.plan_for"),
    ("compile", "repro.backends.xp", "compile_plan"),
    ("execute", "repro.backends.einsum", "NumpyEinsumBackend.contract_scalar"),
    ("execute", "repro.backends.tdd", "TddBackend.contract_scalar"),
    ("alg1.loop", "repro.core.session", "fidelity_individual"),
]

#: Layer -> the ``repro.trace`` phase covering the same work.
PHASE_OF_LAYER = {
    "api.resolve": "resolve",
    "cache.fingerprint": "cache",
    "cache.get": "cache",
    "cache.put": "cache",
    "plan": "plan",
    "compile": "compile",
    "execute": "execute",
}

LAYERS = sorted({layer for layer, _, _ in HOOKS})


def _resolve(module_name: str, path: str):
    """(owner, attribute name, current value) of a hook target."""
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name, getattr(owner, name)


class _Patches:
    """Attribute replacements that can be undone."""

    def __init__(self):
        self.saved: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def replace(self, module_name: str, path: str, make: Callable):
        try:
            owner, name, original = _resolve(module_name, path)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{path}")
            return
        self.saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def undo(self) -> None:
        for owner, name, original in reversed(self.saved):
            setattr(owner, name, original)
        self.saved.clear()


@contextmanager
def count_calls(module_name: str, path: str):
    """Count calls of one function (no timing); yields the counter.

    ``counter["missing"]`` is True when the target does not exist.
    """
    counter = {"calls": 0, "missing": False}
    patches = _Patches()

    def make(original):
        @functools.wraps(original)
        def counted(*args, **kwargs):
            counter["calls"] += 1
            return original(*args, **kwargs)
        return counted

    patches.replace(module_name, path, make)
    counter["missing"] = bool(patches.missing)
    try:
        yield counter
    finally:
        patches.undo()


class RequestLayers:
    """Self seconds per layer and counters for one request."""

    def __init__(self):
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)

    def attributed(self) -> float:
        return sum(self.seconds.values())


class LayerProbe:
    """Install with ``with probe:``; bracket each request with
    :meth:`request`."""

    def __init__(self):
        self._patches = _Patches()
        self._stack: List[List[float]] = []
        #: the open request's record; None between requests, so the
        #: benchmark's own calls (input generation) are never charged
        self.current: Optional[RequestLayers] = None

    @property
    def missing(self) -> List[str]:
        return self._patches.missing

    @contextmanager
    def request(self):
        self.current = RequestLayers()
        self._stack.clear()
        try:
            yield self.current
        finally:
            self.current = None

    def __enter__(self) -> "LayerProbe":
        for layer, module_name, path in HOOKS:
            self._patches.replace(
                module_name, path,
                lambda original, layer=layer: self._timed(layer, original),
            )
        return self

    def __exit__(self, *exc_info) -> None:
        self._patches.undo()

    # --- wrappers -------------------------------------------------------------

    def _timed(self, layer: str, original: Callable) -> Callable:
        observe = _OBSERVERS.get(layer)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            record = self.current
            if record is None:
                return original(*args, **kwargs)
            frame = [0.0]  # seconds spent in nested wrapped calls
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                record.seconds[layer] += elapsed - frame[0]
            if observe is not None:
                observe(record, args, kwargs, result)
            return result

        return timed


# --- what each layer records besides time -------------------------------------


def _observe_miter(rec: RequestLayers, args, kwargs, result) -> None:
    network = getattr(result, "network", result)  # Alg1Template or network
    tensors = getattr(network, "tensors", None)
    if tensors is None:
        return
    rec.counts["miter.networks"] += 1
    rec.counts["miter.tensors"] += len(tensors)
    rec.counts["miter.rank2_tensors"] += sum(
        1 for tensor in tensors if len(tensor.indices) == 2
    )


def _observe_plan(rec: RequestLayers, args, kwargs, plan) -> None:
    rec.counts["plan.calls"] += 1
    rec.counts["plan.predicted_flops"] += plan.total_cost()
    rec.counts["plan.peak_size"] += plan.peak_size()
    rec.counts["plan.slices"] += plan.num_slices()


def _stats_arg(args, kwargs):
    if "stats" in kwargs:
        return kwargs["stats"]
    return args[2] if len(args) > 2 else None


def _observe_execute(rec: RequestLayers, args, kwargs, result) -> None:
    stats = _stats_arg(args, kwargs)
    if stats is None:
        return
    rec.counts["execute.predicted_flops"] += stats.predicted_cost
    rec.maxima["execute.max_intermediate_size"] = max(
        rec.maxima["execute.max_intermediate_size"],
        stats.max_intermediate_size,
    )
    rec.maxima["tdd.max_nodes"] = max(
        rec.maxima["tdd.max_nodes"], stats.max_nodes
    )


def _observe_alg1(rec: RequestLayers, args, kwargs, result) -> None:
    rec.counts["alg1.calls"] += 1
    rec.counts["alg1.terms"] += result.stats.terms_computed


def _observe_cache_get(rec: RequestLayers, args, kwargs, result) -> None:
    rec.counts["cache.lookups"] += 1
    if result is not None:
        rec.counts["cache.hits"] += 1


_OBSERVERS = {
    "miter.build": _observe_miter,
    "plan": _observe_plan,
    "execute": _observe_execute,
    "alg1.loop": _observe_alg1,
    "cache.get": _observe_cache_get,
}


# --- per-layer metrics ----------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    records: List[RequestLayers],
    traced_latencies: List[float],
    untraced_latencies: List[float],
    disagreement: Optional[float],
    plan_builds: int,
    disk_hits: int,
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of one traced phase, name -> (value, unit).

    Times are means per timed request in ms (a layer a request never
    entered counts 0 for it), so they add up with
    ``engine.unattributed_ms`` to the traced mean latency.
    ``plan_builds`` and ``disk_hits`` are the phase's planner runs and
    disk-tier result hits, as the round self-checks counted them.
    """
    n = max(1, len(records))

    def total(key: str, field: str = "counts") -> float:
        return sum(getattr(rec, field)[key] for rec in records)

    def ms(layer: str) -> float:
        return 1e3 * total(layer, "seconds") / n

    def peak(key: str) -> float:
        return max((rec.maxima[key] for rec in records), default=0.0)

    plan_calls = total("plan.calls")
    lookups = total("cache.lookups")
    networks = total("miter.networks")
    terms = total("alg1.terms")
    attributed = sum(rec.attributed() for rec in records)
    traced_mean = sum(traced_latencies) / max(1, len(traced_latencies))
    untraced_mean = sum(untraced_latencies) / max(1, len(untraced_latencies))
    return {
        "api.resolve_ms": (ms("api.resolve"), "ms"),
        "cache.fingerprint_ms": (ms("cache.fingerprint"), "ms"),
        "cache.get_ms": (ms("cache.get"), "ms"),
        "cache.put_ms": (ms("cache.put"), "ms"),
        "cache.hit_ratio": (_ratio(total("cache.hits"), lookups), "ratio"),
        "cache.disk_hit_ratio": (
            _ratio(disk_hits, lookups), "ratio"),
        "miter.build_ms": (ms("miter.build"), "ms"),
        "miter.tensors": (_ratio(total("miter.tensors"), networks), "count"),
        "miter.rank2_tensors": (
            _ratio(total("miter.rank2_tensors"), networks), "count"),
        "plan.build_ms": (ms("plan"), "ms"),
        "plan.predicted_flops": (
            _ratio(total("plan.predicted_flops"), plan_calls), "flop"),
        "plan.peak_size": (
            _ratio(total("plan.peak_size"), plan_calls), "elements"),
        "plan.slices": (_ratio(total("plan.slices"), plan_calls), "count"),
        "plan.memo_hit_ratio": (
            _ratio(plan_calls - plan_builds, plan_calls), "ratio"),
        "compile.ms": (ms("compile"), "ms"),
        "execute.ms": (ms("execute"), "ms"),
        "execute.ns_per_flop": (
            _ratio(1e9 * total("execute", "seconds"),
                   total("execute.predicted_flops")), "ns/flop"),
        "execute.max_intermediate_size": (
            peak("execute.max_intermediate_size"), "elements"),
        "tdd.max_nodes": (peak("tdd.max_nodes"), "nodes"),
        "alg1.terms": (_ratio(terms, total("alg1.calls")), "count"),
        "alg1.us_per_term": (
            _ratio(1e6 * sum(
                rec.seconds["alg1.loop"] + rec.seconds["miter.build"]
                + rec.seconds["plan"] + rec.seconds["compile"]
                + rec.seconds["execute"]
                for rec in records if rec.counts["alg1.calls"]
            ), terms), "us"),
        "alg1.loop_ms": (ms("alg1.loop"), "ms"),
        "engine.unattributed_ms": (
            1e3 * (sum(traced_latencies) - attributed) / n, "ms"),
        "trace.overhead_ratio": (_ratio(traced_mean, untraced_mean), "ratio"),
        "trace.phase_disagreement": (
            disagreement if disagreement is not None else 0.0, "ratio"),
    }


def phase_split(rec: RequestLayers) -> Dict[str, float]:
    """The probe's own seconds per ``repro.trace`` phase for one request."""
    phases: Dict[str, float] = defaultdict(float)
    for layer, phase in PHASE_OF_LAYER.items():
        phases[phase] += rec.seconds[layer]
    return phases


def shares(records: List[RequestLayers], latencies: List[float]) -> Dict[str, float]:
    """Each layer's share of the summed latency of ``records``."""
    wall = sum(latencies)
    out = {
        layer: _ratio(sum(rec.seconds[layer] for rec in records), wall)
        for layer in LAYERS
    }
    out["unattributed"] = _ratio(
        wall - sum(rec.attributed() for rec in records), wall
    )
    return out
