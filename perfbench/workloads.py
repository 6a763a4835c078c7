"""The four ``Engine.check`` workloads: rows, request mixes and set-up.

Every workload is a closed loop of rounds.  A round is a fixed multiset
of requests, shuffled by the seed, so each row's share of the samples is
exact and the p50/p90 ranks land inside one row's latency band on every
run (the band layout is recorded next to each mix below).  The program
only sees the generated :class:`repro.CheckRequest` objects, and each
workload sets only ``backend``, ``algorithm`` and ``mode``, so changes
to any other default show up in the numbers.
"""

from __future__ import annotations

import dataclasses
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import CheckRequest, CircuitSpec, Engine, NoiseSpec
from repro.core.miter import alg2_trace_network

#: Table I circuits: library generator and its parameters.
CIRCUITS: Dict[str, Tuple[str, dict]] = {
    "grover3": ("grover", {"num_qubits": 3}),
    "7x1mod15": ("mod_mult_7x15", {}),
    "qft3": ("qft", {"num_qubits": 3}),
    "qft4": ("qft", {"num_qubits": 4}),
    "qft5": ("qft", {"num_qubits": 5}),
    "qft7": ("qft", {"num_qubits": 7}),
    "qft9": ("qft", {"num_qubits": 9}),
    "bv5": ("bernstein_vazirani", {"num_qubits": 5}),
    "bv9": ("bernstein_vazirani", {"num_qubits": 9}),
    "bv13": ("bernstein_vazirani", {"num_qubits": 13}),
    "bv16": ("bernstein_vazirani", {"num_qubits": 16}),
    "qv_n5d5": ("quantum_volume", {"num_qubits": 5, "depth": 5, "seed": 0}),
    "qv_n7d5": ("quantum_volume", {"num_qubits": 7, "depth": 5, "seed": 0}),
}

#: The paper's depolarizing keep-probability.
PAPER_P = 0.999

#: Noise seed of the fixed placements the sweeps use; fixed so that every
#: ``--seed`` runs the same networks and only ``p`` and the order vary.
FIXED_PLACEMENT_SEED = 2021

#: Distinct ``p`` values drawn per row for the sweeps.
SWEEP_POINTS = 8


@dataclass(frozen=True)
class Row:
    """One row of a mix: a circuit, its noise count and its count per round."""

    circuit: str
    noises: int
    per_round: int


def spec_of(circuit: str) -> CircuitSpec:
    library, params = CIRCUITS[circuit]
    return CircuitSpec.from_library(library, **params)


#: CircuitSpec -> Table I row name, for per-row reporting.
ROW_OF_SPEC = {spec_of(name): name for name in CIRCUITS}


def make_request(
    circuit: str, noises: int, noise_seed: int, p: float,
    mode: str, config: dict,
) -> CheckRequest:
    return CheckRequest(
        ideal=spec_of(circuit),
        noise=NoiseSpec(noises=noises, seed=noise_seed, p=p),
        mode=mode,
        config=config,
    )


def with_trace(request: CheckRequest) -> CheckRequest:
    """The same request with ``repro.trace`` switched on."""
    return dataclasses.replace(
        request, config={**dict(request.config), "trace": True}
    )


def structure_of(request: CheckRequest) -> tuple:
    """The Algorithm II network structure a request plans for."""
    ideal, noisy = request.resolve_circuits()
    return alg2_trace_network(noisy, ideal).structure_key()


class UniquePlacements:
    """Draws noise placements whose networks no earlier draw shared."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.seen: set = set()

    def draw(self, build) -> CheckRequest:
        while True:
            noise_seed = int(self.rng.integers(0, 2**31))
            request = build(noise_seed)
            # keyed like the backend's plan memo: structure alone, across
            # circuits, so no two drawn requests can share a plan
            key = structure_of(request)
            if key not in self.seen:
                self.seen.add(key)
                return request


@dataclass
class Round:
    """One closed-loop round: requests in order, plus its expected counts."""

    requests: List[CheckRequest]
    #: per-request class label ("disk", "memory", "miss" on cache_rerun)
    kinds: List[str] = field(default_factory=list)
    #: engine the round runs on (cache_rerun makes one per round)
    engine: Optional[Engine] = None


@dataclass
class Workload:
    """A named workload: how to set it up and how to make its rounds."""

    name: str
    backend: str
    #: plan builds each timed request must cause (None = not checked)
    builds_per_request: Optional[int]
    #: ``setup(state) -> None`` builds engines, warms them and fills caches
    setup: Callable[["State"], None]
    #: ``next_round(state) -> Round``
    next_round: Callable[["State"], Round]
    #: how strongly the workload's latency follows the host-speed kernel:
    #: the exponent ``s`` in ``latency ~ kernel time ** s`` (hostspeed.py)
    host_sensitivity: float


@dataclass
class State:
    """Everything one run of a workload owns."""

    seed: int
    smoke: bool
    trace: bool
    scratch: Path
    rng: np.random.Generator = None
    engine: Optional[Engine] = None
    placements: Optional[UniquePlacements] = None
    #: sweep requests per row, cycled by the rounds
    grid: Dict[str, List[CheckRequest]] = field(default_factory=dict)
    #: cache_rerun: the pool the previous batch left on disk, and the
    #: sets of requests no cache directory holds before a round runs
    pool: List[CheckRequest] = field(default_factory=list)
    misses: List[List[CheckRequest]] = field(default_factory=list)
    cache_dir: Optional[Path] = None
    rounds_made: int = 0

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


def _shuffled(state: State, items: list) -> list:
    order = state.rng.permutation(len(items))
    return [items[i] for i in order]


def _per_round(state: State, rows: List[Row]) -> List[Row]:
    if state.smoke:
        return [dataclasses.replace(row, per_round=1) for row in rows]
    return rows


def _warm(engine: Engine, requests) -> None:
    for request in requests:
        engine.check(request)


# --- cold_alg2 --------------------------------------------------------------

#: Cold latency bands on a 2-CPU x86 host: grover3 ~12 ms; bv9, 7x1mod15
#: and qft5 ~20-23 ms; bv13 ~30-55 ms; qv_n5d5 ~240-330 ms; qv_n7d5
#: ~570-920 ms.  Shares per round of 20: 10% | 60% | 10% | 15% | 5%, so
#: p50 (rank 0.50) sits inside the 20-23 ms band and p90 (rank 0.90)
#: inside qv_n5d5's.
COLD_ROWS = [
    Row("grover3", 4, 2),
    Row("bv9", 6, 4),
    Row("7x1mod15", 3, 4),
    Row("qft5", 3, 4),
    Row("bv13", 4, 2),
    Row("qv_n5d5", 3, 3),
    Row("qv_n7d5", 2, 1),
]
COLD_CONFIG = {"backend": "einsum", "algorithm": "alg2"}


def _cold_request(row: Row, noise_seed: int) -> CheckRequest:
    return make_request(
        row.circuit, row.noises, noise_seed, PAPER_P, "check", COLD_CONFIG
    )


def cold_setup(state: State) -> None:
    state.engine = Engine(jobs=1, cache=False)
    state.placements = UniquePlacements(state.rng)
    # Pays the process-level lazy costs (session, backend, first einsum)
    # on a placement the stream can never draw again.
    _warm(state.engine, [state.placements.draw(
        lambda s: _cold_request(COLD_ROWS[0], s)
    )])


def cold_round(state: State) -> Round:
    requests = [
        state.placements.draw(lambda s, row=row: _cold_request(row, s))
        for row in _per_round(state, COLD_ROWS)
        for _ in range(row.per_round)
    ]
    return Round(_shuffled(state, requests), engine=state.engine)


# --- warm_alg2_sweep --------------------------------------------------------

#: Warm (plan-memo hit) latency bands: bv16 ~5 ms, qv_n7d5 ~30 ms, qft7
#: ~135 ms, qft9 ~470 ms.  Shares per round of 20: 30% | 10% | 45% | 15%,
#: so p50 sits inside qft7's band and p90 inside qft9's, and the two
#: large contractions take ~97% of the round's time.
WARM_ROWS = [
    Row("bv16", 9, 6),
    Row("qv_n7d5", 2, 2),
    Row("qft7", 6, 9),
    Row("qft9", 2, 3),
]
WARM_CONFIG = {"backend": "einsum", "algorithm": "alg2"}

#: Algorithm I latency bands (fidelity mode, full enumeration):
#: 7x1mod15 ~22 ms (64 terms), qft5 ~27 ms (64), bv5 ~50 ms (256), qft4
#: ~58 ms (256), bv9 ~82 ms (256).  Shares per round of 20: 20% each, so
#: p50 sits inside bv5's band and p90 in the middle of bv9's.
ALG1_ROWS = [
    Row("7x1mod15", 3, 4),
    Row("qft5", 3, 4),
    Row("bv5", 4, 4),
    Row("qft4", 4, 4),
    Row("bv9", 4, 4),
]
ALG1_CONFIG = {"backend": "einsum", "algorithm": "alg1"}


def _sweep_setup(rows: List[Row], mode: str, config: dict):
    def setup(state: State) -> None:
        state.engine = Engine(jobs=1, cache=False)
        state.grid = {}
        for row in rows:
            ps = 0.990 + 0.0095 * state.rng.random(SWEEP_POINTS)
            state.grid[row.circuit] = [
                make_request(
                    row.circuit, row.noises, FIXED_PLACEMENT_SEED,
                    float(p), mode, config,
                )
                for p in ps
            ]
        # Plans (and compiles) every row once; the timed stream then only
        # changes p, which keeps the structure, so the plan memo answers.
        first = [state.grid[row.circuit][0] for row in rows]
        _warm(state.engine, first)
        if state.trace:
            # A traced request is a different config, hence its own
            # session and plan memo, which must be warm as well.
            _warm(state.engine, [with_trace(r) for r in first])

    return setup


def _sweep_round(rows: List[Row]):
    def next_round(state: State) -> Round:
        requests = []
        for row in _per_round(state, rows):
            grid = state.grid[row.circuit]
            for i in range(row.per_round):
                position = state.rounds_made * row.per_round + i
                requests.append(grid[position % len(grid)])
        return Round(_shuffled(state, requests), engine=state.engine)

    return next_round


# --- cache_rerun ------------------------------------------------------------

#: Rows the previous batch checked (the pool on disk), two placements each.
POOL_ROWS = [Row("qft3", 3, 2), Row("bv5", 3, 2),
             Row("grover3", 4, 2), Row("7x1mod15", 3, 2)]
#: Rows of the never-seen requests (tdd misses at ~13-20 ms), asked
#: ``per_round`` times each per round.
MISS_ROWS = [Row("qft3", 3, 4), Row("bv5", 3, 4), Row("grover3", 4, 4)]
#: Rounds rotate through this many sets of miss placements, so the p90
#: (the middle of the miss band) averages over 16 placements per row
#: instead of resting on the few one seed happened to draw.
MISS_SETS = 4
#: Each pool entry is asked this many times per round: once from disk,
#: then from memory.
POOL_TOUCHES = 6
#: Mix per round of 60: 8 disk hits (13%), 40 memory hits (67%), 12
#: misses (20%).  Memory hits (~0.4 ms) are the fastest band, disk hits
#: (~0.6-0.9 ms) the next, misses (~13-20 ms) the slowest, so p50 sits
#: inside the memory-hit band and p90 in the middle of the miss band.
CACHE_CONFIG: dict = {}


def _cache_request(row: Row, noise_seed: int) -> CheckRequest:
    return make_request(
        row.circuit, row.noises, noise_seed, PAPER_P, "check", CACHE_CONFIG
    )


def _cache_engine(directory: Path) -> Engine:
    # cache_url="" pins the chain to memory -> disk: a $REPRO_CACHE_URL in
    # the environment must not add a remote tier to the measurement.
    return Engine(jobs=1, cache=True, cache_dir=str(directory), cache_url="")


def _draw_rows(state: State, rows: List[Row]) -> List[CheckRequest]:
    """Fresh never-seen requests: ``per_round`` of each row (smoke: the
    first two rows, once each)."""
    if state.smoke:
        rows = [dataclasses.replace(row, per_round=1) for row in rows[:2]]
    return [
        state.placements.draw(lambda s, row=row: _cache_request(row, s))
        for row in rows
        for _ in range(row.per_round)
    ]


def cache_setup(state: State) -> None:
    state.cache_dir = state.scratch / f"cache-{state.seed}"
    shutil.rmtree(state.cache_dir, ignore_errors=True)
    state.placements = UniquePlacements(state.rng)
    state.pool = _draw_rows(state, POOL_ROWS)
    state.misses = [_draw_rows(state, MISS_ROWS)
                    for _ in range(1 if state.smoke else MISS_SETS)]
    # The previous batch run: computes the pool and leaves it on disk.
    with _cache_engine(state.cache_dir / "pool") as previous:
        _warm(previous, state.pool)


def cache_round(state: State) -> Round:
    """One rerun of the batch: a fresh Engine over a fresh copy of the
    previous batch's cache directory, so the same misses stay never-seen
    in every round."""
    touches = 2 if state.smoke else POOL_TOUCHES
    misses = state.misses[state.rounds_made % len(state.misses)]
    # Shuffle every request, then relabel so the first touch of each pool
    # entry is the disk hit and its later touches are memory hits.
    items = [("pool", i) for i in range(len(state.pool))] * touches
    items += [("miss", i) for i in range(len(misses))]
    requests, kinds, touched = [], [], set()
    for source, i in _shuffled(state, items):
        if source == "miss":
            requests.append(misses[i])
            kinds.append("miss")
        else:
            requests.append(state.pool[i])
            kinds.append("memory" if i in touched else "disk")
            touched.add(i)
    if state.engine is not None:
        state.engine.close()
    directory = state.cache_dir / "rerun"
    shutil.rmtree(directory, ignore_errors=True)
    shutil.copytree(state.cache_dir / "pool", directory)
    state.engine = _cache_engine(directory)
    return Round(requests, kinds, engine=state.engine)


#: Why each workload exists is recorded in BENCHMARK.json; the layer ->
#: end-to-end predictions in rationale.json.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("cold_alg2", "einsum", 1, cold_setup, cold_round, 0.85),
        Workload(
            "warm_alg2_sweep", "einsum", 0,
            _sweep_setup(WARM_ROWS, "check", WARM_CONFIG),
            _sweep_round(WARM_ROWS), 0.55,
        ),
        Workload(
            "alg1_sweep", "einsum", 0,
            _sweep_setup(ALG1_ROWS, "fidelity", ALG1_CONFIG),
            _sweep_round(ALG1_ROWS), 1.0,
        ),
        Workload("cache_rerun", "tdd", None, cache_setup, cache_round, 1.0),
    )
}
