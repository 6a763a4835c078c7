"""Shared fixtures for the cluster subsystem tests.

Every server here runs *in this process* on a background event loop
(:class:`~repro.daemon.ServerThread`) — fast, deterministic
teardown, no subprocess management.  The subprocess-based simulated
fleet lives in ``test_fleet.py``.
"""

import pytest

from repro.backends import get_backend
from repro.cluster import reset_counters
from repro.core.miter import algorithm_network
from repro.library import qft
from repro.noise import insert_random_noise
from repro.tensornet import build_plan, slice_plan

from cluster_helpers import start_cache_server, start_worker


@pytest.fixture(autouse=True)
def _fresh_cluster_counters():
    """The cluster counters are process-global; isolate per-test deltas."""
    reset_counters()
    yield
    reset_counters()


@pytest.fixture
def cache_server(tmp_path):
    handle = start_cache_server(cache_dir=tmp_path / "remote-tier")
    try:
        yield handle
    finally:
        handle.stop()


@pytest.fixture
def worker_pair():
    workers = [start_worker(), start_worker()]
    try:
        yield workers
    finally:
        for worker in workers:
            worker.stop()


@pytest.fixture(scope="module")
def sliced_workload():
    """A qft(3) alg2 network plus a plan sliced into many subplans."""
    ideal = qft(3)
    noisy = insert_random_noise(ideal, 2, seed=0)
    network = algorithm_network(  # unshrunk: large enough to slice
        noisy, ideal, "alg2", use_local_optimisations=False
    )
    plan = build_plan(network)
    sliced = slice_plan(plan, max(1, plan.peak_size() // 4))
    assert sliced.num_slices() > 4  # the fleet must have work to split
    return network, sliced


@pytest.fixture(scope="module")
def reference(sliced_workload):
    network, _ = sliced_workload
    return get_backend("dense").contract_scalar(network)
