"""Property tests: parallel slice execution ≡ serial execution.

Random closed qubit-dimension networks (the TDD engine requires dim-2
indices) are planned, sliced hard, and executed three ways — inline,
through :class:`SerialExecutor`, and through a shared 2-worker
:class:`ProcessSliceExecutor` — on all three backends.  Everything must
agree with the direct dense contraction to 1e-9.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.parallel import ProcessSliceExecutor, SerialExecutor
from repro.tensornet import Tensor, TensorNetwork, plan_from_order, slice_plan

BACKENDS = ("tdd", "dense", "einsum")


@st.composite
def closed_qubit_networks(draw):
    """A random closed network with every index of dimension 2."""
    num_tensors = draw(st.integers(min_value=2, max_value=4))
    num_edges = draw(st.integers(min_value=2, max_value=7))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    slots = [[] for _ in range(num_tensors)]
    for e in range(num_edges):
        label = f"e{e}"
        a, b = rng.integers(0, num_tensors, size=2)
        slots[int(a)].append(label)
        slots[int(b)].append(label)
    tensors = []
    for labels in slots:
        shape = (2,) * len(labels)
        data = rng.uniform(-1, 1, size=shape) + 1j * rng.uniform(
            -1, 1, size=shape
        )
        tensors.append(Tensor(data, labels))
    return TensorNetwork(tensors)


@pytest.fixture(scope="module")
def pool():
    """One 2-worker pool shared by every hypothesis example."""
    with ProcessSliceExecutor(jobs=2, chunk_size=2) as executor:
        yield executor


class TestParallelAgreement:
    @settings(max_examples=10, deadline=None)
    @given(closed_qubit_networks())
    def test_process_parallel_matches_serial_on_all_backends(
        self, pool, network
    ):
        reference = network.contract().scalar()
        plan = slice_plan(plan_from_order(network), 2)
        for name in BACKENDS:
            inline = get_backend(name).contract_scalar(network, plan=plan)
            serial = get_backend(
                name, executor=SerialExecutor(chunk_size=3)
            ).contract_scalar(network, plan=plan)
            parallel = get_backend(name, executor=pool).contract_scalar(
                network, plan=plan
            )
            assert np.isclose(inline, reference, atol=1e-9), name
            assert np.isclose(serial, reference, atol=1e-9), name
            assert np.isclose(parallel, reference, atol=1e-9), name
