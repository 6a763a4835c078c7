"""Unit tests for TensorNetwork and the dense contraction engine."""

import numpy as np
import pytest

from oracles import identity_tensor, scalar_tensor
from repro.tensornet import (
    ContractionStats,
    Tensor,
    TensorNetwork,
    interaction_graph,
)


def matrix_tensor(mat, out, inp):
    return Tensor(np.asarray(mat, dtype=complex), [out, inp])


class TestBookkeeping:
    def test_all_indices_order(self):
        net = TensorNetwork([
            identity_tensor("a", "b"), identity_tensor("b", "c"),
        ])
        assert net.all_indices() == ["a", "b", "c"]

    def test_open_indices(self):
        net = TensorNetwork([
            identity_tensor("a", "b"), identity_tensor("b", "c"),
        ])
        assert net.open_indices() == ["a", "c"]

    def test_validate_rejects_triples(self):
        net = TensorNetwork([
            identity_tensor("a", "b"),
            identity_tensor("a", "c"),
            identity_tensor("a", "d"),
        ])
        with pytest.raises(ValueError):
            net.validate()


class TestContraction:
    def test_matrix_chain(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2))
        c = rng.normal(size=(2, 2))
        net = TensorNetwork([
            matrix_tensor(a, "i", "j"),
            matrix_tensor(b, "j", "k"),
            matrix_tensor(c, "k", "l"),
        ])
        out = net.contract()
        result = out.transpose(["i", "l"]).data
        assert np.allclose(result, a @ b @ c)

    def test_closed_ring_trace(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2))
        net = TensorNetwork([
            matrix_tensor(a, "i", "j"),
            matrix_tensor(b, "j", "i"),
        ])
        assert np.isclose(net.contract().scalar(), np.trace(a @ b))

    def test_disconnected_components(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2))
        net = TensorNetwork([
            matrix_tensor(a, "i", "i"),
            matrix_tensor(b, "j", "j"),
        ])
        # Each tensor has a self-loop -> product of traces.
        assert np.isclose(
            net.contract().scalar(), np.trace(a) * np.trace(b)
        )

    def test_scalar_factors(self):
        net = TensorNetwork([scalar_tensor(2.0), scalar_tensor(3j)])
        assert net.contract().scalar() == 6j

    def test_order_does_not_change_value(self, rng):
        mats = [rng.normal(size=(2, 2)) for _ in range(4)]
        labels = ["a", "b", "c", "d"]
        tensors = [
            matrix_tensor(mats[i], labels[i], labels[(i + 1) % 4])
            for i in range(4)
        ]
        expected = np.trace(mats[0] @ mats[1] @ mats[2] @ mats[3])
        for order in (["a", "b", "c", "d"], ["d", "b", "a", "c"],
                      ["c", "a", "d", "b"]):
            net = TensorNetwork(list(tensors))
            assert np.isclose(net.contract(order=order).scalar(), expected)

    def test_stats_collected(self, rng):
        net = TensorNetwork([
            matrix_tensor(rng.normal(size=(2, 2)), "i", "j"),
            matrix_tensor(rng.normal(size=(2, 2)), "j", "i"),
        ])
        stats = ContractionStats()
        net.contract(stats=stats)
        assert stats.num_pairwise_contractions >= 1

    def test_open_network_keeps_legs(self, rng):
        net = TensorNetwork([
            matrix_tensor(rng.normal(size=(2, 2)), "i", "j"),
            matrix_tensor(rng.normal(size=(2, 2)), "j", "k"),
        ])
        out = net.contract()
        assert set(out.indices) == {"i", "k"}


class TestLineGraph:
    def test_edges(self):
        net = TensorNetwork([
            Tensor(np.zeros((2, 2, 2)), ["a", "b", "c"]),
        ])
        graph = interaction_graph(net)
        edges = {frozenset((a, b)) for a, nbrs in graph.items() for b in nbrs}
        assert frozenset(("a", "b")) in edges
        assert frozenset(("a", "c")) in edges
        assert frozenset(("b", "c")) in edges
        assert len(edges) == 3
