"""Unit tests for the min-fill contraction order."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.core.miter import alg2_trace_network
from repro.library import (
    bernstein_vazirani,
    grover,
    mod_mult_7x15,
    qft,
    quantum_volume,
)
from repro.noise import insert_random_noise
from oracles import identity_tensor, trace_network
from repro.tensornet import (
    ContractionStats,
    Tensor,
    TensorNetwork,
    interaction_graph,
    min_fill_order,
)


def sample_network():
    circuit = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2).t(2)
    return trace_network(circuit)


def disconnected_network():
    """Two components plus an index that shares no tensor with another."""
    return TensorNetwork([
        identity_tensor("a", "b"),
        identity_tensor("c", "d"),
        Tensor(np.ones(2), ["e"]),
    ])


class TestOrders:
    @pytest.mark.parametrize(
        "network", [sample_network, disconnected_network],
        ids=["connected", "disconnected"],
    )
    def test_order_is_permutation_of_indices(self, network):
        net = network()
        order = min_fill_order(net)
        assert sorted(order) == sorted(net.all_indices())

    def test_order_gives_the_trace(self):
        circuit = qft(3)
        net = trace_network(circuit)
        order = min_fill_order(net)
        value = net.contract(order=order).scalar()
        assert np.isclose(value, np.trace(circuit.to_matrix()))


def edge_set(graph):
    return {
        frozenset((a, b)) for a, nbrs in graph.items() for b in nbrs
    }


class TestInteractionGraph:
    def test_vertices_are_indices(self):
        net = sample_network()
        graph = interaction_graph(net)
        assert set(graph) == set(net.all_indices())

    def test_cooccurring_indices_connected(self):
        net = sample_network()
        graph = interaction_graph(net)
        expected = set()
        for tensor in net.tensors:
            labels = list(dict.fromkeys(tensor.indices))
            for i, a in enumerate(labels):
                for b in labels[i + 1:]:
                    assert b in graph[a] and a in graph[b]
                    expected.add(frozenset((a, b)))
        assert edge_set(graph) == expected

    def test_isolated_and_disconnected_vertices_kept(self):
        graph = interaction_graph(disconnected_network())
        assert graph == {
            "a": {"b"}, "b": {"a"}, "c": {"d"}, "d": {"c"}, "e": set(),
        }

    def test_no_self_loops_from_self_traced_labels(self):
        net = TensorNetwork([Tensor(np.zeros((2, 2, 2)), ["a", "a", "b"])])
        assert interaction_graph(net) == {"a": {"b"}, "b": {"a"}}


class TestMinFillQuality:
    def test_quality_on_ladder(self):
        """On a QFT trace network the min-fill order should not be worse
        than first-occurrence order by more than the intermediate-size
        metric."""
        circuit = qft(4)
        net = trace_network(circuit)
        seq_stats, fill_stats = ContractionStats(), ContractionStats()
        net.copy().contract(
            order=net.all_indices(), stats=seq_stats
        )
        net.copy().contract(
            order=min_fill_order(net), stats=fill_stats
        )
        assert (
            fill_stats.max_intermediate_size
            <= max(seq_stats.max_intermediate_size, 64)
        )


def _min_fill_order_reference(network):
    """The original full-recount min-fill implementation.

    Kept verbatim (modulo renames) as the oracle for the incremental
    version: same ``(fill, degree, label)`` selection key, recomputing
    every vertex's fill from scratch each round.
    """
    adjacency = interaction_graph(network)
    order = []
    while adjacency:
        best, best_key = None, None
        for vertex, nbrs in adjacency.items():
            fill = 0
            nbr_list = list(nbrs)
            for i, a in enumerate(nbr_list):
                fill += sum(
                    1 for b in nbr_list[i + 1:] if b not in adjacency[a]
                )
            key = (fill, len(nbrs), vertex)
            if best_key is None or key < best_key:
                best, best_key = vertex, key
        order.append(best)
        nbrs = adjacency.pop(best)
        for a in nbrs:
            adjacency[a].discard(best)
        nbr_list = list(nbrs)
        for i, a in enumerate(nbr_list):
            for b in nbr_list[i + 1:]:
                adjacency[a].add(b)
                adjacency[b].add(a)
    return order


def alg2_network(make, noises, seed):
    ideal = make()
    return alg2_trace_network(
        insert_random_noise(ideal, noises, seed=seed), ideal
    )


#: Table I rows where min-fill often eliminates a vertex with fill > 0.
FILL_ROWS = {
    "7x1mod15": mod_mult_7x15,
    "bv9": lambda: bernstein_vazirani(9),
    "grover3": lambda: grover(3),
    "qft4": lambda: qft(4),
    "qft5": lambda: qft(5),
}


@st.composite
def index_graph_networks(draw):
    """Up to three disconnected components of rank-1..4 tensors.

    Each component draws its tensors' labels from its own pool, so
    isolated labels, rank-1 tensors, labels shared by several tensors
    and components with no edge between them all occur.
    """
    tensors = []
    for component in range(draw(st.integers(1, 3))):
        pool = [
            f"c{component}.{i}" for i in range(draw(st.integers(1, 16)))
        ]
        for _ in range(draw(st.integers(1, 12))):
            labels = draw(st.lists(
                st.sampled_from(pool), min_size=1,
                max_size=min(4, len(pool)), unique=True,
            ))
            tensors.append(Tensor(np.ones((2,) * len(labels)), labels))
    return TensorNetwork(tensors)


class TestMinFill:
    def test_deterministic(self):
        net = sample_network()
        assert min_fill_order(net) == min_fill_order(net)

    @pytest.mark.parametrize("circuit_factory", [
        lambda: qft(3),
        lambda: qft(5),
        lambda: QuantumCircuit(4).h(0).cx(0, 1).cx(1, 2).cx(2, 3).t(3),
        lambda: sample_circuit(),
    ])
    def test_incremental_byte_identical_to_reference(self, circuit_factory):
        """The incremental fill bookkeeping must not change the output."""
        net = trace_network(circuit_factory())
        assert min_fill_order(net) == _min_fill_order_reference(net)

    def test_incremental_byte_identical_on_noisy_doubled_networks(self):
        for seed in range(3):
            net = alg2_network(lambda: qft(3), 2, seed)
            assert min_fill_order(net) == _min_fill_order_reference(net)

    @pytest.mark.parametrize("row", sorted(FILL_ROWS))
    def test_byte_identical_on_alg2_networks_with_fill(self, row):
        """Table I rows whose eliminations often add fill, so the
        clique-edge decrements run on most of these orders."""
        for noises in (1, 3, 6):
            for seed in range(2):
                net = alg2_network(FILL_ROWS[row], noises, seed)
                assert min_fill_order(net) == _min_fill_order_reference(net)

    @pytest.mark.parametrize("noises,seed", [(1, 0), (3, 1), (6, 2)])
    def test_byte_identical_on_a_quantum_volume_network(self, noises, seed):
        # qv_n5d5: ~570 vertices, ~0.7 s for the cubic reference apiece
        net = alg2_network(
            lambda: quantum_volume(5, 5, seed=0), noises, seed
        )
        assert min_fill_order(net) == _min_fill_order_reference(net)

    @settings(max_examples=100, deadline=None)
    @given(index_graph_networks())
    def test_byte_identical_on_random_index_graphs(self, net):
        assert min_fill_order(net) == _min_fill_order_reference(net)


def sample_circuit():
    rng = np.random.default_rng(7)
    circuit = QuantumCircuit(5)
    for _ in range(20):
        a, b = rng.choice(5, size=2, replace=False)
        if rng.random() < 0.5:
            circuit.cx(int(a), int(b))
        else:
            circuit.h(int(a)).t(int(b))
    return circuit
