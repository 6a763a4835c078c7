"""Contraction-order heuristics.

The quality of a tensor-network contraction is governed by the order in
which indices are eliminated; the optimal order derives from a minimum-width
tree decomposition of the index interaction graph (Markov & Shi, SIAM J.
Comput. 2008) — the approach the paper adopts.  Exact treewidth is NP-hard,
so we provide:

* :func:`sequential_order` — first-occurrence (circuit time) order;
* :func:`min_fill_order` — the classic greedy min-fill elimination
  heuristic, implemented here directly;
* :func:`tree_decomposition_order` — an elimination order extracted from
  networkx's approximate minimum-width tree decomposition.
"""

from __future__ import annotations

from typing import Dict, List, Set

import networkx as nx

from .network import TensorNetwork


def sequential_order(network: TensorNetwork) -> List[str]:
    """Indices in first-occurrence (construction/time) order."""
    return network.all_indices()


def interaction_graph(network: TensorNetwork) -> nx.Graph:
    """Index co-occurrence graph of the network (Markov–Shi line graph)."""
    graph = nx.Graph()
    graph.add_nodes_from(network.all_indices())
    for edge in network.line_graph_edges():
        a, b = tuple(edge)
        graph.add_edge(a, b)
    return graph


def _fill_count(adjacency: Dict[str, Set[str]], vertex: str) -> int:
    """Missing edges among ``vertex``'s neighbourhood (its fill-in)."""
    fill = 0
    nbr_list = list(adjacency[vertex])
    for i, a in enumerate(nbr_list):
        fill += sum(1 for b in nbr_list[i + 1:] if b not in adjacency[a])
    return fill


def min_fill_order(network: TensorNetwork) -> List[str]:
    """Greedy min-fill elimination order on the interaction graph.

    At each step, eliminate the vertex whose elimination adds the fewest
    fill-in edges (ties broken by smaller degree, then label for
    determinism), then connect its neighbourhood into a clique.

    Fill counts are maintained *incrementally*: eliminating ``u`` can
    only change the fill of vertices whose neighbourhood (or adjacency
    among its members) changed — ``u``'s neighbours, which lose ``u`` and
    may gain clique edges, and their neighbours, which may see one of the
    new clique edges appear inside their own neighbourhood.  Only that
    2-neighbourhood is recounted per round instead of every remaining
    vertex, turning the quadratic full recount into work proportional to
    the eliminated vertex's locality.  Selection uses the same
    ``(fill, degree, label)`` key as the naive scan and the key is unique
    per vertex, so the output is byte-identical to the reference
    implementation (asserted in the test suite).
    """
    graph = interaction_graph(network)
    adjacency: Dict[str, Set[str]] = {v: set(graph[v]) for v in graph.nodes}
    fill: Dict[str, int] = {v: _fill_count(adjacency, v) for v in adjacency}
    order: List[str] = []
    while adjacency:
        best = min(
            adjacency,
            key=lambda v: (fill[v], len(adjacency[v]), v),
        )
        order.append(best)
        nbrs = adjacency.pop(best)
        del fill[best]
        for a in nbrs:
            adjacency[a].discard(best)
        nbr_list = list(nbrs)
        for i, a in enumerate(nbr_list):
            for b in nbr_list[i + 1:]:
                adjacency[a].add(b)
                adjacency[b].add(a)
        touched: Set[str] = set(nbrs)
        for a in nbrs:
            touched.update(adjacency[a])
        touched &= adjacency.keys()
        for vertex in touched:
            fill[vertex] = _fill_count(adjacency, vertex)
    return order


def tree_decomposition_order(network: TensorNetwork) -> List[str]:
    """Elimination order from networkx's approximate tree decomposition.

    The decomposition is computed with the min-fill-in heuristic; the
    elimination order is recovered by repeatedly peeling a leaf bag and
    eliminating the vertices private to it — the standard way to turn a
    tree decomposition into an elimination order of the same width.
    """
    graph = interaction_graph(network)
    if graph.number_of_nodes() == 0:
        return []
    order: List[str] = []
    for component in nx.connected_components(graph):
        sub = graph.subgraph(component).copy()
        _, tree = nx.approximation.treewidth_min_fill_in(sub)
        order.extend(_elimination_order_from_tree(tree, set(component)))
    return order


def _elimination_order_from_tree(tree: nx.Graph, vertices: Set[str]) -> List[str]:
    order: List[str] = []
    tree = tree.copy()
    eliminated: Set[str] = set()
    while tree.number_of_nodes() > 1:
        leaf = next(bag for bag in tree.nodes if tree.degree(bag) == 1)
        parent = next(iter(tree[leaf]))
        private = [v for v in leaf if v not in parent and v not in eliminated]
        order.extend(sorted(private))
        eliminated.update(private)
        tree.remove_node(leaf)
    if tree.number_of_nodes() == 1:
        last_bag = next(iter(tree.nodes))
        order.extend(sorted(v for v in last_bag if v not in eliminated))
        eliminated.update(last_bag)
    # Isolated vertices may not appear in any bag edge traversal.
    order.extend(sorted(vertices - eliminated))
    return order


ORDER_HEURISTICS = {
    "sequential": sequential_order,
    "min_fill": min_fill_order,
    "tree_decomposition": tree_decomposition_order,
}


def contraction_order(network: TensorNetwork, method: str) -> List[str]:
    """Dispatch on a named ordering heuristic."""
    try:
        heuristic = ORDER_HEURISTICS[method]
    except KeyError:
        raise ValueError(
            f"unknown ordering method {method!r}; "
            f"choose from {sorted(ORDER_HEURISTICS)}"
        ) from None
    return heuristic(network)
