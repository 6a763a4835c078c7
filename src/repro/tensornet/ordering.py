"""The min-fill contraction order.

The quality of a tensor-network contraction is governed by the order in
which indices are eliminated; the optimal order derives from a minimum-width
tree decomposition of the index interaction graph (Markov & Shi, SIAM J.
Comput. 2008) — the approach the paper adopts.  An elimination order and a
tree decomposition are two forms of the same object: eliminating the
vertices in order, each vertex's closed neighbourhood at elimination time is
one bag, and the bags form a tree decomposition whose width is the order's
largest neighbourhood.  Exact treewidth is NP-hard, so
:func:`min_fill_order` uses the classic greedy min-fill elimination
heuristic, i.e. the min-fill tree decomposition read directly as the
elimination order the contraction needs.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Set

from .network import TensorNetwork


def interaction_graph(network: TensorNetwork) -> Dict[str, Set[str]]:
    """Index co-occurrence graph of the network (Markov–Shi line graph).

    Adjacency sets keyed by every index of the network, including indices
    that share no tensor with another index; two indices are adjacent when
    some tensor carries both.
    """
    graph: Dict[str, Set[str]] = {v: set() for v in network.all_indices()}
    for tensor in network.tensors:
        labels = set(tensor.indices)
        for label in labels:
            graph[label] |= labels - {label}
    return graph


def _fill_count(adjacency: Dict[str, Set[str]], vertex: str) -> int:
    """Missing edges among ``vertex``'s neighbourhood (its fill-in)."""
    nbrs = adjacency[vertex]
    # each present pair shows up in two neighbours' intersections
    linked = sum(map(len, map(nbrs.intersection, map(adjacency.get, nbrs))))
    return len(nbrs) * (len(nbrs) - 1) // 2 - linked // 2


def min_fill_order(network: TensorNetwork) -> List[str]:
    """Greedy min-fill elimination order on the interaction graph.

    At each step, eliminate the vertex whose elimination adds the fewest
    fill-in edges (ties broken by smaller degree, then label for
    determinism), then connect its neighbourhood into a clique.

    Selection pops a heap of ``(fill, degree, label)`` keys, skipping
    stale entries; the key is unique per vertex, so the heap yields the
    vertex a full ``min`` scan would.  Fill counts change by deltas.
    Eliminating ``u`` costs each neighbour ``a`` its missing pairs
    ``(u, x)``, one per ``x`` in ``N(a)`` outside ``N(u)``; when ``u``
    has no fill (most eliminations) nothing else changes.  Otherwise the
    neighbours are recounted, and each new clique edge ``(a, b)`` takes
    one missing pair from every vertex outside ``N(u)`` adjacent to both
    ends.  The output is byte-identical to the full-recount reference
    implementation (asserted in the test suite).
    """
    adjacency = interaction_graph(network)
    fill: Dict[str, int] = {v: _fill_count(adjacency, v) for v in adjacency}
    heap = [(count, len(adjacency[v]), v) for v, count in fill.items()]
    heapq.heapify(heap)
    order: List[str] = []
    while heap:
        count, degree, u = heapq.heappop(heap)
        if fill.get(u) != count or len(adjacency[u]) != degree:
            continue  # stale: eliminated, or re-keyed since the push
        order.append(u)
        nbrs = adjacency.pop(u)
        del fill[u]
        rekeyed = set(nbrs)
        for a in nbrs:
            adjacency[a].discard(u)
            fill[a] -= len(adjacency[a] - nbrs)
        if count:
            for a in nbrs:
                new = nbrs - adjacency[a] - {a}
                adjacency[a] |= new
                for b in new:
                    adjacency[b].add(a)
                    for w in (adjacency[a] & adjacency[b]) - nbrs:
                        fill[w] -= 1
                        rekeyed.add(w)
            for a in nbrs:
                fill[a] = _fill_count(adjacency, a)
        for v in rekeyed:
            heapq.heappush(heap, (fill[v], len(adjacency[v]), v))
    return order

