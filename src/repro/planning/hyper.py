"""Recursive hypergraph bisection (``order_method="hyper"``).

Views the network as a graph whose vertices are tensors and whose edges
are shared index labels weighted ``log2(dim)`` (after self-tracing, a
closed network's labels join exactly two tensors, so the index
hypergraph degenerates to a weighted multigraph).  Each trial draws a
random balanced bisection, refines it with Kernighan–Lin-style locked
pair swaps (keep the best prefix of a swap pass, revert the rest), and
recurses into both halves; communities at or below ``leaf_size`` are
contracted cost-greedily and the two halves of every split are stitched
by one final merge.  The recursion tree *is* the contraction tree —
small cuts become small stitch intermediates.

Randomness enters through the initial partitions and the per-trial
``leaf_size``, so restarts explore genuinely different recursion trees;
the driver's anytime floor guarantees the result never falls below the
greedy/min_fill baseline even on networks (like shallow circuits) where
bisection has no edge to find.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .driver import MergePairs, PlanSearcher, merge_cost

#: Per-trial leaf community size is drawn uniformly from this range
#: (inclusive low, exclusive high).
LEAF_SIZE_RANGE = (3, 10)

#: Kernighan–Lin refinement passes per bisection.
KL_PASSES = 4


class _Pruned(Exception):
    """Raised inside a trial once its cost reaches the best so far."""


class HyperSearcher(PlanSearcher):
    """Balanced min-cut bisection, leaves contracted greedily."""

    def __init__(self, inputs, dims):
        super().__init__(inputs, dims)
        holders: Dict[str, List[int]] = {}
        for i, labs in enumerate(self.inputs):
            for lab in set(labs):
                holders.setdefault(lab, []).append(i)
        #: input-vertex adjacency: weight = sum of log2(dim) over shared
        #: labels (only two-holder labels form edges; see module docstring)
        self._adjacency: Dict[int, Dict[int, float]] = {
            i: {} for i in range(len(self.inputs))
        }
        for lab, ids in holders.items():
            if len(ids) != 2:
                continue
            a, b = ids
            weight = math.log2(self.dims[lab])
            self._adjacency[a][b] = self._adjacency[a].get(b, 0.0) + weight
            self._adjacency[b][a] = self._adjacency[b].get(a, 0.0) + weight

    # --- Kernighan–Lin bisection -----------------------------------------

    def _bisect(
        self, vertices: List[int], rng: np.random.Generator
    ) -> Tuple[List[int], List[int]]:
        """Balanced two-way split of ``vertices`` minimising cut weight."""
        verts = sorted(vertices)
        count = len(verts)
        half = count // 2
        perm = [verts[k] for k in rng.permutation(count)]
        side = {v: (0 if k < half else 1) for k, v in enumerate(perm)}
        vset = set(verts)
        adjacency = {
            v: {
                u: w for u, w in self._adjacency[v].items() if u in vset
            }
            for v in verts
        }

        def gain(v: int) -> float:
            moved = 0.0
            for u, w in adjacency[v].items():
                moved += w if side[u] != side[v] else -w
            return moved

        for _ in range(KL_PASSES):
            locked: Set[int] = set()
            moves: List[Tuple[float, int, int]] = []
            gains = {v: gain(v) for v in verts}
            cumulative = 0.0
            while True:
                zeros = [
                    v for v in verts if side[v] == 0 and v not in locked
                ]
                ones = [
                    v for v in verts if side[v] == 1 and v not in locked
                ]
                if not zeros or not ones:
                    break
                a = max(zeros, key=lambda v: (gains[v], -v))
                b = max(ones, key=lambda v: (gains[v], -v))
                cumulative += (
                    gains[a] + gains[b] - 2.0 * adjacency[a].get(b, 0.0)
                )
                side[a], side[b] = 1, 0
                locked.add(a)
                locked.add(b)
                moves.append((cumulative, a, b))
                for v in (set(adjacency[a]) | set(adjacency[b])) - locked:
                    gains[v] = gain(v)
            if not moves:
                break
            best = max(
                range(len(moves)), key=lambda k: (moves[k][0], -k)
            )
            if moves[best][0] <= 1e-12:
                for _, a, b in moves:  # no improving prefix: revert all
                    side[a], side[b] = 0, 1
                break
            for _, a, b in moves[best + 1:]:
                side[a], side[b] = 0, 1
        left = [v for v in verts if side[v] == 0]
        right = [v for v in verts if side[v] == 1]
        return left, right

    # --- contraction ------------------------------------------------------

    def trial(
        self, rng: np.random.Generator, best_cost: int
    ) -> Optional[Tuple[int, MergePairs]]:
        if not self.inputs:
            return 0, []
        low, high = LEAF_SIZE_RANGE
        leaf_size = int(rng.integers(low, high))
        ops: Dict[int, Tuple[str, ...]] = {
            i: labs for i, labs in enumerate(self.inputs)
        }
        state = {"next_id": len(self.inputs), "total": 0}
        pairs: MergePairs = []

        def merge(a: int, b: int) -> int:
            output, _, flops = merge_cost(ops[a], ops[b], self.dims)
            state["total"] += flops
            if state["total"] >= best_cost:
                raise _Pruned
            pairs.append((a, b))
            del ops[a]
            del ops[b]
            merged = state["next_id"]
            state["next_id"] += 1
            ops[merged] = output
            return merged

        def contract_leaf(ids: List[int]) -> int:
            live = sorted(ids)
            while len(live) > 1:
                best: Optional[Tuple[int, int, int]] = None
                for x in range(len(live)):
                    for y in range(x + 1, len(live)):
                        a, b = live[x], live[y]
                        shared = frozenset(ops[a]) & frozenset(ops[b])
                        if not shared:
                            continue
                        size = 1
                        for lab in ops[a] + ops[b]:
                            if lab not in shared:
                                size *= self.dims[lab]
                        if best is None or (size, a, b) < best:
                            best = (size, a, b)
                if best is None:
                    a, b = live[0], live[1]
                else:
                    _, a, b = best
                merged = merge(a, b)
                live = sorted(v for v in live if v not in (a, b))
                live.append(merged)
            return live[0]

        def contract(ids: List[int]) -> int:
            if len(ids) <= leaf_size:
                return contract_leaf(ids)
            left, right = self._bisect(ids, rng)
            if not left or not right:
                return contract_leaf(ids)
            return merge(contract(left), contract(right))

        try:
            contract(list(range(len(self.inputs))))
        except _Pruned:
            return None
        return state["total"], pairs
