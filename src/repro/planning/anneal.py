"""Annealed random-greedy restarts (``order_method="anneal"``).

Each trial rebuilds a full pairwise contraction from scratch, choosing
among the *connected* candidate pairs with Boltzmann weights over a
local cost score — at temperature → 0 this is a deterministic
cost-greedy choice, at higher temperatures it explores merge orders a
greedy choice never considers.  Temperature and the score's
input-size discount ``alpha`` are resampled per restart (the
hyper-parameter sweep rides inside the restart loop, cotengra-style).

The candidate set is maintained incrementally through a label-adjacency
map — after a merge only pairs touching the merged operand are rescored
— which keeps one trial near O(edges · steps) instead of the naive
O(n^3) rescan and buys hundreds of restarts per second on library-sized
networks.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..tensornet.planner import merge_cost

#: Per-restart temperature is drawn log-uniformly from this range (log10).
TEMPERATURE_LOG10_RANGE = (-2.0, 1.0)

#: Per-restart choices for the input-size discount of the local score
#: ``log2(size(out)) - alpha * (log2(size(a)) + log2(size(b)))``.
ALPHA_CHOICES = (0.0, 0.5, 1.0)

#: Merge pairs over plan nodes (the trial output format; nodes as in
#: :class:`~repro.tensornet.planner.ContractionStep`).
MergePairs = List[Tuple[int, int]]


class AnnealSearcher:
    """Temperature-weighted cost-greedy restarts over connected pairs.

    Constructed once per search with the self-traced input label tuples
    and label dimensions; :meth:`trial` runs one randomized restart.
    """

    def __init__(
        self,
        inputs: Sequence[Tuple[str, ...]],
        dims: Dict[str, int],
    ):
        self.inputs: Tuple[Tuple[str, ...], ...] = tuple(inputs)
        self.dims: Dict[str, int] = dict(dims)
        self._log2dim: Dict[str, float] = {
            label: math.log2(dim) for label, dim in self.dims.items()
        }
        self._log2size: Dict[int, float] = {}

    def _score(
        self, a: Tuple[str, ...], b: Tuple[str, ...], alpha: float
    ) -> float:
        shared = frozenset(a) & frozenset(b)
        log2dim = self._log2dim
        out = sum(log2dim[lab] for lab in a + b if lab not in shared)
        if not alpha:
            return out
        size_a = sum(log2dim[lab] for lab in a)
        size_b = sum(log2dim[lab] for lab in b)
        return out - alpha * (size_a + size_b)

    def trial(
        self, rng: np.random.Generator, best_cost: int
    ) -> Optional[Tuple[int, MergePairs]]:
        """Run one randomized restart.

        Returns ``(cost, pairs)`` — the predicted flop total and the
        merge sequence over plan nodes — or ``None`` when the trial
        aborted early because its running cost already reached
        ``best_cost`` (pruning keeps hopeless restarts cheap).
        """
        low, high = TEMPERATURE_LOG10_RANGE
        temperature = 10.0 ** rng.uniform(low, high)
        alpha = float(ALPHA_CHOICES[rng.integers(len(ALPHA_CHOICES))])

        ops: Dict[int, Tuple[str, ...]] = {
            i: labs for i, labs in enumerate(self.inputs)
        }
        next_id = len(self.inputs)
        label_holders: Dict[str, Set[int]] = {}
        for i, labs in ops.items():
            for lab in set(labs):
                label_holders.setdefault(lab, set()).add(i)

        def neighbors(i: int) -> Set[int]:
            near: Set[int] = set()
            for lab in set(ops[i]):
                near |= label_holders[lab]
            near.discard(i)
            return near

        candidates: Dict[Tuple[int, int], float] = {}
        for i in ops:
            for j in neighbors(i):
                if i < j:
                    candidates[(i, j)] = self._score(ops[i], ops[j], alpha)

        pairs: MergePairs = []
        total = 0
        while candidates:
            keys = sorted(candidates)
            scores = np.array([candidates[key] for key in keys])
            weights = np.exp(-(scores - scores.min()) / temperature)
            picked = keys[
                int(rng.choice(len(keys), p=weights / weights.sum()))
            ]
            a, b = picked
            output, _, flops = merge_cost(ops[a], ops[b], self.dims)
            total += flops
            if total >= best_cost:
                return None  # prune: cannot beat the best plan so far
            pairs.append(picked)
            for key in [k for k in candidates if a in k or b in k]:
                del candidates[key]
            for lab in set(ops[a]) | set(ops[b]):
                label_holders[lab].discard(a)
                label_holders[lab].discard(b)
            del ops[a]
            del ops[b]
            merged = next_id
            next_id += 1
            ops[merged] = output
            for lab in set(output):
                label_holders.setdefault(lab, set()).add(merged)
            for other in neighbors(merged):
                key = (other, merged) if other < merged else (merged, other)
                candidates[key] = self._score(ops[key[0]], ops[key[1]], alpha)

        # outer-product any disconnected remainders, lowest ids first
        while len(ops) > 1:
            live = sorted(ops)
            a, b = live[0], live[1]
            output, _, flops = merge_cost(ops[a], ops[b], self.dims)
            total += flops
            if total >= best_cost:
                return None
            pairs.append((a, b))
            del ops[a]
            del ops[b]
            ops[next_id] = output
            next_id += 1
        return total, pairs
