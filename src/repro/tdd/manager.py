"""The TDD manager: unique table, computed tables, and all operations.

One :class:`TddManager` owns a global variable order (a list of index
labels) and guarantees canonicity of every diagram built under it.  The
*computed tables* cache addition and contraction results; sharing one
manager across many structurally-similar trace computations is exactly the
paper's "computed table" optimisation (Sec. IV-C, evaluated in Table II).
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..linalg import COMPLEX
from .node import TERMINAL_VAR, TddNode, count_nodes, round_weight

Edge = Tuple[complex, TddNode]

#: Contraction recursion is bounded by the number of live variables, which
#: can exceed CPython's default limit on wide doubled networks.
_MIN_RECURSION_LIMIT = 100_000


def ensure_recursion_limit() -> None:
    """Raise the interpreter's recursion limit to the contraction floor.

    Called by :meth:`repro.backends.TddBackend.contract_scalar` before
    every contraction.  Only ever raises the limit, never lowers it.
    """
    if sys.getrecursionlimit() < _MIN_RECURSION_LIMIT:
        sys.setrecursionlimit(_MIN_RECURSION_LIMIT)


class TddManager:
    """Owns the unique/computed tables for one global variable order."""

    def __init__(self, var_order: Sequence[str]):
        labels = list(var_order)
        if len(set(labels)) != len(labels):
            raise ValueError("variable order contains duplicate labels")
        self.var_order: List[str] = labels
        self.var_position: Dict[str, int] = {v: i for i, v in enumerate(labels)}
        self.terminal = TddNode(TERMINAL_VAR)
        self._unique: Dict[tuple, TddNode] = {}
        self._add_cache: Dict[tuple, Edge] = {}
        self._cont_cache: Dict[tuple, Edge] = {}
        #: Running statistics (exposed for the Table II experiment).
        self.stats = {
            "makenode_calls": 0,
            "add_cache_hits": 0,
            "cont_cache_hits": 0,
            "unique_hits": 0,
        }

    # --- bookkeeping --------------------------------------------------------

    def num_unique_nodes(self) -> int:
        """Distinct nodes currently hash-consed (terminal excluded)."""
        return len(self._unique)

    def clear_computed_tables(self) -> None:
        """Drop the add/contract caches (the "w/o computed table" ablation).

        The unique table is kept — canonicity must survive.
        """
        self._add_cache.clear()
        self._cont_cache.clear()

    def extend_order(self, labels: Iterable[str]) -> None:
        """Append previously unseen labels to the end of the global order."""
        for label in labels:
            if label not in self.var_position:
                self.var_position[label] = len(self.var_order)
                self.var_order.append(label)

    # --- construction ---------------------------------------------------------

    def make_node(self, var: int, low: Edge, high: Edge) -> Edge:
        """Canonical reduced node with the TDD normalisation rule.

        * zero edges point at the terminal;
        * redundant nodes (equal children and weights) are skipped;
        * out-weights are divided by the larger-magnitude weight, which is
          pushed to the incoming edge.
        """
        self.stats["makenode_calls"] += 1
        (w0, n0), (w1, n1) = low, high
        w0 = complex(w0)
        w1 = complex(w1)
        if abs(w0) == 0.0:
            w0, n0 = 0.0, self.terminal
        if abs(w1) == 0.0:
            w1, n1 = 0.0, self.terminal
        if w0 == 0.0 and w1 == 0.0:
            return (0.0, self.terminal)
        if n0 is n1 and round_weight(w0) == round_weight(w1):
            return (w0, n0)
        norm = w0 if abs(w0) >= abs(w1) else w1
        w0n = round_weight(w0 / norm)
        w1n = round_weight(w1 / norm)
        key = (var, id(n0), w0n, id(n1), w1n)
        node = self._unique.get(key)
        if node is None:
            node = TddNode(var, n0, w0n, n1, w1n)
            self._unique[key] = node
        else:
            self.stats["unique_hits"] += 1
        return (norm, node)

    def from_array(self, data: np.ndarray, labels: Sequence[str]) -> "Tdd":
        """Build a TDD from a dense tensor with the given index labels.

        Axes may be in any label order; each dimension must be 2 and labels
        must be unique within the tensor (self-loops are traced out before
        conversion by the engine).
        """
        data = np.asarray(data, dtype=COMPLEX)
        if data.ndim != len(labels):
            raise ValueError("label count must match tensor rank")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels {labels}; trace self-loops first")
        for label in labels:
            if label not in self.var_position:
                raise KeyError(f"label {label!r} not in the manager's order")
        if any(dim != 2 for dim in data.shape):
            raise ValueError("TDDs require all index dimensions to be 2")
        # Sort axes by global variable position.
        positions = [self.var_position[lab] for lab in labels]
        axis_order = sorted(range(len(labels)), key=lambda ax: positions[ax])
        data = np.transpose(data, axis_order)
        sorted_positions = [positions[ax] for ax in axis_order]
        edge = self._edge_from_array(data, sorted_positions, 0)
        return Tdd(self, edge[0], edge[1])

    def _edge_from_array(
        self, data: np.ndarray, positions: List[int], depth: int
    ) -> Edge:
        if depth == len(positions):
            return (complex(data), self.terminal)
        low = self._edge_from_array(data[0], positions, depth + 1)
        high = self._edge_from_array(data[1], positions, depth + 1)
        return self.make_node(positions[depth], low, high)

    def scalar(self, value: complex) -> "Tdd":
        """A rank-0 TDD."""
        return Tdd(self, complex(value), self.terminal)

    # --- addition ----------------------------------------------------------------

    def add(self, a: Edge, b: Edge) -> Edge:
        """Pointwise sum of two diagrams (over the union of their supports)."""
        wa, na = a
        wb, nb = b
        if abs(wa) == 0.0:
            return b
        if abs(wb) == 0.0:
            return a
        if na is self.terminal and nb is self.terminal:
            return (wa + wb, self.terminal)
        # Factor the first weight out for cache locality.
        ratio = round_weight(wb / wa)
        key = (id(na), id(nb), ratio)
        hit = self._add_cache.get(key)
        if hit is not None:
            self.stats["add_cache_hits"] += 1
            return (hit[0] * wa, hit[1])
        var = min(na.var, nb.var)
        (la_w, la_n), (ha_w, ha_n) = na.cofactors(var)
        (lb_w, lb_n), (hb_w, hb_n) = nb.cofactors(var)
        low = self.add((la_w, la_n), (ratio * lb_w, lb_n))
        high = self.add((ha_w, ha_n), (ratio * hb_w, hb_n))
        result = self.make_node(var, low, high)
        self._add_cache[key] = result
        return (result[0] * wa, result[1])

    # --- contraction -----------------------------------------------------------

    def contract(self, a: Edge, b: Edge, sum_positions: Sequence[int]) -> Edge:
        """Contract two diagrams, summing over the given variable positions.

        Variables present in both operands but *not* summed act as shared
        (diagonal) indices; variables in ``sum_positions`` absent from both
        operands contribute a factor of two each.
        """
        svars = tuple(sorted(sum_positions))
        return self._cont(a, b, svars)

    def _cont(self, a: Edge, b: Edge, svars: Tuple[int, ...]) -> Edge:
        wa, na = a
        wb, nb = b
        if abs(wa) == 0.0 or abs(wb) == 0.0:
            return (0.0, self.terminal)
        if na is self.terminal and nb is self.terminal:
            return (wa * wb * (2 ** len(svars)), self.terminal)
        top = min(na.var, nb.var)
        # Summed variables above the top of both operands appear in neither:
        # each contributes sum_{x in {0,1}} 1 = 2.
        skip = 0
        while skip < len(svars) and svars[skip] < top:
            skip += 1
        factor = complex(2 ** skip)
        rest = svars[skip:]
        key = (id(na), id(nb), rest)
        hit = self._cont_cache.get(key)
        if hit is not None:
            self.stats["cont_cache_hits"] += 1
            return (hit[0] * wa * wb * factor, hit[1])
        sum_here = bool(rest) and rest[0] == top
        svars_next = rest[1:] if sum_here else rest
        (la_w, la_n), (ha_w, ha_n) = na.cofactors(top)
        (lb_w, lb_n), (hb_w, hb_n) = nb.cofactors(top)
        low = self._cont((la_w, la_n), (lb_w, lb_n), svars_next)
        high = self._cont((ha_w, ha_n), (hb_w, hb_n), svars_next)
        if sum_here:
            result = self.add(low, high)
        else:
            result = self.make_node(top, low, high)
        self._cont_cache[key] = result
        return (result[0] * wa * wb * factor, result[1])

    # --- export ---------------------------------------------------------------

    def to_array(self, tdd: "Tdd", labels: Sequence[str]) -> np.ndarray:
        """Expand a TDD back to a dense tensor with axes in ``labels`` order.

        ``labels`` must be a superset of the diagram's support.
        """
        positions = [self.var_position[lab] for lab in labels]
        if len(set(positions)) != len(positions):
            raise ValueError("duplicate labels in to_array")
        support = tdd.support_positions()
        missing = support - set(positions)
        if missing:
            names = [self.var_order[p] for p in sorted(missing)]
            raise ValueError(f"labels missing diagram variables: {names}")
        sorted_pairs = sorted(range(len(labels)), key=lambda i: positions[i])
        sorted_positions = [positions[i] for i in sorted_pairs]
        dense = self._expand(tdd.node, sorted_positions, 0) * tdd.weight
        # Undo the sort to match the requested axis order.
        inverse = np.argsort(sorted_pairs)
        return np.transpose(dense, inverse) if labels else dense

    def _expand(
        self, node: TddNode, positions: List[int], depth: int
    ) -> np.ndarray:
        if depth == len(positions):
            if not node.is_terminal:
                raise ValueError("diagram deeper than the requested labels")
            return np.asarray(1.0, dtype=COMPLEX)
        var = positions[depth]
        if node.is_terminal or node.var > var:
            sub = self._expand(node, positions, depth + 1)
            return np.stack([sub, sub])
        if node.var == var:
            low = self._expand(node.low, positions, depth + 1) * node.low_weight
            high = (
                self._expand(node.high, positions, depth + 1) * node.high_weight
            )
            return np.stack([low, high])
        raise ValueError("diagram variable above the requested labels")


class Tdd:
    """A tensor as (manager, incoming weight, root node)."""

    __slots__ = ("manager", "weight", "node")

    def __init__(self, manager: TddManager, weight: complex, node: TddNode):
        self.manager = manager
        self.weight = complex(weight)
        self.node = node

    @property
    def is_scalar(self) -> bool:
        """Whether the diagram has no variables left."""
        return self.node.is_terminal

    def scalar(self) -> complex:
        """Value of a variable-free diagram."""
        if not self.is_scalar:
            raise ValueError("TDD still depends on variables")
        return self.weight

    def num_nodes(self) -> int:
        """Distinct reachable nodes, terminal included (paper's 'nodes')."""
        return count_nodes(self.node)

    def support_positions(self) -> set:
        """Variable positions the diagram depends on."""
        support = set()
        stack = [self.node]
        seen = set()
        while stack:
            node = stack.pop()
            if id(node) in seen or node.is_terminal:
                continue
            seen.add(id(node))
            support.add(node.var)
            stack.append(node.low)
            stack.append(node.high)
        return support

    def support_labels(self) -> set:
        """Index labels the diagram depends on."""
        order = self.manager.var_order
        return {order[p] for p in self.support_positions()}

    def add(self, other: "Tdd") -> "Tdd":
        """Pointwise sum."""
        self._check(other)
        w, n = self.manager.add((self.weight, self.node), (other.weight, other.node))
        return Tdd(self.manager, w, n)

    def contract(self, other: "Tdd", sum_labels: Iterable[str]) -> "Tdd":
        """Contract with ``other`` over the given labels."""
        self._check(other)
        positions = [self.manager.var_position[lab] for lab in sum_labels]
        w, n = self.manager.contract(
            (self.weight, self.node), (other.weight, other.node), positions
        )
        return Tdd(self.manager, w, n)

    def to_array(self, labels: Sequence[str]) -> np.ndarray:
        """Dense tensor with the given axis labels."""
        return self.manager.to_array(self, labels)

    def _check(self, other: "Tdd") -> None:
        if other.manager is not self.manager:
            raise ValueError("TDDs belong to different managers")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tdd(weight={self.weight:.6g}, nodes={self.num_nodes()})"
