"""The shared contraction-plan IR: plan once, execute anywhere.

A :class:`ContractionPlan` is an executable, backend-independent record of
*how* a closed tensor network will be contracted: an ordered list of
pairwise :class:`ContractionStep`\\ s carrying the eliminated index set,
the output index tuple and per-step flop / intermediate-size estimates.
Every :class:`~repro.backends.base.ContractionBackend` executes the same
plan object — the TDD engine contracts decision diagrams along it, the
dense and einsum engines contract ndarrays along it — so planning cost is
paid once per network structure and plan quality is measurable before any
numerics run.

Three planners produce plans:

* :func:`plan_from_order` — wraps the elimination-order heuristics of
  :mod:`repro.tensornet.ordering` (``sequential``, ``min_fill``,
  ``tree_decomposition``), simulating the pairwise merge sequence the
  order induces;
* :func:`greedy_plan` — a cost-greedy pairwise planner that repeatedly
  merges the connected pair with the smallest output tensor;
* :func:`repro.planning.search_plan` — budgeted anytime search
  (``anneal``/``hyper``, see :data:`SEARCH_PLANNERS`) that spends a
  wall-clock budget on randomized restarts and never returns a plan
  worse than the greedy/min_fill baseline;
* :func:`slice_plan` — rewrites any plan into a sum over index-fixed
  subplans so that no intermediate exceeds a ``max_intermediate_size``
  bound (memory-bounded contraction, the standard slicing trick of
  large-scale tensor-network simulators).

Step positions follow the ``np.einsum_path`` convention: each step names
two positions in the *current* operand list; both operands are removed
(higher position first) and the merged operand is appended at the end.
"""

from __future__ import annotations

import hashlib
import itertools
import warnings
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .network import TensorNetwork
from .ordering import contraction_order
from .tensor import Tensor

#: Planner values served by the budgeted anytime search driver of
#: :mod:`repro.planning` — ``"anneal"`` (annealed random-greedy
#: restarts) and ``"hyper"`` (recursive hypergraph bisection).  Both
#: start from the greedy/min_fill baseline, so a zero budget degrades to
#: heuristic quality; their plans carry a
#: :class:`~repro.planning.PlanSearchReport` in ``search_report``.
SEARCH_PLANNERS = ("anneal", "hyper")

#: Registry of planner strategies understood by :func:`build_plan` (and by
#: the ``planner=`` knob of backends, ``CheckConfig`` and the CLI).
#: ``"order"`` derives the pairwise sequence from an elimination-order
#: heuristic; ``"greedy"`` picks pairs by smallest merged tensor; the
#: :data:`SEARCH_PLANNERS` trade a time budget for cheaper plans.
PLANNERS = ("order", "greedy") + SEARCH_PLANNERS

#: :func:`slice_plan` warns when a bound implies more subplan executions
#: than this — each slice multiplies runtime, and a very tight bound can
#: silently turn one contraction into billions.
SLICE_WARN_THRESHOLD = 65536

#: Default hard cap on subplan executions: :func:`slice_plan` *raises*
#: (not just warns) when a bound implies more slices than this, because a
#: contraction that needs tens of millions of subplan runs will never
#: finish and should fail at planning time, not hours into execution.
#: Override per call via the ``max_slices`` argument.
SLICE_HARD_LIMIT = 1 << 24


@dataclass(frozen=True)
class ContractionStep:
    """One pairwise contraction of a plan.

    ``lhs``/``rhs`` are positions in the operand list *at step time*
    (einsum-path convention — see module docstring).  ``eliminated`` are
    the labels summed over in this step; ``output`` is the merged
    operand's label tuple (lhs survivors first, then rhs survivors, the
    order :meth:`Tensor.contract` produces).
    """

    lhs: int
    rhs: int
    eliminated: frozenset
    output: Tuple[str, ...]
    #: number of entries of the merged intermediate tensor
    output_size: int
    #: scalar multiply-add estimate: output_size * prod(eliminated dims)
    flops: int


@dataclass(frozen=True)
class ContractionPlan:
    """An executable contraction schedule for one network structure.

    ``inputs`` holds the label tuple of every input tensor *after
    self-tracing* (a label paired within one tensor never reaches the
    pairwise engine) but *before* slicing: the ``slices`` labels are fixed
    to one value per subplan execution and therefore absent from every
    step's ``eliminated``/``output`` sets.  ``dims`` maps every label —
    sliced ones included — to its dimension.
    """

    inputs: Tuple[Tuple[str, ...], ...]
    dims: Dict[str, int] = field(hash=False)
    steps: Tuple[ContractionStep, ...]
    #: global elimination order behind the plan (feeds the TDD manager's
    #: variable order)
    order: Tuple[str, ...]
    #: labels fixed-and-summed outside the plan (empty = unsliced)
    slices: Tuple[str, ...] = ()
    #: name of the planner that produced the plan
    planner: str = "order"
    #: search provenance (a :class:`repro.planning.PlanSearchReport`)
    #: when the plan came from a budgeted search; ``None`` for the
    #: heuristic planners.  Provenance, not structure: excluded from
    #: equality and from :meth:`digest`, but pickled with the plan so
    #: plan-cache hits still report how the plan was found.
    search_report: Optional[object] = field(
        default=None, compare=False, repr=False
    )

    # --- cost model -----------------------------------------------------------

    def num_slices(self) -> int:
        """Number of index-fixed subplan executions (1 when unsliced)."""
        count = 1
        for label in self.slices:
            count *= self.dims[label]
        return count

    def peak_size(self) -> int:
        """Largest intermediate tensor any single subplan materialises.

        Counts merge outputs only (matching
        ``ContractionStats.max_intermediate_size``); the caller's input
        tensors are not the plan's to bound.
        """
        return max((step.output_size for step in self.steps), default=1)

    def width(self) -> int:
        """Largest intermediate rank (the contraction-tree width)."""
        return max((len(step.output) for step in self.steps), default=0)

    def total_cost(self) -> int:
        """Predicted scalar multiply-adds across *all* slices."""
        return self.num_slices() * sum(step.flops for step in self.steps)

    def all_labels(self) -> Set[str]:
        """Every label the pairwise engine sees (sliced ones included)."""
        labels: Set[str] = set(self.slices)
        for labs in self.inputs:
            labels.update(labs)
        return labels

    def digest(self) -> str:
        """Content digest of the plan's executable structure.

        The memo key backends use for per-plan lowered forms (compiled
        einsum subscripts, batch layouts): two plans with the same
        inputs, dims, steps and slices share a digest, whatever network
        object they were built from.  Computed once and cached on the
        instance (plans are frozen; the cache rides along through
        pickling to worker processes).
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            payload = repr((
                self.inputs,
                tuple(sorted(self.dims.items())),
                tuple(
                    (s.lhs, s.rhs, tuple(sorted(s.eliminated)), s.output)
                    for s in self.steps
                ),
                self.slices,
            )).encode()
            cached = hashlib.sha1(payload).hexdigest()
            object.__setattr__(self, "_digest", cached)
        return cached

    # --- reporting ------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-safe)."""
        return {
            "planner": self.planner,
            "num_inputs": len(self.inputs),
            "num_indices": len(self.all_labels()),
            "num_steps": len(self.steps),
            "width": self.width(),
            "peak_intermediate_size": self.peak_size(),
            "total_cost": self.total_cost(),
            "num_slices": self.num_slices(),
            "slices": list(self.slices),
            "steps": [
                {
                    "lhs": step.lhs,
                    "rhs": step.rhs,
                    "eliminated": sorted(step.eliminated),
                    "output_rank": len(step.output),
                    "output_size": step.output_size,
                    "flops": step.flops,
                }
                for step in self.steps
            ],
            "search": (
                self.search_report.to_dict() if self.search_report else None
            ),
        }

    def report(self, max_steps: Optional[int] = None) -> str:
        """Human-readable step/cost report (the ``repro plan`` output)."""
        lines = [
            f"planner          : {self.planner}",
            f"inputs           : {len(self.inputs)} tensors, "
            f"{len(self.all_labels())} indices",
            f"steps            : {len(self.steps)}",
            f"width            : {self.width()}",
            f"peak intermediate: {self.peak_size()} elements",
            f"predicted flops  : {self.total_cost()}",
            f"slices           : {self.num_slices()}"
            + (f" over {list(self.slices)}" if self.slices else ""),
        ]
        if self.search_report is not None:
            record = self.search_report
            lines.append(
                f"search           : {record.trials} trials in "
                f"{record.search_seconds:.3f}s (seed {record.seed}), "
                f"baseline {record.baseline_planner} cost "
                f"{record.baseline_cost} -> best {record.best_cost}"
            )
        shown = self.steps if max_steps is None else self.steps[:max_steps]
        for number, step in enumerate(shown):
            eliminated = ",".join(sorted(step.eliminated)) or "(outer)"
            lines.append(
                f"  step {number:3d}: ({step.lhs},{step.rhs}) "
                f"sum[{eliminated}] -> rank {len(step.output)}, "
                f"size {step.output_size}, flops {step.flops}"
            )
        if max_steps is not None and len(self.steps) > max_steps:
            lines.append(f"  ... {len(self.steps) - max_steps} more steps")
        return "\n".join(lines)

    def validate(self) -> None:
        """Check the plan invariant: every label handled exactly once.

        Each label is either a slice label or eliminated by exactly one
        step; no label is both, none is dropped.
        """
        seen: Dict[str, int] = {}
        for label in self.slices:
            seen[label] = seen.get(label, 0) + 1
        for step in self.steps:
            for label in step.eliminated:
                seen[label] = seen.get(label, 0) + 1
        labels = self.all_labels()
        multiple = sorted(lab for lab, count in seen.items() if count > 1)
        missing = sorted(labels - seen.keys())
        if multiple or missing:
            raise ValueError(
                f"invalid plan: handled more than once {multiple}, "
                f"never handled {missing}"
            )


# --- plan construction ------------------------------------------------------


def _plan_inputs(
    network: TensorNetwork,
) -> Tuple[Tuple[Tuple[str, ...], ...], Dict[str, int]]:
    """Self-traced label tuples + label dimensions of a closed network."""
    network.validate()
    open_labels = network.open_indices()
    if open_labels:
        raise ValueError(
            f"network has open indices {open_labels}; contraction plans "
            "cover closed networks only"
        )
    dims: Dict[str, int] = {}
    inputs: List[Tuple[str, ...]] = []
    for tensor in network.tensors:
        counts: Dict[str, int] = {}
        for label in tensor.indices:
            counts[label] = counts.get(label, 0) + 1
        kept = tuple(lab for lab in tensor.indices if counts[lab] == 1)
        for label, dim in zip(tensor.indices, tensor.data.shape):
            if counts[label] == 1:
                dims[label] = dim
        inputs.append(kept)
    return tuple(inputs), dims


def _make_step(
    ops: List[Tuple[str, ...]], i: int, j: int, dims: Dict[str, int]
) -> ContractionStep:
    """Merge operands ``i < j`` in-place and record the step."""
    a, b = ops[i], ops[j]
    shared = frozenset(a) & frozenset(b)
    output = tuple(lab for lab in a if lab not in shared) + tuple(
        lab for lab in b if lab not in shared
    )
    size = 1
    for label in output:
        size *= dims[label]
    flops = size
    for label in shared:
        flops *= dims[label]
    del ops[j]
    del ops[i]
    ops.append(output)
    return ContractionStep(
        lhs=i, rhs=j, eliminated=shared, output=output,
        output_size=size, flops=flops,
    )


def _steps_from_order(
    inputs: Sequence[Tuple[str, ...]],
    dims: Dict[str, int],
    order: Sequence[str],
) -> List[ContractionStep]:
    """Simulate the dense engine's merge sequence along ``order``."""
    ops: List[Tuple[str, ...]] = list(inputs)
    steps: List[ContractionStep] = []
    for label in order:
        holders = [idx for idx, labs in enumerate(ops) if label in labs]
        if len(holders) == 2:
            steps.append(_make_step(ops, holders[0], holders[1], dims))
    while len(ops) > 1:  # outer-product disconnected components
        steps.append(_make_step(ops, 0, 1, dims))
    return steps


def plan_from_order(
    network: TensorNetwork,
    order: Optional[Sequence[str]] = None,
    method: str = "tree_decomposition",
) -> ContractionPlan:
    """Plan the pairwise merge sequence an elimination order induces.

    ``order`` wins when given; otherwise the ``method`` heuristic (one of
    :data:`repro.tensornet.ordering.ORDER_HEURISTICS`) derives it.
    """
    inputs, dims = _plan_inputs(network)
    if order is None:
        order = contraction_order(network, method)
    else:
        order = list(order)
    seen = set(order)
    full = list(order) + [i for i in network.all_indices() if i not in seen]
    steps = _steps_from_order(inputs, dims, full)
    return ContractionPlan(
        inputs=inputs, dims=dims, steps=tuple(steps),
        order=tuple(full), planner="order",
    )


def greedy_plan(network: TensorNetwork) -> ContractionPlan:
    """Cost-greedy pairwise planner.

    Repeatedly merges the connected pair whose output tensor is smallest
    (ties broken by position for determinism), then outer-products any
    disconnected remainders.  Often beats order-derived plans on networks
    whose interaction graph fools the ordering heuristics, at the price of
    O(t^3) planning time in the tensor count.
    """
    inputs, dims = _plan_inputs(network)
    ops: List[Tuple[str, ...]] = list(inputs)
    steps: List[ContractionStep] = []
    while True:
        best: Optional[Tuple[int, int, int]] = None  # (size, i, j)
        for i, j in itertools.combinations(range(len(ops)), 2):
            shared = frozenset(ops[i]) & frozenset(ops[j])
            if not shared:
                continue
            size = 1
            for label in ops[i] + ops[j]:
                if label not in shared:
                    size *= dims[label]
            if best is None or (size, i, j) < best:
                best = (size, i, j)
        if best is None:
            break
        steps.append(_make_step(ops, best[1], best[2], dims))
    while len(ops) > 1:
        steps.append(_make_step(ops, 0, 1, dims))
    # A global elimination order consistent with the merge sequence (the
    # TDD manager needs one); leftovers are self-loop labels absent from
    # the pairwise engine.
    order: List[str] = []
    for step in steps:
        order.extend(sorted(step.eliminated))
    remaining = [i for i in network.all_indices() if i not in set(order)]
    return ContractionPlan(
        inputs=inputs, dims=dims, steps=tuple(steps),
        order=tuple(order + remaining), planner="greedy",
    )


def build_plan(
    network: TensorNetwork,
    planner: str = "order",
    order_method: str = "tree_decomposition",
    max_intermediate_size: Optional[int] = None,
    max_slices: Optional[int] = None,
    plan_budget_seconds: Optional[float] = None,
    plan_seed: int = 0,
    plan_trials: Optional[int] = None,
) -> ContractionPlan:
    """One-stop plan construction: pick a planner, optionally slice.

    The search planners (:data:`SEARCH_PLANNERS`) additionally honour
    ``plan_budget_seconds`` (wall-clock search budget; ``None`` means
    the default budget, ``0`` means baseline only), ``plan_seed``
    (deterministic trial seeding) and ``plan_trials`` (exact trial
    count, overriding the clock — the fully deterministic mode); the
    heuristic planners ignore all three.
    """
    if planner in SEARCH_PLANNERS:
        from ..planning import search_plan

        return search_plan(
            network,
            planner,
            budget_seconds=plan_budget_seconds,
            seed=plan_seed,
            trials=plan_trials,
            max_intermediate_size=max_intermediate_size,
            max_slices=max_slices,
        )
    if planner == "order":
        plan = plan_from_order(network, method=order_method)
    elif planner == "greedy":
        plan = greedy_plan(network)
    else:
        raise ValueError(
            f"unknown planner {planner!r}; choose from {sorted(PLANNERS)}"
        )
    if max_intermediate_size is not None:
        plan = slice_plan(plan, max_intermediate_size, max_slices=max_slices)
    return plan


# --- slicing ----------------------------------------------------------------


def _resliced_steps(
    plan: ContractionPlan, sliced: Set[str]
) -> List[ContractionStep]:
    """Replay the plan's merge positions with ``sliced`` labels removed."""
    ops: List[Tuple[str, ...]] = [
        tuple(lab for lab in labs if lab not in sliced) for labs in plan.inputs
    ]
    return [
        _make_step(ops, step.lhs, step.rhs, plan.dims) for step in plan.steps
    ]


def slice_plan(
    plan: ContractionPlan,
    max_intermediate_size: int,
    max_slices: Optional[int] = None,
) -> ContractionPlan:
    """Bound every intermediate by fixing (slicing) chosen indices.

    Greedily picks slice labels — the label occurring in the most
    oversized intermediates, largest dimension first — until no step's
    output exceeds ``max_intermediate_size``, and rewrites the plan into a
    sum over index-fixed subplans: execution runs the same step positions
    once per joint slice-index assignment and sums the scalars.  Returns
    ``plan`` unchanged when it already fits the bound.

    ``max_slices`` caps the number of subplan executions the bound may
    imply (default :data:`SLICE_HARD_LIMIT`); a tighter-than-feasible
    ``max_intermediate_size`` raises ``ValueError`` instead of silently
    scheduling a contraction that would never finish.
    """
    if max_intermediate_size < 1:
        raise ValueError("max_intermediate_size must be at least 1")
    if max_slices is None:
        max_slices = SLICE_HARD_LIMIT
    elif max_slices < 1:
        raise ValueError("max_slices must be at least 1")
    if plan.peak_size() <= max_intermediate_size:
        return plan
    sliced: Set[str] = set(plan.slices)
    steps = list(plan.steps)
    while True:
        oversized = [
            step for step in steps
            if step.output_size > max_intermediate_size
        ]
        if not oversized:
            break
        occurrences: Dict[str, int] = {}
        for step in oversized:
            for label in step.output:
                if plan.dims[label] > 1:
                    occurrences[label] = occurrences.get(label, 0) + 1
        # occurrences cannot be empty: an output larger than the bound
        # (>= 1) must contain a label of dimension > 1.  Occurrence and
        # size ties break on the label name itself — never on dict/set
        # iteration order — so the sliced plan, and therefore its digest
        # and every cache key derived from it, is identical across
        # Python hash seeds and processes.
        best = min(
            occurrences,
            key=lambda lab: (-occurrences[lab], -plan.dims[lab], lab),
        )
        sliced.add(best)
        steps = _resliced_steps(plan, sliced)
    result = replace(
        plan, steps=tuple(steps), slices=tuple(sorted(sliced))
    )
    if result.num_slices() > max_slices:
        raise ValueError(
            f"slicing to max_intermediate_size={max_intermediate_size} "
            f"requires {result.num_slices()} subplan executions over the "
            f"{len(result.slices)} sliced indices {list(result.slices)}, "
            f"above the max_slices cap of {max_slices}; loosen the bound "
            "or raise max_slices"
        )
    if result.num_slices() > SLICE_WARN_THRESHOLD:
        warnings.warn(
            f"slicing to max_intermediate_size={max_intermediate_size} "
            f"requires {result.num_slices()} subplan executions over the "
            f"{len(result.slices)} sliced indices {list(result.slices)}; "
            "expect runtime to scale accordingly (loosen the bound to "
            "trade memory back for time)",
            RuntimeWarning,
            stacklevel=2,
        )
    return result


# --- execution helpers ------------------------------------------------------


def iter_slice_assignments(
    plan: ContractionPlan,
) -> Iterator[Dict[str, int]]:
    """Yield one ``{label: value}`` assignment per subplan execution.

    Unsliced plans yield a single empty assignment, so executors can use
    one uniform loop.
    """
    if not plan.slices:
        yield {}
        return
    ranges = [range(plan.dims[label]) for label in plan.slices]
    for values in itertools.product(*ranges):
        yield dict(zip(plan.slices, values))


class SliceApplier:
    """Precomputed slice-fixing of a network's tensors.

    Self-tracing and the per-tensor bookkeeping (which axes carry sliced
    labels, which labels survive) are assignment-independent, so they are
    derived once at construction; applying one of potentially millions of
    slice assignments then only indexes ndarrays.
    """

    def __init__(self, tensors: Sequence[Tensor], slices: Sequence[str]):
        self.flat: List[Tensor] = [t.self_trace() for t in tensors]
        sliced = set(slices)
        #: per tensor: (positions of sliced axes, surviving labels)
        self._layout: List[Tuple[List[int], List[str]]] = [
            (
                [ax for ax, lab in enumerate(t.indices) if lab in sliced],
                [lab for lab in t.indices if lab not in sliced],
            )
            for t in self.flat
        ]

    def __call__(self, assignment: Dict[str, int]) -> List[Tensor]:
        """Operands with every sliced axis fixed to its assigned value."""
        if not assignment:
            return list(self.flat)
        operands: List[Tensor] = []
        for tensor, (positions, kept) in zip(self.flat, self._layout):
            if not positions:
                operands.append(tensor)
                continue
            indexer: List[object] = [slice(None)] * tensor.rank
            for axis in positions:
                indexer[axis] = assignment[tensor.indices[axis]]
            operands.append(Tensor(tensor.data[tuple(indexer)], kept))
        return operands


class BatchedSliceApplier:
    """Slice-fixing with a leading batch axis, for batched execution.

    The batched counterpart of :class:`SliceApplier`: instead of
    producing one operand set per assignment, :meth:`gather` produces
    one operand set per *chunk* of assignments, where every
    slice-varying tensor gains a leading batch axis of length
    ``len(chunk)`` and slice-independent tensors pass through unchanged
    (einsum broadcasting mixes the two freely).

    All assignment-independent work happens once at construction:
    self-tracing, finding which tensors carry sliced axes, and
    pre-transposing those tensors so their sliced axes lead — which
    turns per-chunk stacking into a single advanced-indexing gather per
    tensor.  Device placement also happens once: the first
    :meth:`gather` against a namespace moves every base tensor to the
    device, and later chunks only gather on-device (the "one host↔device
    transfer per plan execution" rule of :mod:`repro.backends.xp`).
    """

    def __init__(self, tensors: Sequence[Tensor], slices: Sequence[str]):
        sliced = set(slices)
        #: per tensor: (host base array, sliced-label order or None,
        #: surviving labels)
        self._layout: List[Tuple[np.ndarray, Optional[List[str]],
                                 List[str]]] = []
        for tensor in (t.self_trace() for t in tensors):
            positions = [
                ax for ax, lab in enumerate(tensor.indices) if lab in sliced
            ]
            kept = [lab for lab in tensor.indices if lab not in sliced]
            if not positions:
                self._layout.append((tensor.data, None, kept))
                continue
            labels = [tensor.indices[ax] for ax in positions]
            moved = np.ascontiguousarray(np.moveaxis(
                tensor.data, positions, range(len(positions))
            ))
            self._layout.append((moved, labels, kept))
        self._device_xp = None
        self._device_ops: List[object] = []

    def gather(self, xp, chunk: Sequence[Dict[str, int]]) -> List[object]:
        """Operands for one chunk: batched where sliced, shared where not.

        Returns one operand per tensor, ordered like the plan's inputs;
        batched operands have shape ``(len(chunk), *kept_axes)``.
        """
        if self._device_xp is not xp:
            self._device_ops = [
                xp.from_host(data) for data, _, _ in self._layout
            ]
            self._device_xp = xp
        operands: List[object] = []
        for base, (_, labels, _) in zip(self._device_ops, self._layout):
            if labels is None:
                operands.append(base)
                continue
            indexer = tuple(
                xp.index_array([assignment[lab] for assignment in chunk])
                for lab in labels
            )
            operands.append(base[indexer])
        return operands


def execute_plan(
    plan, network, *, load, merge, scalar, assignments=None
) -> complex:
    """Drive a plan over a network with backend-supplied callbacks.

    The one place that owns the step-position protocol (remove rhs then
    lhs, append the merged operand) and the slice-summation loop, so the
    three engines cannot drift apart on it.

    Parameters
    ----------
    load:
        ``load(tensors) -> list`` turning the (self-traced, slice-fixed)
        :class:`Tensor` operands into backend operands.
    merge:
        ``merge(a, b, step) -> operand`` executing one
        :class:`ContractionStep` on two backend operands.
    scalar:
        ``scalar(operand) -> complex`` extracting the final value of one
        subplan execution; results are summed over all slices.
    assignments:
        Execute only these slice assignments (a subset of
        :func:`iter_slice_assignments`) and return their partial sum —
        the hook :mod:`repro.parallel` uses to fan independent slices
        out to workers.  ``None`` (the default) executes every slice.
    """
    applier = SliceApplier(network.tensors, plan.slices)
    if assignments is None:
        assignments = iter_slice_assignments(plan)
    total = 0j
    for assignment in assignments:
        ops = load(applier(assignment))
        for step in plan.steps:
            a, b = ops[step.lhs], ops[step.rhs]
            del ops[step.rhs]
            del ops[step.lhs]
            ops.append(merge(a, b, step))
        total += scalar(ops[0])
    return total
