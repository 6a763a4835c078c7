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

The ``order_method`` plan knob picks one of two plan builders (see
:data:`ORDER_METHODS`), both dispatched by :func:`build_plan`:

* :func:`plan_from_order` — simulates the pairwise merge sequence an
  elimination order induces, by default the min-fill order of
  :func:`repro.tensornet.ordering.min_fill_order` (``min_fill``);
* :func:`repro.planning.search_plan` — budgeted anytime search
  (``anneal``) that spends a wall-clock budget on randomized
  restarts and never returns a plan worse than the min_fill baseline.

:func:`slice_plan` then rewrites any plan into a sum over index-fixed
subplans so that no intermediate exceeds a ``max_intermediate_size``
bound (memory-bounded contraction, the standard slicing trick of
large-scale tensor-network simulators).

Every step names the two nodes it merges.  For a plan of ``n`` inputs,
node ``i < n`` is input ``i`` and step ``k`` writes node ``n + k``
(:class:`ContractionStep`).  Planners, slicing, lowering
(:class:`repro.backends.xp.CompiledStep`) and the kernels all read steps
this one way.
"""

from __future__ import annotations

import hashlib
import itertools
import warnings
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .network import TensorNetwork
from .ordering import min_fill_order
from .tensor import Tensor

#: Values of the ``order_method`` plan knob (backends, ``CheckConfig``,
#: the wire config and the CLI), one per plan builder: the min-fill
#: elimination order of :mod:`repro.tensornet.ordering`, and the budgeted
#: anytime search ``"anneal"`` of :mod:`repro.planning`, which trades
#: ``plan_budget_seconds`` for cheaper plans and carries a
#: :class:`~repro.planning.PlanSearchReport` in ``search_report``.
ORDER_METHODS = ("min_fill", "anneal")

#: The ``order_method`` every entry point uses unless told otherwise.
DEFAULT_ORDER_METHOD = "min_fill"

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

    ``lhs < rhs`` are the nodes the step merges: for a plan of ``n``
    inputs, node ``i < n`` is input ``i`` and step ``k`` writes node
    ``n + k``, so each node is consumed at most once and the last step
    writes the root.  ``eliminated`` are the labels summed over in this
    step; ``output`` is the merged operand's label tuple (lhs survivors
    first, then rhs survivors, the order :meth:`Tensor.contract`
    produces).
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
    #: the ``order_method`` value that produced the plan
    #: (``"explicit"`` for a caller-supplied elimination order)
    planner: str = DEFAULT_ORDER_METHOD
    #: search provenance (a :class:`repro.planning.PlanSearchReport`)
    #: when the plan came from a budgeted search; ``None`` for
    #: min_fill and explicit orders.  Provenance, not structure: excluded from
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

    def _step_totals(self) -> Tuple[int, int, int]:
        """``(flops of one slice, peak_size, width)``, walked once per
        plan object.

        Kept outside the plan's fields like :meth:`lowered`'s value: a
        ``dataclasses.replace`` copy or an unpickled plan walks its own
        steps once.
        """
        totals = self.__dict__.get("_totals")
        if totals is None:
            totals = self.__dict__["_totals"] = (
                sum(step.flops for step in self.steps),
                max((step.output_size for step in self.steps), default=1),
                max((len(step.output) for step in self.steps), default=0),
            )
        return totals

    def peak_size(self) -> int:
        """Largest intermediate tensor any single subplan materialises.

        Counts merge outputs only (matching
        ``ContractionStats.max_intermediate_size``); the caller's input
        tensors are not the plan's to bound.
        """
        return self._step_totals()[1]

    def width(self) -> int:
        """Largest intermediate rank (the contraction-tree width)."""
        return self._step_totals()[2]

    def total_cost(self) -> int:
        """Predicted scalar multiply-adds across *all* slices."""
        return self.num_slices() * self._step_totals()[0]

    def all_labels(self) -> Set[str]:
        """Every label the pairwise engine sees (sliced ones included)."""
        labels: Set[str] = set(self.slices)
        for labs in self.inputs:
            labels.update(labs)
        return labels

    def digest(self) -> str:
        """Content digest of the plan's executable structure.

        Two plans with the same inputs, dims, steps and slices share a
        digest, whatever network object they were built from; provenance
        (``planner``, ``search_report``) does not enter it.  A stable
        identity for tests and tools to pin plans by.
        """
        payload = repr((
            self.inputs,
            tuple(sorted(self.dims.items())),
            tuple(
                (s.lhs, s.rhs, tuple(sorted(s.eliminated)), s.output)
                for s in self.steps
            ),
            self.slices,
        )).encode()
        return hashlib.sha1(payload).hexdigest()

    def lowered(self, lower):
        """``lower(self)``, computed once and kept on this plan object.

        Outside the plan's fields: equality, ``repr``, :meth:`digest` and
        pickling ignore it, and a ``dataclasses.replace`` copy or an
        unpickled plan starts without one.  Racing threads may each call
        ``lower``; all get the first result stored.
        """
        value = self.__dict__.get("_lowered")
        if value is None:
            value = self.__dict__.setdefault("_lowered", lower(self))
        return value

    def __getstate__(self) -> dict:
        return {
            k: v for k, v in self.__dict__.items()
            if k not in ("_lowered", "_totals")
        }

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
            f"order method     : {self.planner}",
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
        # share the tensor's own label tuple when nothing self-traces:
        # memoised plans then hold no second copy of it
        kept = (
            tensor.indices if len(counts) == len(tensor.indices)
            else tuple(lab for lab in tensor.indices if counts[lab] == 1)
        )
        for label, dim in zip(tensor.indices, tensor.data.shape):
            if counts[label] == 1:
                dims[label] = dim
        inputs.append(kept)
    return tuple(inputs), dims


def merge_cost(
    a: Tuple[str, ...], b: Tuple[str, ...], dims: Dict[str, int]
) -> Tuple[Tuple[str, ...], int, int]:
    """Output labels, output size and flops of merging operands ``a``, ``b``.

    The one merge cost model: plan steps and the anneal trials of
    :mod:`repro.planning.anneal` both price merges with it, so trial
    costs compare exactly against plan ``total_cost()`` values.
    """
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
    return output, size, flops


def _steps_from_pairs(
    inputs: Sequence[Tuple[str, ...]],
    dims: Dict[str, int],
    pairs: Sequence[Tuple[int, int]],
) -> List[ContractionStep]:
    """Steps merging the node pairs ``pairs`` in order, then outer products
    of what is left, lowest nodes first (nodes as in
    :class:`ContractionStep`)."""
    ops: Dict[int, Tuple[str, ...]] = dict(enumerate(inputs))
    steps: List[ContractionStep] = []
    pending = iter(pairs)
    while len(ops) > 1:
        # past the last pair, disconnected components are left
        a, b = next(pending, None) or sorted(ops)[:2]
        lhs, rhs = (a, b) if a < b else (b, a)
        x, y = ops.pop(lhs), ops.pop(rhs)
        output, size, flops = merge_cost(x, y, dims)
        ops[len(inputs) + len(steps)] = output
        steps.append(ContractionStep(
            lhs, rhs, frozenset(x) & frozenset(y), output, size, flops
        ))
    return steps


def _steps_from_order(
    inputs: Sequence[Tuple[str, ...]],
    dims: Dict[str, int],
    order: Sequence[str],
) -> List[ContractionStep]:
    """Simulate the dense engine's merge sequence along ``order``.

    A label -> holder-ids map names the two operands each label merges.
    """
    labels = dict(enumerate(map(frozenset, inputs)))
    holders: Dict[str, Set[int]] = {}
    for op_id, labs in labels.items():
        for label in labs:
            holders.setdefault(label, set()).add(op_id)
    pairs: List[Tuple[int, int]] = []
    for label in order:
        pair = holders.get(label, ())
        if len(pair) == 2:  # a label merged away is left one holder
            a, b = pair
            new_id = len(inputs) + len(pairs)
            pairs.append((a, b))
            labels[new_id] = labels[a] ^ labels[b]
            for lab in labels.pop(a) | labels.pop(b):
                holders[lab] = holders[lab] - pair | {new_id}
    return _steps_from_pairs(inputs, dims, pairs)


def plan_from_order(
    network: TensorNetwork,
    order: Optional[Sequence[str]] = None,
) -> ContractionPlan:
    """Plan the pairwise merge sequence an elimination order induces.

    ``order`` wins when given; otherwise
    :func:`~repro.tensornet.ordering.min_fill_order` derives it.
    """
    inputs, dims = _plan_inputs(network)
    if order is None:
        order, planner = min_fill_order(network), "min_fill"
    else:
        order, planner = list(order), "explicit"
    seen = set(order)
    full = list(order) + [i for i in network.all_indices() if i not in seen]
    steps = _steps_from_order(inputs, dims, full)
    return ContractionPlan(
        inputs=inputs, dims=dims, steps=tuple(steps),
        order=tuple(full), planner=planner,
    )


def build_plan(
    network: TensorNetwork,
    order_method: str = DEFAULT_ORDER_METHOD,
    max_intermediate_size: Optional[int] = None,
    max_slices: Optional[int] = None,
    plan_budget_seconds: Optional[float] = None,
    plan_seed: int = 0,
    plan_trials: Optional[int] = None,
) -> ContractionPlan:
    """One-stop plan construction: pick a plan builder, optionally slice.

    ``order_method`` is one of :data:`ORDER_METHODS`.  The search
    (``anneal``) additionally honours ``plan_budget_seconds``
    (wall-clock search budget; ``None`` means the default budget, ``0``
    means baseline only), ``plan_seed`` (deterministic trial seeding)
    and ``plan_trials`` (exact trial count, overriding the clock — the
    fully deterministic mode); ``min_fill`` ignores all three.
    """
    if order_method not in ORDER_METHODS:
        raise ValueError(
            f"unknown order_method {order_method!r}; "
            f"choose from {list(ORDER_METHODS)}"
        )
    if order_method == "min_fill":
        plan = plan_from_order(network)
    else:  # "anneal"
        from ..planning import search_plan

        return search_plan(
            network,
            budget_seconds=plan_budget_seconds,
            seed=plan_seed,
            trials=plan_trials,
            max_intermediate_size=max_intermediate_size,
            max_slices=max_slices,
        )
    if max_intermediate_size is not None:
        plan = slice_plan(plan, max_intermediate_size, max_slices=max_slices)
    return plan


# --- slicing ----------------------------------------------------------------


def slice_plan(
    plan: ContractionPlan,
    max_intermediate_size: int,
    max_slices: Optional[int] = None,
) -> ContractionPlan:
    """Bound every intermediate by fixing (slicing) chosen indices.

    Greedily picks slice labels — the label occurring in the most
    oversized intermediates, largest dimension first — until no step's
    output exceeds ``max_intermediate_size``, and rewrites the plan into a
    sum over index-fixed subplans: execution runs the same merges
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
    pairs = [(step.lhs, step.rhs) for step in plan.steps]
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
        steps = _steps_from_pairs(
            [tuple(lab for lab in labs if lab not in sliced)
             for labs in plan.inputs],
            plan.dims,
            pairs,
        )
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
    """Precomputed slice-fixing of a network's tensors, one chunk at a time.

    Self-tracing and the per-tensor layout (which axes carry sliced
    labels, which labels survive) are assignment-independent, so they
    are derived once at construction.  Tensors carrying sliced axes are
    stored with those axes leading, which makes fixing a chunk of
    assignments one indexing operation per tensor.  Device placement
    also happens once: the first :meth:`gather` against a namespace
    moves every base array there, and later chunks only index on-device
    (the "one host↔device transfer per plan execution" rule of
    :mod:`repro.backends.xp`).
    """

    def __init__(self, tensors: Sequence[Tensor], slices: Sequence[str]):
        sliced = set(slices)
        #: the self-traced tensors, before slicing
        self.flat: List[Tensor] = [t.self_trace() for t in tensors]
        #: per operand: its surviving labels, in axis order
        self.labels: List[Tuple[str, ...]] = [t.indices for t in self.flat]
        #: per operand: the sliced labels leading its base array
        self._fixed: List[Tuple[str, ...]] = [()] * len(self.flat)
        self._host: List[np.ndarray] = [t.data for t in self.flat]
        for position, tensor in enumerate(self.flat):
            if sliced.isdisjoint(tensor.indices):
                continue
            axes = [
                ax for ax, lab in enumerate(tensor.indices) if lab in sliced
            ]
            self.labels[position] = tuple(
                lab for lab in tensor.indices if lab not in sliced
            )
            self._fixed[position] = tuple(tensor.indices[ax] for ax in axes)
            self._host[position] = np.ascontiguousarray(
                np.moveaxis(tensor.data, axes, range(len(axes)))
            )
        self._bases: List[object] = self._host
        self._placed_on = None

    def gather(self, chunk: Sequence[Dict[str, int]], xp=None) -> List[object]:
        """Operands for one chunk of slice assignments, in tensor order.

        A chunk of one fixes every sliced axis by integer indexing; a
        longer chunk gathers a leading batch axis of length
        ``len(chunk)`` onto every slice-varying operand.  Operands
        without sliced axes pass through unbatched either way (einsum
        broadcasting mixes the two).  ``xp`` is the
        :class:`~repro.backends.xp.ArrayNamespace` to place operands on;
        ``None`` keeps host ndarrays.
        """
        if xp is not self._placed_on:
            self._bases = (
                self._host if xp is None
                else [xp.from_host(data) for data in self._host]
            )
            self._placed_on = xp
        if len(chunk) == 1:
            assignment = chunk[0]
            # The trailing Ellipsis keeps a fully fixed operand a 0-d
            # array instead of collapsing it to a scalar.
            return [
                base[tuple(assignment[lab] for lab in fixed) + (Ellipsis,)]
                if fixed else base
                for base, fixed in zip(self._bases, self._fixed)
            ]
        index = np.asarray if xp is None else xp.index_array
        return [
            base[tuple(
                index([assignment[lab] for assignment in chunk])
                for lab in fixed
            )]
            if fixed else base
            for base, fixed in zip(self._bases, self._fixed)
        ]
