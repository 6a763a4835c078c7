"""The pluggable contraction-backend protocol and its registry.

A :class:`ContractionBackend` turns closed tensor networks into scalar
values.  The checking algorithms (:mod:`repro.core.algorithm1`,
:mod:`repro.core.algorithm2`) are written against this protocol only, so
a new engine — sparse, sliced, multi-process, GPU — plugs in by
subclassing and calling :func:`register_backend`, with no changes to the
algorithm layer.

Planning and execution are separate layers: every backend *executes* a
shared :class:`~repro.tensornet.planner.ContractionPlan` (built once per
network structure by :meth:`ContractionBackend.plan_for` and memoised),
so the same plan object — same pairwise steps, same predicted cost,
same slicing — drives the TDD, dense and einsum engines alike.  One
core, :meth:`ContractionBackend.execute_chunks`, executes it for every
engine and yields per-slice values chunk by chunk;
:meth:`ContractionBackend.contract_scalar` sums them, Algorithm I sums
their squared moduli.  A backend only supplies a
:class:`ContractionKernel` (how to load a chunk of slices, merge two
operands, read the chunk's values).

Backends are *stateful*: an instance may keep contraction plans and
decision-diagram managers warm across calls.  That is how a
:class:`~repro.core.session.CheckSession` amortises setup work over many
circuit pairs.
"""

from __future__ import annotations

import abc
import math
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .. import trace as _trace
from ..cache import PlanCache, open_cache, plan_key, structure_fingerprint
from ..planning.driver import validate_plan_budget_seconds
from ..tensornet import ContractionStats, TensorNetwork
from ..tensornet.planner import (
    DEFAULT_ORDER_METHOD,
    ORDER_METHODS,
    ContractionPlan,
    SliceApplier,
    build_plan,
    iter_slice_assignments,
)
from .xp import (
    AUTO_SLICE_BATCH_BUDGET,
    CompiledPlan,
    CompiledStep,
    compiled_for,
    namespace_available,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..parallel.executors import SliceExecutor

#: Capacity of a backend's plan memo (plans, not bytes): the one
#: in-process memo of plan objects, least recently used evicted first.
DEFAULT_PLAN_MEMO = 256

#: Capacity of a backend's miter template memo (templates, least
#: recently used evicted first).  Each entry holds a whole closed
#: network (a full memo of cold Table I checks adds ~3 MB of RSS), so
#: the cap is far below the plan memo's.
MITER_TEMPLATE_MEMO = 32


def _lru_put(memo: "OrderedDict", key, value, cap: int) -> None:
    """Store ``value`` under ``key``, evicting the least recently used
    entry once ``memo`` holds more than ``cap``."""
    memo[key] = value
    if len(memo) > cap:
        memo.popitem(last=False)


def _coerce_plan_cache(
    plan_cache: Union[None, PlanCache, str, os.PathLike, tuple]
) -> Optional[PlanCache]:
    """Accept a ready :class:`PlanCache` or its rebuild recipe.

    The recipe forms are what travel inside :meth:`describe` specs to
    worker processes: a bare directory re-opens the standard two-tier
    cache there; a ``(directory, cache_url)`` pair additionally appends
    the remote tier (see :attr:`repro.cache.PlanCache.spec`), so a
    worker fleet shares the same cache server as its dispatcher.
    """
    if plan_cache is None or isinstance(plan_cache, PlanCache):
        return plan_cache
    if isinstance(plan_cache, (str, os.PathLike)):
        return open_cache(plan_cache).plans
    if isinstance(plan_cache, (tuple, list)) and len(plan_cache) == 2:
        directory, cache_url = plan_cache
        return open_cache(directory, cache_url=cache_url).plans
    raise TypeError(
        "plan_cache must be a PlanCache, a cache directory path, a "
        "(directory, cache_url) pair or None, "
        f"got {type(plan_cache)!r}"
    )


def validate_plan_seed(value: int) -> None:
    """Validate a ``plan_seed`` knob (shared with CheckConfig).

    Valid values: any integer >= 0 (seeds the per-trial RNG streams of
    the ``anneal`` search).
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(
            f"plan_seed must be an integer >= 0, got "
            f"{type(value).__name__} {value!r}"
        )
    if value < 0:
        raise ValueError(f"plan_seed must be an integer >= 0, got {value!r}")


def validate_plan_knobs(
    order_method: str,
    max_intermediate_size: Optional[int],
    slice_batch: Optional[int],
    plan_budget_seconds: Optional[float],
    plan_seed: int,
) -> None:
    """Validate the plan knobs shared by backends and CheckConfig."""
    if order_method not in ORDER_METHODS:
        raise ValueError(
            f"unknown order_method {order_method!r}; "
            f"choose from {list(ORDER_METHODS)}"
        )
    if max_intermediate_size is not None and max_intermediate_size < 1:
        raise ValueError("max_intermediate_size must be at least 1")
    if slice_batch is not None and slice_batch < 1:
        raise ValueError("slice_batch must be at least 1")
    validate_plan_budget_seconds(plan_budget_seconds)
    validate_plan_seed(plan_seed)


class ContractionKernel(abc.ABC):
    """The numerics one engine plugs into the shared plan driver.

    A kernel lives for one :meth:`ContractionBackend.execute_chunks`
    stream.  The driver owns plan resolution, slice chunking and the
    step loop; the kernel turns a chunk of slice assignments into
    operands, merges two operands for one step, and reads the chunk's
    per-slice values.  A chunk of one slice has no batch axis;
    longer chunks (only for backends with
    :attr:`ContractionBackend.supports_batched_slices`) carry a leading
    batch axis wherever an operand varies across slices.
    """

    @abc.abstractmethod
    def load(
        self, applier: SliceApplier, chunk: Sequence[Dict[str, int]]
    ) -> list:
        """The chunk's operands, ordered like the applier's tensors (the
        network's, or only a fold's varying inputs)."""

    @abc.abstractmethod
    def merge(self, a, b, step: CompiledStep):
        """Contract two operands of the loaded chunk for ``step``."""

    @abc.abstractmethod
    def values(self, operand) -> np.ndarray:
        """The chunk's final operand as one host complex per slice."""


@dataclass(frozen=True)
class PlanFold:
    """A plan whose constant steps ran once, for networks that differ
    only in some inputs.

    Steps and operands are named by their plan nodes (see
    :class:`~repro.backends.xp.CompiledStep`).  A step is
    *residual* when an input below it varies between the executions the
    fold serves (a refilled noise tensor, or a tensor carrying a sliced
    label), and *constant* otherwise.  The fold holds the operand of
    every constant node a residual step consumes, plus the root when no
    input varies.  :meth:`run` then loads only the varying inputs and
    runs only the residual steps: the same
    :class:`~repro.backends.xp.CompiledStep` calls, in plan order, each
    with its own lhs and rhs, so its values equal the whole plan's bit
    for bit.  A held operand that a BLAS step would transpose and copy
    on every run is held in that copy's layout instead, and its step
    reads it as is (:func:`_blas_ready`).  Built by
    :meth:`ContractionBackend.fold_constants`; a whole-plan execution
    is the fold that holds nothing.
    """

    #: the residual steps, in plan order
    steps: Tuple[CompiledStep, ...]
    #: the varying inputs, as positions in the network's tensor list
    inputs: Tuple[int, ...]
    #: constant node -> its operand (read-only on numpy)
    arrays: Dict[int, object]
    #: the node of the plan's final operand
    root: int
    #: how many of the plan's steps the fold ran once
    folded_steps: int
    #: predicted flops per slice of the residual steps
    cost: int

    def run(self, operands: Sequence, merge) -> object:
        """The final operand, from the varying inputs' ``operands``."""
        nodes = dict(self.arrays)
        nodes.update(zip(self.inputs, operands))
        for step in self.steps:
            nodes[step.out] = merge(
                nodes.pop(step.lhs), nodes.pop(step.rhs), step
            )
        return nodes[self.root]


def _read_only(operand):
    """A numpy operand as a read-only view; other operands as they are."""
    if isinstance(operand, np.ndarray):
        operand = operand.view()
        operand.setflags(write=False)
    return operand


def _blas_ready(operand, step: CompiledStep, side: int):
    """A held ``operand`` already in the layout ``np.tensordot`` copies
    it into on ``side`` (0 = lhs, 1 = rhs) of ``step``, and the step
    rewritten to read it as is; ``None`` when that call copies nothing.

    ``tensordot`` transposes each operand to (kept axes, summed axes) on
    the lhs and (summed axes, kept axes) on the rhs, and reshapes it to a
    matrix, which copies a permuted operand on every execution; for qft9
    that is a strided 4 MB copy per check.  The held copy is that same
    C-contiguous matrix, so ``dot`` reads the same values in the same
    order and the step's value stays bit for bit the same.
    """
    if (
        not isinstance(operand, np.ndarray)
        or step.axes is None
        or step.out_batched
    ):
        return None
    summed = list(step.axes[side])
    kept = [axis for axis in range(operand.ndim) if axis not in summed]
    order = kept + summed if side == 0 else summed + kept
    transposed = operand.transpose(order)
    groups = (kept, summed) if side == 0 else (summed, kept)
    matrix = transposed.reshape(tuple(
        math.prod(operand.shape[axis] for axis in group) for group in groups
    ))
    if np.may_share_memory(matrix, operand):
        return None  # tensordot reads a view: nothing to save
    axes = list(step.axes)
    axes[side] = tuple(
        range(len(kept), operand.ndim) if side == 0 else range(len(summed))
    )
    subscripts = list(step.subscripts)
    subscripts[side] = tuple(step.subscripts[side][axis] for axis in order)
    return matrix.reshape(transposed.shape), replace(
        step,
        axes=tuple(axes),
        subscripts=tuple(subscripts),
        batched_subscripts=tuple(subscripts),
    )


def fold_plan(
    engine: "ContractionBackend",
    network: TensorNetwork,
    plan: ContractionPlan,
    varying: Iterable[int],
) -> Optional[PlanFold]:
    """Run ``plan``'s constant steps on ``network`` once, through the
    kernel :meth:`~ContractionBackend.execute_chunks` would use.

    ``varying`` lists the positions of the tensors that later executions
    replace; tensors carrying a sliced label vary too.  Returns ``None``
    when the engine has a ``max_intermediate_size`` and the fold's
    operands would total more elements than it: a held fold is one more
    intermediate.  The size is read off the plan, so a declined fold
    contracts nothing.
    """
    compiled = compiled_for(plan)
    count = len(compiled.input_batched)
    varying = set(varying)
    dirty = [
        batched or position in varying
        for position, batched in enumerate(compiled.input_batched)
    ]
    for step in compiled.steps:  # step k's output is node count + k
        dirty.append(dirty[step.lhs] or dirty[step.rhs])
    residual = tuple(step for step in compiled.steps if dirty[step.out])
    folded = len(compiled.steps) - len(residual)
    kept = {
        operand for step in residual for operand in (step.lhs, step.rhs)
        if not dirty[operand]
    }
    if not dirty[compiled.root]:
        kept.add(compiled.root)

    size = sum(
        math.prod(plan.dims[label] for label in plan.inputs[node])
        if node < count else plan.steps[node - count].output_size
        for node in kept
    )
    if (
        engine.max_intermediate_size is not None
        and size > engine.max_intermediate_size
    ):
        return None
    with _trace.span("plan.fold") as fold_span:
        constant = [position for position in range(count)
                    if not dirty[position]]
        kernel = engine.kernel(network, plan, compiled, None)
        applier = SliceApplier(
            [network.tensors[position] for position in constant], plan.slices
        )
        operands = dict(zip(constant, kernel.load(applier, [{}])))
        for step in compiled.steps:
            if not dirty[step.out]:
                operands[step.out] = kernel.merge(
                    operands.pop(step.lhs), operands.pop(step.rhs), step
                )
        steps = []
        for step in residual:
            for side, node in enumerate((step.lhs, step.rhs)):
                ready = (
                    None if dirty[node]
                    else _blas_ready(operands[node], step, side)
                )
                if ready is not None:
                    operands[node], step = ready
            steps.append(step)
        fold_span.set(steps=folded, arrays=len(kept), size=size)
    return PlanFold(
        steps=tuple(steps),
        inputs=tuple(
            position for position in range(count) if dirty[position]
        ),
        arrays={node: _read_only(operands[node]) for node in kept},
        root=compiled.root,
        folded_steps=folded,
        cost=sum(plan.steps[step.out - count].flops for step in residual),
    )


class ContractionBackend(abc.ABC):
    """Contracts closed tensor networks to scalars.

    Parameters
    ----------
    order_method:
        How plans are built (see
        :data:`repro.tensornet.planner.ORDER_METHODS`): the min-fill
        elimination order ``"min_fill"``, whose order induces the
        pairwise steps, or the budgeted search ``"anneal"`` (randomized
        restarts under ``plan_budget_seconds``, never worse than the
        min_fill baseline).
    share_computed_table:
        Allow the backend to reuse internal *numeric* state — computed
        tables, dense→TDD conversion caches — across calls.  The paper's
        Table II 'Ori.' ablation runs with this off.  Plans are pure
        structure and stay memoised either way.
    plan_budget_seconds:
        Wall-clock budget for the anneal search (ignored by
        ``min_fill``).  ``None`` (the default) uses
        :data:`repro.planning.DEFAULT_PLAN_BUDGET_SECONDS`; ``0``
        returns the min_fill baseline without searching.
    plan_seed:
        Seed for the anneal search's randomized trials (ignored by
        ``min_fill``); identical seeds replay identical trial
        sequences.
    max_intermediate_size:
        When set, plans are sliced so no intermediate tensor exceeds this
        many elements (:func:`repro.tensornet.planner.slice_plan`);
        contraction becomes a sum over index-fixed subplans.
    executor:
        Optional :class:`~repro.parallel.SliceExecutor` the backend
        delegates sliced plans to — the slice-level parallelism hook.
        ``None`` (the default) runs the slice-summation loop inline.
    plan_cache:
        Optional shared :class:`~repro.cache.PlanCache` (or a cache
        directory path, which opens the standard two-tier cache there)
        consulted by :meth:`plan_for` before planning and fed after.
        ``None`` (the default) keeps planning per-instance, exactly as
        before the caching subsystem.  The ``plan_cache_hits`` /
        ``plan_cache_misses`` instance counters track how often
        :meth:`plan_for` was served without running a planner; they
        only move while a cache is attached.
    device:
        Device the backend's numerics run on (``None`` = the backend's
        default, usually ``"cpu"``).  Array-API backends resolve it
        through their namespace (``"cpu"``, ``"cuda"``, ``"cuda:1"``);
        backends whose engine is device-less (TDD) accept only the CPU.
        Validated at construction — a device the backend cannot honour
        fails immediately with the real reason.
    slice_batch:
        How many index-fixed subplans of a sliced plan to contract per
        batched kernel sweep.  ``None`` (the default) auto-sizes against
        :data:`AUTO_SLICE_BATCH_BUDGET` so ``slice_batch × peak
        intermediate`` stays memory-bounded; ``1`` forces the one-slice-
        at-a-time reference loop; explicit ``N`` pins the batch (peak
        memory scales as ``N × max_intermediate_size``).  Only array
        backends batch (see :attr:`supports_batched_slices`); the TDD
        engine contracts diagrams per slice and documents the knob as
        inert.
    """

    #: Registry name of the backend; concrete subclasses must override.
    name: ClassVar[str] = ""

    #: Whether the backend can fuse a sliced plan's subplans into batched
    #: kernels.  Engines that cannot (TDD) run the per-slice loop no
    #: matter what ``slice_batch`` says.
    supports_batched_slices: ClassVar[bool] = False

    def __init__(
        self,
        order_method: str = DEFAULT_ORDER_METHOD,
        share_computed_table: bool = True,
        max_intermediate_size: Optional[int] = None,
        executor: Optional["SliceExecutor"] = None,
        plan_cache: Union[None, PlanCache, str, os.PathLike] = None,
        device: Optional[str] = None,
        slice_batch: Optional[int] = None,
        plan_budget_seconds: Optional[float] = None,
        plan_seed: int = 0,
    ):
        validate_plan_knobs(
            order_method, max_intermediate_size, slice_batch,
            plan_budget_seconds, plan_seed,
        )
        self.device = device
        self.slice_batch = slice_batch
        self.order_method = order_method
        self.share_computed_table = share_computed_table
        self.max_intermediate_size = max_intermediate_size
        self.plan_budget_seconds = plan_budget_seconds
        self.plan_seed = plan_seed
        self.executor = executor
        self.plan_cache = _coerce_plan_cache(plan_cache)
        #: plan_for calls served without running a planner (any tier:
        #: the instance's plan memo, the shared memory LRU, disk).
        #: Only counted while a plan cache is attached, so uncached
        #: runs keep today's all-zero stats.
        self.plan_cache_hits = 0
        #: plan_for calls that had to run a planner despite the cache.
        self.plan_cache_misses = 0
        #: cumulative wall-clock seconds spent inside :meth:`plan_for`
        #: (cache lookups, min_fill and search trials alike) — the
        #: session turns deltas of this into ``RunStats.planning_seconds``.
        self.planning_seconds_total = 0.0
        #: cumulative search trials run by fresh plan builds; cache hits
        #: add nothing (the whole point of persisting searched plans).
        self.plan_trials_total = 0
        #: structure -> plan, least recently used first (at most
        #: DEFAULT_PLAN_MEMO entries)
        self._plan_cache: "OrderedDict[tuple, ContractionPlan]" = (
            OrderedDict()
        )
        #: miter key -> miter template (network, noise slots, plan), least
        #: recently used first (at most MITER_TEMPLATE_MEMO entries)
        self._templates: "OrderedDict[bytes, object]" = OrderedDict()

    def contract_scalar(
        self,
        network: TensorNetwork,
        stats: Optional[ContractionStats] = None,
        plan: Optional[ContractionPlan] = None,
        assignments: Optional[Sequence[Dict[str, int]]] = None,
        fold: Optional[PlanFold] = None,
    ) -> complex:
        """Contract a closed ``network`` to its scalar value.

        Resolves the plan, hands sliced plans to the :attr:`executor`,
        chunks the slice assignments by :meth:`effective_slice_batch`
        and sums the per-slice values :meth:`execute_chunks` yields.

        Parameters
        ----------
        network:
            A closed tensor network (no open indices).
        stats:
            Optional collector; kernels fill the fields they can
            (``max_nodes`` for decision diagrams,
            ``max_intermediate_size`` for dense engines), and the driver
            adds the plan-derived ``predicted_cost``/
            ``predicted_peak_size``/``slice_count`` predictions.
        plan:
            Execute this :class:`ContractionPlan` instead of planning —
            the "plan once, execute anywhere" entry point.  Must have
            been built for a network of identical structure and shapes.
            ``None`` (the default) uses :meth:`plan_for`.
        assignments:
            Execute only these slice assignments of a sliced plan and
            return their *partial* sum (the worker-side entry point of
            :mod:`repro.parallel`).  ``None`` executes every slice.  A
            call carrying explicit assignments never re-dispatches to
            the backend's executor, and does not re-record the plan's
            predictions into ``stats`` — the dispatching call recorded
            the full plan already.
        fold:
            ``plan``'s :class:`PlanFold` (:meth:`fold_constants`) for
            ``network``, passed on to :meth:`execute_chunks`.  The
            predictions recorded into ``stats`` stay the whole plan's.
            A sliced plan handed to the :attr:`executor` runs unfolded.
        """
        if plan is None:
            plan = self.plan_for(network)
        if assignments is None:
            if stats is not None:
                stats.predicted_cost += plan.total_cost()
                stats.predicted_peak_size = max(
                    stats.predicted_peak_size, plan.peak_size()
                )
                stats.slice_count = max(
                    stats.slice_count, plan.num_slices()
                )
            if self.executor is not None and plan.num_slices() > 1:
                return self.executor.contract(self, network, plan, stats)
            assignments = list(iter_slice_assignments(plan))
        else:
            assignments = list(assignments)
        batch = max(
            1, min(self.effective_slice_batch(plan), len(assignments))
        )
        chunks = (
            assignments[start:start + batch]
            for start in range(0, len(assignments), batch)
        )
        total = 0j
        for values in self.execute_chunks(
            network, plan, chunks, stats, fold=fold
        ):
            total += complex(values.sum())
        return total

    def execute_chunks(
        self,
        network: TensorNetwork,
        plan: ContractionPlan,
        chunks: Iterable[Sequence[Dict[str, int]]],
        stats: Optional[ContractionStats] = None,
        fold: Optional[PlanFold] = None,
    ) -> Iterator[np.ndarray]:
        """Per-slice values of each chunk of slice assignments, in order.

        The one execution core of every engine: it takes the plan's
        lowered form (:func:`~repro.backends.xp.compiled_for`), builds
        the backend's :meth:`kernel`, and for each chunk loads the
        operands, runs the steps through :meth:`PlanFold.run` and yields
        the chunk's values — one complex per assignment, in chunk order.
        ``chunks`` is pulled lazily, one chunk after the caller has
        consumed the previous chunk's values, so a caller can size or
        stop the stream as it goes (Algorithm I does).

        Without a ``fold`` the run is the fold that holds nothing: every
        input loaded, every step run.  With one (:meth:`fold_constants`
        of ``plan`` on a network that differs from ``network`` at most
        in the fold's varying inputs) each chunk loads only those inputs
        and runs only the residual steps, on the fold's held operands.

        The whole stream runs inside one ``plan.execute`` span, closed
        when the stream is exhausted or closed; its ``slices``,
        ``steps`` (steps each slice ran), ``folded_steps`` and
        ``predicted_cost`` (per-slice flops of the steps run times
        slices run) describe the work that actually ran.  ``network``
        may keep open legs exactly on the plan's sliced labels: every
        chunk fixes them.
        """
        compiled = compiled_for(plan)
        if fold is None:
            fold = PlanFold(
                compiled.steps, tuple(range(len(compiled.input_batched))),
                {}, compiled.root, 0, sum(step.flops for step in plan.steps),
            )
        with _trace.span("plan.execute") as execute_span:
            applier = SliceApplier(
                [network.tensors[position] for position in fold.inputs],
                plan.slices,
            )
            kernel = self.kernel(network, plan, compiled, stats)
            ran = 0
            try:
                for chunk in chunks:
                    operands = kernel.load(applier, chunk)
                    result = fold.run(operands, kernel.merge)
                    ran += len(chunk)
                    if len(chunk) > 1 and stats is not None:
                        stats.batched_slice_calls += 1
                    yield kernel.values(result)
            finally:
                execute_span.set(
                    slices=ran,
                    device=self.resolved_device,
                    steps=len(fold.steps),
                    folded_steps=fold.folded_steps,
                    predicted_cost=fold.cost * ran,
                )

    def kernel(
        self,
        network: TensorNetwork,
        plan: ContractionPlan,
        compiled: CompiledPlan,
        stats: Optional[ContractionStats],
    ) -> "ContractionKernel":
        """The numerics of one :meth:`execute_chunks` stream.

        Engines override this (arguments as for :meth:`execute_chunks`,
        plus the plan's lowered form); a backend that overrides
        :meth:`contract_scalar` wholesale need not.
        """
        raise NotImplementedError(
            f"{type(self).__name__} supplies no contraction kernel"
        )

    def fold_constants(
        self,
        network: TensorNetwork,
        plan: ContractionPlan,
        varying: Iterable[int],
    ) -> Optional[PlanFold]:
        """``plan``'s constant steps run once on ``network``, or ``None``.

        ``varying`` are the positions of the tensors later executions
        replace (a miter template's noise sites).  The result goes to
        :meth:`contract_scalar` / :meth:`execute_chunks` as ``fold``.
        Only engines whose operands can be held and reused across
        executions override this with :func:`fold_plan`; the base
        engine folds nothing.
        """
        return None

    def plan_for(self, network: TensorNetwork) -> ContractionPlan:
        """The contraction plan for ``network``, memoised per structure.

        A session checks many structurally identical networks (a noise
        sweep changes only tensor values); the (possibly expensive)
        planning pass — min-fill ordering, pairwise simulation,
        slicing — runs once per structure+shape and the resulting plan
        is replayed.  The memo
        keeps the :data:`DEFAULT_PLAN_MEMO` most recently used plans.

        With a :attr:`plan_cache` attached a memo miss additionally
        consults the shared content-addressed cache, so the planning
        pass runs once per structure *per fleet* rather than per
        backend instance, and feeds fresh plans back for every other
        process to reuse.
        """
        started = time.perf_counter()
        try:
            # the structure fixes each tensor's rank, so one flat tuple of
            # dimensions pins every shape
            memo_key = (
                network.structure_key(),
                tuple(d for t in network.tensors for d in t.data.shape),
            )
            plan = self._plan_cache.get(memo_key)
            if plan is not None:
                self._plan_cache.move_to_end(memo_key)
                if self.plan_cache is not None:
                    self.plan_cache_hits += 1
                return plan
            if self.plan_cache is not None:
                store_key = plan_key(
                    structure_fingerprint(network),
                    self.order_method,
                    self.max_intermediate_size,
                    self.plan_budget_seconds,
                    self.plan_seed,
                )
                with _trace.span("plan.cache.get") as lookup_span:
                    plan = self.plan_cache.get(store_key)
                    lookup_span.set(hit=plan is not None)
                if plan is not None:
                    self.plan_cache_hits += 1
                    _lru_put(self._plan_cache, memo_key, plan,
                             DEFAULT_PLAN_MEMO)
                    return plan
            with _trace.span(
                "plan.build", order_method=self.order_method
            ) as build_span:
                plan = build_plan(
                    network,
                    order_method=self.order_method,
                    max_intermediate_size=self.max_intermediate_size,
                    plan_budget_seconds=self.plan_budget_seconds,
                    plan_seed=self.plan_seed,
                )
                build_span.set(
                    cost=plan.total_cost(), slices=plan.num_slices()
                )
            report = getattr(plan, "search_report", None)
            if report is not None:
                self.plan_trials_total += report.trials
            _lru_put(self._plan_cache, memo_key, plan, DEFAULT_PLAN_MEMO)
            if self.plan_cache is not None:
                self.plan_cache_misses += 1
                with _trace.span("plan.cache.put"):
                    self.plan_cache.put(store_key, plan)
            return plan
        finally:
            self.planning_seconds_total += time.perf_counter() - started

    def lookup_template(self, key: bytes) -> Optional[object]:
        """The miter template memoised under ``key``, or ``None``.

        The template memo sits in front of :meth:`plan_for`: a hit
        carries the network *and* its plan, so the algorithms skip both
        the miter build and the plan lookup
        (:func:`repro.core.miter.memoised_miter`).  A hit therefore
        counts as a plan-memo hit: it moves ``plan_cache_hits`` (while a
        plan cache is attached) and ``planning_seconds_total`` exactly as
        a :meth:`plan_for` memo hit does, and runs no search trials.
        """
        started = time.perf_counter()
        template = self._templates.get(key)
        if template is not None:
            self._templates.move_to_end(key)
            if self.plan_cache is not None:
                self.plan_cache_hits += 1
            self.planning_seconds_total += time.perf_counter() - started
        return template

    def store_template(self, key: bytes, template: object) -> None:
        """Memoise a miter template (at most :data:`MITER_TEMPLATE_MEMO`)."""
        _lru_put(self._templates, key, template, MITER_TEMPLATE_MEMO)

    @property
    def resolved_device(self) -> str:
        """Device the backend actually runs on (host CPU by default).

        Array-namespace backends override this with the namespace's
        normalised device string.
        """
        return self.device or "cpu"

    def effective_slice_batch(self, plan: ContractionPlan) -> int:
        """How many slices of ``plan`` to contract per batched sweep.

        ``1`` means one slice per sweep: unsliced plans,
        backends without batched kernels, and an explicit
        ``slice_batch=1`` all land there.  With ``slice_batch=None``
        the batch auto-sizes so ``batch × peak intermediate`` stays
        under :data:`~repro.backends.xp.AUTO_SLICE_BATCH_BUDGET`
        elements (clamped to the slice count — batching never
        allocates past the work that exists).
        """
        if not plan.slices or not self.supports_batched_slices:
            return 1
        if self.slice_batch is not None:
            return self.slice_batch
        peak = max(1, plan.peak_size())
        return max(
            1, min(plan.num_slices(), AUTO_SLICE_BATCH_BUDGET // peak)
        )

    def reset(self) -> None:
        """Drop all cached state (plans, templates, managers, conversions)."""
        self._plan_cache.clear()
        self._templates.clear()

    def describe(self) -> Dict[str, object]:
        """Lightweight description for logs and serialised results.

        Deliberately excludes ``executor``: the spec doubles as the
        picklable recipe worker processes rebuild backends from, and a
        worker-side backend must run its slices inline.  The plan cache
        travels as its rebuild recipe — the *directory* (``None`` for
        uncached or memory-only backends), or a ``(directory,
        cache_url)`` pair when a remote tier is attached — so every
        worker re-opens the shared tiers and the pool warms itself.
        """
        plan_cache = (
            None if self.plan_cache is None
            else getattr(
                self.plan_cache, "spec", self.plan_cache.directory
            )
        )
        return {
            "name": self.name,
            "order_method": self.order_method,
            "share_computed_table": self.share_computed_table,
            "max_intermediate_size": self.max_intermediate_size,
            "plan_budget_seconds": self.plan_budget_seconds,
            "plan_seed": self.plan_seed,
            "plan_cache": plan_cache,
            "device": self.device,
            "slice_batch": self.slice_batch,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(order_method={self.order_method!r})"
        )


#: Factories must accept the protocol keywords ``order_method``,
#: ``share_computed_table``, ``max_intermediate_size``,
#: ``executor``, ``plan_cache``, ``device``, ``slice_batch``,
#: ``plan_budget_seconds`` and ``plan_seed`` (extra keywords are
#: backend-specific).
BackendFactory = Callable[..., ContractionBackend]

_REGISTRY: Dict[str, BackendFactory] = {}
#: optional-dependency module each registered backend needs (absent =
#: always available); probed without importing by :func:`backend_availability`.
_REQUIRES: Dict[str, str] = {}


def register_backend(
    name: str,
    factory: BackendFactory,
    overwrite: bool = False,
    requires: Optional[str] = None,
) -> None:
    """Register a backend factory (usually the class itself) under ``name``.

    ``requires`` names the optional array library the backend needs
    (``"torch"``, ``"cupy"``); registration always succeeds — the
    registry entry exists whether or not the library is installed, and
    :func:`backend_availability` reports the truth.  Raises
    ``ValueError`` when the name is taken, unless ``overwrite``.
    """
    if not name:
        raise ValueError("backend name must be non-empty")
    if name in _REGISTRY and not overwrite:
        raise ValueError(
            f"backend {name!r} is already registered; "
            "pass overwrite=True to replace it"
        )
    _REGISTRY[name] = factory
    if requires is None:
        _REQUIRES.pop(name, None)
    else:
        _REQUIRES[name] = requires


def unregister_backend(name: str) -> None:
    """Remove a backend from the registry (no-op if absent)."""
    _REGISTRY.pop(name, None)
    _REQUIRES.pop(name, None)


def registered_backends() -> List[str]:
    """Sorted names of *all* registered backends, installable or not."""
    return sorted(_REGISTRY)


def backend_availability() -> Dict[str, Optional[str]]:
    """Why each registered backend is unavailable (``None`` = usable).

    The probe is an ``importlib.util.find_spec`` check on the backend's
    optional dependency — cheap (no import), truthful (``einsum-torch``
    without torch maps to the install hint instead of raising), and the
    single source for the CLI's available/missing markers.
    """
    return {
        name: (
            namespace_available(_REQUIRES[name])
            if name in _REQUIRES
            else None
        )
        for name in sorted(_REGISTRY)
    }


def available_backends() -> List[str]:
    """Sorted names of the registered backends that can be instantiated.

    Optional-dependency backends whose library is missing are excluded —
    callers may construct every listed name without an import error.
    Use :func:`registered_backends` / :func:`backend_availability` for
    the full truth table.
    """
    return [
        name
        for name, missing in backend_availability().items()
        if missing is None
    ]


def get_backend(name: str, **options) -> ContractionBackend:
    """Instantiate the backend registered under ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; "
            f"registered: {', '.join(registered_backends()) or '(none)'}"
        ) from None
    return factory(**options)


def resolve_backend(
    backend: Union[str, ContractionBackend], **options
) -> ContractionBackend:
    """Accept either a registry name or a ready backend instance.

    Algorithms call this on their ``backend`` argument: strings go through
    :func:`get_backend` with ``options``; instances are returned as-is
    (the caller's configuration wins).
    """
    if isinstance(backend, ContractionBackend):
        return backend
    if isinstance(backend, str):
        return get_backend(backend, **options)
    raise TypeError(
        f"backend must be a registered name or a ContractionBackend "
        f"instance, got {type(backend)!r}; registered names: "
        f"{', '.join(available_backends()) or '(none)'}"
    )
