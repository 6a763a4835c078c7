"""The pluggable contraction-backend protocol and its registry.

A :class:`ContractionBackend` turns closed tensor networks into scalar
values.  The checking algorithms (:mod:`repro.core.algorithm1`,
:mod:`repro.core.algorithm2`) are written against this protocol only, so
a new engine — sparse, sliced, multi-process, GPU — plugs in by
subclassing and calling :func:`register_backend`, with no changes to the
algorithm layer.

Planning and execution are separate layers: every backend *executes* a
shared :class:`~repro.tensornet.planner.ContractionPlan` (built once per
network structure by :meth:`ContractionBackend.plan_for` and cached), so
the same plan object — same pairwise steps, same predicted cost, same
slicing — drives the TDD, dense and einsum engines alike.

Backends are *stateful*: an instance may keep contraction plans,
decision-diagram managers or conversion caches warm across calls.  That is
how a :class:`~repro.core.session.CheckSession` amortises setup work over
many circuit pairs, and how Algorithm I amortises it over many trace
terms.
"""

from __future__ import annotations

import abc
import math
import os
import time
from typing import (
    TYPE_CHECKING,
    Callable,
    ClassVar,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Union,
)

from .. import trace as _trace
from ..cache import PlanCache, open_cache
from ..tensornet import ContractionStats, TensorNetwork
from ..tensornet.ordering import ORDER_HEURISTICS
from ..tensornet.planner import PLANNERS, ContractionPlan, build_plan
from .xp import AUTO_SLICE_BATCH_BUDGET, namespace_available

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..parallel.executors import SliceExecutor


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


def validate_plan_budget_seconds(value: Optional[float]) -> None:
    """Validate a ``plan_budget_seconds`` knob (shared with CheckConfig).

    Valid values: ``None`` (use the search default) or a finite number
    of seconds >= 0 (``0`` = baseline only, no search trials).
    """
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(
            f"plan_budget_seconds must be a number of seconds >= 0 or "
            f"None (the search default), got {type(value).__name__} "
            f"{value!r}"
        )
    if not math.isfinite(value) or value < 0:
        raise ValueError(
            f"plan_budget_seconds must be a finite number of seconds "
            f">= 0 or None (the search default), got {value!r}"
        )


def validate_plan_seed(value: int) -> None:
    """Validate a ``plan_seed`` knob (shared with CheckConfig).

    Valid values: any integer >= 0 (seeds the per-trial RNG streams of
    the search planners).
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
    planner: str,
    max_intermediate_size: Optional[int],
    slice_batch: Optional[int],
    plan_budget_seconds: Optional[float],
    plan_seed: int,
) -> None:
    """Validate the plan knobs shared by backends and CheckConfig."""
    if order_method not in ORDER_HEURISTICS:
        raise ValueError(
            f"unknown ordering method {order_method!r}; "
            f"choose from {sorted(ORDER_HEURISTICS)}"
        )
    if planner not in PLANNERS:
        raise ValueError(
            f"unknown planner {planner!r}; "
            f"choose from {sorted(PLANNERS)}"
        )
    if max_intermediate_size is not None and max_intermediate_size < 1:
        raise ValueError("max_intermediate_size must be at least 1")
    if slice_batch is not None and slice_batch < 1:
        raise ValueError("slice_batch must be at least 1")
    validate_plan_budget_seconds(plan_budget_seconds)
    validate_plan_seed(plan_seed)


class ContractionBackend(abc.ABC):
    """Contracts closed tensor networks to scalars.

    Parameters
    ----------
    order_method:
        Named ordering heuristic (see
        :data:`repro.tensornet.ordering.ORDER_HEURISTICS`) behind the
        ``"order"`` planner.
    share_intermediates:
        Allow the backend to reuse internal *numeric* state — computed
        tables, dense→TDD conversion caches — across calls.  The paper's
        Table II 'Ori.' ablation runs with this off.  Plans are pure
        structure and stay cached either way.
    planner:
        Plan construction strategy: ``"order"`` (derive pairwise steps
        from the ``order_method`` elimination order), ``"greedy"``
        (cost-greedy pairwise planner), or one of the budgeted search
        planners ``"anneal"``/``"hyper"`` (randomized restarts under
        ``plan_budget_seconds``, never worse than the heuristic
        baseline).  See :data:`repro.tensornet.planner.PLANNERS`.
    plan_budget_seconds:
        Wall-clock budget for the search planners (ignored by
        ``order``/``greedy``).  ``None`` (the default) uses
        :data:`repro.planning.DEFAULT_PLAN_BUDGET_SECONDS`; ``0``
        returns the heuristic baseline without searching.
    plan_seed:
        Seed for the search planners' randomized trials (ignored by
        ``order``/``greedy``); identical seeds replay identical trial
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
        inert, like ``order_method`` under the greedy planner.
    """

    #: Registry name of the backend; concrete subclasses must override.
    name: ClassVar[str] = ""

    #: Whether the backend can fuse a sliced plan's subplans into batched
    #: kernels.  Engines that cannot (TDD) run the per-slice loop no
    #: matter what ``slice_batch`` says.
    supports_batched_slices: ClassVar[bool] = False

    def __init__(
        self,
        order_method: str = "tree_decomposition",
        share_intermediates: bool = True,
        planner: str = "order",
        max_intermediate_size: Optional[int] = None,
        executor: Optional["SliceExecutor"] = None,
        plan_cache: Union[None, PlanCache, str, os.PathLike] = None,
        device: Optional[str] = None,
        slice_batch: Optional[int] = None,
        plan_budget_seconds: Optional[float] = None,
        plan_seed: int = 0,
    ):
        validate_plan_knobs(
            order_method, planner, max_intermediate_size, slice_batch,
            plan_budget_seconds, plan_seed,
        )
        self.device = device
        self.slice_batch = slice_batch
        self.order_method = order_method
        self.share_intermediates = share_intermediates
        self.planner = planner
        self.max_intermediate_size = max_intermediate_size
        self.plan_budget_seconds = plan_budget_seconds
        self.plan_seed = plan_seed
        self.executor = executor
        self.plan_cache = _coerce_plan_cache(plan_cache)
        #: plan_for calls served without running a planner (any tier:
        #: the instance's structural map, the shared memory LRU, disk).
        #: Only counted while a plan cache is attached, so uncached
        #: runs keep today's all-zero stats.
        self.plan_cache_hits = 0
        #: plan_for calls that had to run a planner despite the cache.
        self.plan_cache_misses = 0
        #: cumulative wall-clock seconds spent inside :meth:`plan_for`
        #: (cache lookups, heuristics and search trials alike) — the
        #: session turns deltas of this into ``RunStats.planning_seconds``.
        self.planning_seconds_total = 0.0
        #: cumulative search trials run by fresh plan builds; cache hits
        #: add nothing (the whole point of persisting searched plans).
        self.plan_trials_total = 0
        self._plan_cache: Dict[tuple, ContractionPlan] = {}

    @abc.abstractmethod
    def contract_scalar(
        self,
        network: TensorNetwork,
        stats: Optional[ContractionStats] = None,
        cacheable_tensor_ids: Optional[Set[int]] = None,
        plan: Optional[ContractionPlan] = None,
        assignments: Optional[Sequence[Dict[str, int]]] = None,
    ) -> complex:
        """Contract a closed ``network`` to its scalar value.

        Parameters
        ----------
        network:
            A closed tensor network (no open indices).
        stats:
            Optional collector; backends fill the fields they can
            (``max_nodes`` for decision diagrams,
            ``max_intermediate_size`` for dense engines, plus the
            plan-derived ``predicted_cost``/``predicted_peak_size``/
            ``slice_count`` predictions).
        cacheable_tensor_ids:
            ``id()``\\ s of tensors that are shared *by object identity*
            with future calls (Algorithm I's template tensors).  Backends
            may cache per-tensor conversions for exactly these ids and
            must drop cached conversions of any other tensor after the
            call.  ``None`` means no cross-call tensor sharing.
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
            predictions into ``stats``.
        """

    def plan_for(self, network: TensorNetwork) -> ContractionPlan:
        """The contraction plan for ``network``, cached per structure.

        Algorithm I contracts thousands of structurally identical
        networks; the (possibly expensive) planning pass — ordering
        heuristic, pairwise simulation, slicing — runs once per
        structure+shape and the resulting plan is replayed.

        With a :attr:`plan_cache` attached the lookup additionally
        consults the shared content-addressed cache, so the planning
        pass runs once per structure *per fleet* rather than per
        backend instance, and feeds fresh plans back for every other
        process to reuse.
        """
        started = time.perf_counter()
        try:
            key = (
                network.structure_key(),
                tuple(t.data.shape for t in network.tensors),
            )
            plan = self._plan_cache.get(key)
            if plan is not None:
                if self.plan_cache is not None:
                    self.plan_cache_hits += 1
                return plan
            if self.plan_cache is not None:
                with _trace.span("plan.cache.get") as lookup_span:
                    plan = self.plan_cache.get(
                        network,
                        planner=self.planner,
                        order_method=self.order_method,
                        max_intermediate_size=self.max_intermediate_size,
                        plan_budget_seconds=self.plan_budget_seconds,
                        plan_seed=self.plan_seed,
                    )
                    lookup_span.set(hit=plan is not None)
                if plan is not None:
                    self.plan_cache_hits += 1
                    self._plan_cache[key] = plan
                    return plan
            with _trace.span("plan.build", planner=self.planner) as build_span:
                plan = build_plan(
                    network,
                    planner=self.planner,
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
            self._plan_cache[key] = plan
            if self.plan_cache is not None:
                self.plan_cache_misses += 1
                with _trace.span("plan.cache.put"):
                    self.plan_cache.put(
                        network,
                        plan,
                        planner=self.planner,
                        order_method=self.order_method,
                        max_intermediate_size=self.max_intermediate_size,
                        plan_budget_seconds=self.plan_budget_seconds,
                        plan_seed=self.plan_seed,
                    )
            return plan
        finally:
            self.planning_seconds_total += time.perf_counter() - started

    def _record_plan(
        self, stats: Optional[ContractionStats], plan: ContractionPlan
    ) -> None:
        """Fold the plan's predictions into a stats collector."""
        if stats is None:
            return
        stats.predicted_cost += plan.total_cost()
        stats.predicted_peak_size = max(
            stats.predicted_peak_size, plan.peak_size()
        )
        stats.slice_count = max(stats.slice_count, plan.num_slices())

    def _resolve_plan(
        self,
        network: TensorNetwork,
        stats: Optional[ContractionStats],
        plan: Optional[ContractionPlan],
        assignments: Optional[Sequence[Dict[str, int]]],
    ) -> ContractionPlan:
        """Shared ``contract_scalar`` preamble: plan lookup + recording.

        Partial executions (explicit ``assignments``) skip the prediction
        recording — the dispatching call recorded the full plan already,
        and a chunk must not double-count it.
        """
        if plan is None:
            plan = self.plan_for(network)
        if assignments is None:
            self._record_plan(stats, plan)
        return plan

    def _dispatch_slices(
        self,
        network: TensorNetwork,
        plan: ContractionPlan,
        stats: Optional[ContractionStats],
        assignments: Optional[Sequence[Dict[str, int]]],
    ) -> Optional[complex]:
        """Hand a sliced plan to the backend's executor, if any.

        Returns the contracted scalar, or ``None`` when the call should
        run inline: no executor configured, nothing sliced, or the call
        *is* an executor-issued partial (explicit ``assignments``) —
        the guard that makes dispatch non-recursive.
        """
        if (
            assignments is not None
            or self.executor is None
            or not plan.slices
            or plan.num_slices() < 2
        ):
            return None
        return self.executor.contract(self, network, plan, stats)

    @property
    def resolved_device(self) -> str:
        """Device the backend actually runs on (host CPU by default).

        Array-namespace backends override this with the namespace's
        normalised device string.
        """
        return self.device or "cpu"

    def effective_slice_batch(self, plan: ContractionPlan) -> int:
        """How many slices of ``plan`` to contract per batched sweep.

        ``1`` means the per-slice reference loop: unsliced plans,
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
        """Drop all cached state (plans, managers, conversions)."""
        self._plan_cache.clear()

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
            "share_intermediates": self.share_intermediates,
            "planner": self.planner,
            "max_intermediate_size": self.max_intermediate_size,
            "plan_budget_seconds": self.plan_budget_seconds,
            "plan_seed": self.plan_seed,
            "plan_cache": plan_cache,
            "device": self.device,
            "slice_batch": self.slice_batch,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(order_method={self.order_method!r}, "
            f"planner={self.planner!r})"
        )


#: Factories must accept the protocol keywords ``order_method``,
#: ``share_intermediates``, ``planner``, ``max_intermediate_size``,
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
