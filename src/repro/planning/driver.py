"""The anytime search driver: budgeted restarts of the anneal searcher.

:func:`search_plan` owns everything around a single trial — the
min_fill baseline floor, the wall-clock budget / exact-trial-count
loop, per-trial deterministic seeding, best-so-far tracking, and the
:class:`PlanSearchReport` provenance record.  Each randomized trial is
one :meth:`~repro.planning.anneal.AnnealSearcher.trial`, which returns a
candidate contraction as ``(cost, merge pairs)`` over the plan's nodes
(input ``k`` is node ``k``, and each merge writes the next node; see
:class:`~repro.tensornet.planner.ContractionStep`), or ``None`` when
the trial pruned itself against the best cost so far.  Only the winning
trial's pairs become plan steps.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from .. import trace as _trace
from ..tensornet.network import TensorNetwork
from ..tensornet.planner import (
    ContractionPlan,
    _steps_from_pairs,
    plan_from_order,
    slice_plan,
)
from .anneal import AnnealSearcher, MergePairs

#: Wall-clock budget used when a search is selected but neither
#: ``budget_seconds`` nor ``trials`` is given.  One second buys hundreds
#: of restarts on library-sized networks and amortises across the fleet
#: through the plan cache.
DEFAULT_PLAN_BUDGET_SECONDS = 1.0

#: Trials grouped under one ``plan.search.trials`` span.  Small enough
#: that a trace shows cost progress over the budget, large enough that
#: span bookkeeping stays negligible next to the trials themselves.
TRIAL_SPAN_BATCH = 25


@dataclass(frozen=True)
class PlanSearchReport:
    """Provenance of one budgeted plan search (rides along on the plan).

    ``trajectory`` holds one ``(trial, cost)`` entry per strict
    improvement over the baseline, in discovery order; an empty
    trajectory means the min_fill baseline was never beaten and the
    returned plan *is* the baseline (re-labelled with the search's
    ``order_method`` value).
    """

    planner: str
    seed: int
    budget_seconds: Optional[float]
    #: trials actually run (0 under ``budget=0``)
    trials: int
    #: which planner produced the anytime floor (always "min_fill")
    baseline_planner: str
    baseline_cost: int
    best_cost: int
    #: trial index that produced the winning plan; None = baseline won
    best_trial: Optional[int]
    #: wall-clock seconds spent searching (baseline included)
    search_seconds: float
    trajectory: Tuple[Tuple[int, int], ...] = ()

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-safe)."""
        record = asdict(self)
        record["trajectory"] = [list(point) for point in self.trajectory]
        return record


def validate_plan_budget_seconds(value: Optional[float]) -> None:
    """Validate a search budget (shared by backends and CheckConfig).

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


def search_plan(
    network: TensorNetwork,
    *,
    budget_seconds: Optional[float] = None,
    seed: int = 0,
    trials: Optional[int] = None,
    max_intermediate_size: Optional[int] = None,
    max_slices: Optional[int] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> ContractionPlan:
    """Budgeted anytime plan search (``order_method="anneal"``).

    Computes the min_fill baseline, then runs randomized
    :class:`~repro.planning.anneal.AnnealSearcher` trials until the
    wall-clock ``budget_seconds`` is spent — or, when ``trials`` is
    given, for exactly that many trials regardless of the clock (the
    deterministic mode: identical ``(network, seed, trials)`` inputs
    yield identical plans on any machine).  With neither given the
    budget defaults to :data:`DEFAULT_PLAN_BUDGET_SECONDS`;
    ``budget_seconds=0`` runs no trials and returns the baseline
    unchanged (anytime floor).

    Trial ``t`` draws every random choice from
    ``np.random.default_rng([seed, t])``, so results are reproducible
    under a fixed seed and independent of trial scheduling.

    The returned plan carries a :class:`PlanSearchReport` in its
    ``search_report`` field and is sliced to ``max_intermediate_size``
    (after the search — trials optimise the unsliced contraction,
    matching :func:`~repro.tensornet.planner.build_plan` semantics).
    """
    validate_plan_budget_seconds(budget_seconds)
    if trials is not None and (
        not isinstance(trials, int)
        or isinstance(trials, bool)
        or trials < 0
    ):
        raise ValueError(
            f"trials must be an integer >= 0 or None, got {trials!r}"
        )
    if trials is None and budget_seconds is None:
        budget_seconds = DEFAULT_PLAN_BUDGET_SECONDS

    planner = "anneal"
    with _trace.span("plan.search", order_method=planner) as search_span:
        start = clock()
        base_plan = plan_from_order(network)
        inputs, dims = base_plan.inputs, base_plan.dims
        searcher = AnnealSearcher(inputs, dims)

        best_cost = base_plan.total_cost()
        best_pairs: Optional[MergePairs] = None
        best_trial: Optional[int] = None
        trajectory: List[Tuple[int, int]] = []
        trial = 0

        def more() -> bool:
            if trials is not None:
                return trial < trials
            return clock() - start < budget_seconds

        # ``more()`` runs exactly once per trial (the budget clock ticks
        # once per loop check, and injected test clocks rely on that);
        # the batch grouping below only decides span boundaries.
        run_more = more()
        while run_more:
            # one span per batch of trials, so a trace shows search
            # progress without a span per restart
            with _trace.span("plan.search.trials") as batch_span:
                ran = 0
                while True:
                    rng = np.random.default_rng([seed, trial])
                    outcome = searcher.trial(rng, best_cost)
                    if outcome is not None:
                        cost, pairs = outcome
                        if cost < best_cost:
                            best_cost, best_pairs, best_trial = (
                                cost, pairs, trial
                            )
                            trajectory.append((trial, cost))
                    trial += 1
                    ran += 1
                    run_more = more()
                    if not run_more or ran >= TRIAL_SPAN_BATCH:
                        break
                batch_span.set(trials=ran, best_cost=best_cost)
        search_seconds = clock() - start
        search_span.set(trials=trial, best_cost=best_cost)

    if best_pairs is None:
        plan = replace(base_plan, planner=planner)
    else:
        steps = _steps_from_pairs(inputs, dims, best_pairs)
        order: List[str] = []
        for step in steps:
            order.extend(sorted(step.eliminated))
        seen = set(order)
        remaining = [i for i in network.all_indices() if i not in seen]
        plan = ContractionPlan(
            inputs=inputs, dims=dims, steps=tuple(steps),
            order=tuple(order + remaining), planner=planner,
        )
    report = PlanSearchReport(
        planner=planner,
        seed=seed,
        budget_seconds=budget_seconds,
        trials=trial,
        baseline_planner=base_plan.planner,
        baseline_cost=base_plan.total_cost(),
        best_cost=plan.total_cost(),
        best_trial=best_trial,
        search_seconds=search_seconds,
        trajectory=tuple(trajectory),
    )
    plan = replace(plan, search_report=report)
    if max_intermediate_size is not None:
        plan = slice_plan(plan, max_intermediate_size, max_slices=max_slices)
    return plan
