"""Budgeted anytime contraction-plan search (``order_method="anneal"``).

The planning subsystem turns extra time into cheaper contraction plans:
:func:`search_plan` runs randomized
:class:`~repro.planning.anneal.AnnealSearcher` restarts — annealed
random-greedy pair choices, resampling temperature and cost model per
restart — under a strict wall-clock budget (or an exact trial count),
always seeded with the min_fill baseline.  ``budget=0`` therefore costs
exactly one min_fill build and returns its plan, and any positive budget
can only improve on it ("anytime" semantics).  Every search records a
:class:`PlanSearchReport` (trials, best-cost trajectory, seed, time
spent) that rides along on the returned plan and into the plan cache,
so one expensive search amortises across a fleet of replicas.
"""

from .anneal import AnnealSearcher
from .driver import (
    DEFAULT_PLAN_BUDGET_SECONDS,
    PlanSearchReport,
    search_plan,
)

__all__ = [
    "DEFAULT_PLAN_BUDGET_SECONDS",
    "PlanSearchReport",
    "search_plan",
    "AnnealSearcher",
]
