"""Budgeted anytime contraction-plan search.

The planning subsystem turns extra time into cheaper contraction plans:
:func:`search_plan` runs randomized restarts of a
:class:`PlanSearcher` strategy under a strict wall-clock budget (or an
exact trial count), always seeded with the best heuristic baseline —
``budget=0`` therefore degrades to today's greedy/min_fill quality, and
any positive budget can only improve on it ("anytime" semantics).  Every
search records a :class:`PlanSearchReport` (trials, best-cost
trajectory, seed, time spent) that rides along on the returned plan and
into the plan cache, so one expensive search amortises across a fleet of
replicas.

Two strategies ship behind the one protocol:

* :class:`~repro.planning.anneal.AnnealSearcher` (``order_method="anneal"``)
  — annealed random-greedy restarts: each trial rebuilds the plan with
  temperature-weighted cost-greedy pair choices, resampling temperature
  and cost model per restart;
* :class:`~repro.planning.hyper.HyperSearcher` (``order_method="hyper"``) —
  recursive hypergraph bisection: Kernighan–Lin-style balanced min-cut
  over the index graph, leaf communities contracted greedily, partitions
  stitched bottom-up.

Both are listed in :data:`SEARCHERS` and reachable end-to-end through
the ``order_method=`` knob (``CheckConfig``, backends, the wire schema,
the CLI).
"""

from .driver import (
    DEFAULT_PLAN_BUDGET_SECONDS,
    PlanSearcher,
    PlanSearchReport,
    search_plan,
)
from .anneal import AnnealSearcher
from .hyper import HyperSearcher

#: The search strategies behind ``order_method="anneal"``/``"hyper"``.
SEARCHERS = {"anneal": AnnealSearcher, "hyper": HyperSearcher}

__all__ = [
    "DEFAULT_PLAN_BUDGET_SECONDS",
    "SEARCHERS",
    "PlanSearcher",
    "PlanSearchReport",
    "search_plan",
    "AnnealSearcher",
    "HyperSearcher",
]
