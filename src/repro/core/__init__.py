"""The paper's contribution: approximate equivalence checking algorithms."""

from .algorithm1 import enumerate_selections, fidelity_individual
from .algorithm2 import fidelity_collective
from .session import AUTO_ALG1_MAX_NOISES, CheckConfig, CheckSession
from .jamiolkowski import (
    average_fidelity_from_jamiolkowski,
    fidelity_from_traces,
    jamiolkowski_distance,
    jamiolkowski_fidelity_kraus,
)
from .sampling import (
    SampledFidelityResult,
    fidelity_sampled,
    mixed_unitary_decomposition,
)
from .miter import (
    Alg1Template,
    alg1_template,
    alg1_trace_network,
    alg2_trace_network,
    double_circuit,
    lower_kraus_selection,
    miter_circuit,
)
from .stats import (
    CheckError,
    CheckResult,
    FidelityResult,
    RunStats,
    StatsAggregator,
)
from .unitary_check import (
    UnitaryCheckResult,
    check_unitary_equivalence,
    unitary_equivalent,
)

__all__ = [
    "AUTO_ALG1_MAX_NOISES",
    "CheckConfig",
    "CheckError",
    "CheckResult",
    "CheckSession",
    "FidelityResult",
    "RunStats",
    "StatsAggregator",
    "SampledFidelityResult",
    "UnitaryCheckResult",
    "check_unitary_equivalence",
    "fidelity_sampled",
    "unitary_equivalent",
    "mixed_unitary_decomposition",
    "alg1_trace_network",
    "alg2_trace_network",
    "average_fidelity_from_jamiolkowski",
    "double_circuit",
    "enumerate_selections",
    "fidelity_collective",
    "fidelity_from_traces",
    "fidelity_individual",
    "jamiolkowski_distance",
    "jamiolkowski_fidelity_kraus",
    "lower_kraus_selection",
    "miter_circuit",
]
