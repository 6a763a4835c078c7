"""repro — Approximate Equivalence Checking of Noisy Quantum Circuits.

A from-scratch reproduction of Hong, Ying, Feng, Zhou & Li (DAC 2021):
Jamiolkowski-fidelity-based approximate equivalence checking of noisy
quantum circuits via tensor-network contraction, with the dense
Qiskit-style ``process_fidelity`` baseline.

Quick start
-----------
The typed front door — one declarative request in, one versioned
response out (:class:`Engine` owns sessions, the worker pool and the
shared cache):

>>> from repro import CheckRequest, CircuitSpec, Engine, NoiseSpec
>>> engine = Engine()
>>> request = CheckRequest(
...     ideal=CircuitSpec.from_library("qft", num_qubits=5),
...     noise=NoiseSpec(noises=3, seed=7),
...     epsilon=0.01,
... )
>>> engine.check(request).equivalent
True
>>> engine.check(request).to_json()  # doctest: +SKIP
'{"schema_version": "1", "equivalent": true, ...}'

The lower layer, for callers already holding circuit objects — one
session keeps its backend's state (TDD computed tables, cached
contraction plans) warm across pairs:

>>> from repro import CheckConfig, CheckSession, qft, insert_random_noise
>>> ideal = qft(5)
>>> session = CheckSession(CheckConfig(epsilon=0.01))
>>> pairs = [(ideal, insert_random_noise(ideal, 2, seed=s)) for s in (1, 2)]
>>> [r.verdict for r in session.check_many(pairs)]
['EQUIVALENT', 'EQUIVALENT']

Below the session, the paper's two algorithms
(:func:`fidelity_individual`, :func:`fidelity_collective`) take a
``backend``: a registered name (``"tdd"``, the paper's Tensor Decision
Diagrams; ``"dense"``; ``"einsum"``) or a ready
:class:`ContractionBackend` carrying its own plan knobs.  Every
contraction goes through a backend's ``contract_scalar``; register your
own via :func:`repro.backends.register_backend`.  See ``docs/api.md``
for the wire-schema reference.
"""

from .api import (
    SCHEMA_VERSION,
    CheckRequest,
    CheckResponse,
    CircuitSpec,
    Engine,
    JobHandle,
    NoiseSpec,
    ReproError,
    Verdict,
)
from .backends import (
    ContractionBackend,
    available_backends,
    get_backend,
    register_backend,
)
from .cache import CheckCache
from .baseline import (
    MemoryLimitExceeded,
    Operator,
    SuperOp,
    average_gate_fidelity,
    process_fidelity,
)
from .circuits import QuantumCircuit
from .core import (
    CheckConfig,
    CheckError,
    CheckResult,
    CheckSession,
    FidelityResult,
    average_fidelity_from_jamiolkowski,
    fidelity_collective,
    fidelity_individual,
    jamiolkowski_distance,
    jamiolkowski_fidelity_dense,
)
from .gates import Gate
from .library import (
    bernstein_vazirani,
    grover,
    mod_mult_7x15,
    qft,
    quantum_volume,
    randomized_benchmarking,
)
from .noise import (
    KrausChannel,
    NoiseModel,
    amplitude_damping,
    bit_flip,
    bit_phase_flip,
    depolarizing,
    insert_random_noise,
    pauli_channel,
    phase_damping,
    phase_flip,
)
from .tdd import Tdd, TddManager

__version__ = "0.1.0"

__all__ = [
    "SCHEMA_VERSION",
    "CheckCache",
    "CheckConfig",
    "CheckError",
    "CheckRequest",
    "CheckResponse",
    "CheckResult",
    "CheckSession",
    "CircuitSpec",
    "ContractionBackend",
    "Engine",
    "FidelityResult",
    "Gate",
    "JobHandle",
    "NoiseSpec",
    "ReproError",
    "Verdict",
    "KrausChannel",
    "MemoryLimitExceeded",
    "NoiseModel",
    "Operator",
    "QuantumCircuit",
    "SuperOp",
    "Tdd",
    "TddManager",
    "amplitude_damping",
    "available_backends",
    "average_fidelity_from_jamiolkowski",
    "average_gate_fidelity",
    "bernstein_vazirani",
    "bit_flip",
    "bit_phase_flip",
    "depolarizing",
    "fidelity_collective",
    "fidelity_individual",
    "get_backend",
    "grover",
    "insert_random_noise",
    "jamiolkowski_distance",
    "jamiolkowski_fidelity_dense",
    "mod_mult_7x15",
    "pauli_channel",
    "phase_damping",
    "phase_flip",
    "process_fidelity",
    "qft",
    "quantum_volume",
    "randomized_benchmarking",
    "register_backend",
]
