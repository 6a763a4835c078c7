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
session keeps its backend's state (cached contraction plans and miter
templates) warm across pairs:

>>> from repro import CheckConfig, CheckSession, qft, insert_random_noise
>>> ideal = qft(5)
>>> session = CheckSession(CheckConfig(epsilon=0.01))
>>> pairs = [(ideal, insert_random_noise(ideal, 2, seed=s)) for s in (1, 2)]
>>> [session.check(a, b).verdict for a, b in pairs]
['EQUIVALENT', 'EQUIVALENT']

Below the session, the paper's two algorithms
(:func:`fidelity_individual`, :func:`fidelity_collective`) take a
``backend``: a registered name or a ready :class:`ContractionBackend`
carrying its own plan knobs.  Every config, CLI command and helper that
names no backend runs on :data:`repro.backends.DEFAULT_BACKEND`,
``"einsum"`` (the numpy array kernel); pass ``backend="tdd"`` for the
paper's Tensor Decision Diagrams and their node counts
(``stats.max_nodes``), or ``"dense"`` for the pairwise reference.  Every
contraction goes through a backend's ``execute_chunks`` core; register
your own via :func:`repro.backends.register_backend`.

The one dense reference is :func:`process_fidelity` on a :class:`SuperOp`,
the paper's Table I baseline; ``CheckConfig(algorithm="dense")`` runs it
inside the paper's 8 GiB envelope and refuses with
:class:`MemoryLimitExceeded` from 7 qubits on.  See ``docs/api.md`` for
the wire-schema reference.
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
    CheckResult,
    CheckSession,
    FidelityResult,
    average_fidelity_from_jamiolkowski,
    fidelity_collective,
    fidelity_individual,
    jamiolkowski_distance,
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
