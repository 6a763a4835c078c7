"""Pluggable contraction backends.

The protocol lives in :mod:`repro.backends.base`; five backends ship
built in and pre-registered:

* ``"tdd"`` — Tensor Decision Diagrams (the paper's engine; pass it
  explicitly for the paper's node counts, ``stats.max_nodes``);
* ``"dense"`` — pairwise :meth:`Tensor.contract` along the contraction
  plan, with batched sliced execution: the independent reference the
  array kernel is checked against;
* ``"einsum"`` — the array kernel on numpy: large plan steps contract
  through ``tensordot`` (BLAS), small ones through compiled
  integer-subscript einsum, with batched sliced execution by default.
  It is :data:`DEFAULT_BACKEND`, the backend of every config, CLI
  command and ``fidelity_*`` helper that names none;
* ``"einsum-torch"`` / ``"einsum-cupy"`` — the same array kernel on
  torch tensors (CPU or CUDA) / cupy arrays.  These registry entries
  always exist; when the optional library is missing they are excluded
  from :func:`available_backends`, reported by
  :func:`backend_availability` with the install hint, and constructing
  one raises :class:`~repro.backends.xp.MissingDependencyError` — never
  an import-time failure.

All engines execute the same
:class:`~repro.tensornet.planner.ContractionPlan` through one core,
:meth:`ContractionBackend.execute_chunks` (``contract_scalar`` and
Algorithm I both run on it); an engine supplies only a
:class:`ContractionKernel`.  Register your own with::

    from repro.backends import (
        ContractionBackend, ContractionKernel, register_backend,
    )

    class MyKernel(ContractionKernel):
        def load(self, applier, chunk):
            return applier.gather(chunk)
        def merge(self, a, b, step):
            ...
        def values(self, operand):
            ...  # one host complex per slice of the chunk

    class MyBackend(ContractionBackend):
        name = "mine"
        def kernel(self, network, plan, compiled, stats):
            return MyKernel()

    register_backend("mine", MyBackend)
"""

from .base import (
    ContractionBackend,
    ContractionKernel,
    available_backends,
    backend_availability,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
    unregister_backend,
)
from .dense import DenseBackend
from .einsum import CupyEinsumBackend, NumpyEinsumBackend, TorchEinsumBackend
from .tdd import TddBackend
from .xp import (
    AUTO_SLICE_BATCH_BUDGET,
    NAMESPACES,
    ArrayNamespace,
    MissingDependencyError,
    namespace_available,
    resolve_namespace,
)

#: Registry name of the backend used wherever none is named: the fastest
#: host kernel on every measured Table I row.
DEFAULT_BACKEND = NumpyEinsumBackend.name

register_backend(TddBackend.name, TddBackend, overwrite=True)
register_backend(DenseBackend.name, DenseBackend, overwrite=True)
register_backend(NumpyEinsumBackend.name, NumpyEinsumBackend, overwrite=True)
register_backend(
    TorchEinsumBackend.name, TorchEinsumBackend,
    overwrite=True, requires="torch",
)
register_backend(
    CupyEinsumBackend.name, CupyEinsumBackend,
    overwrite=True, requires="cupy",
)

__all__ = [
    "AUTO_SLICE_BATCH_BUDGET",
    "ArrayNamespace",
    "ContractionBackend",
    "ContractionKernel",
    "CupyEinsumBackend",
    "DEFAULT_BACKEND",
    "DenseBackend",
    "MissingDependencyError",
    "NAMESPACES",
    "NumpyEinsumBackend",
    "TddBackend",
    "TorchEinsumBackend",
    "available_backends",
    "backend_availability",
    "get_backend",
    "namespace_available",
    "register_backend",
    "registered_backends",
    "resolve_backend",
    "resolve_namespace",
    "unregister_backend",
]
