"""The array-namespace portability layer: one contraction kernel, any array library.

The array backends bottom out in ``einsum``, ``tensordot`` and
``matmul`` calls over ndarrays.  Nothing about those calls is
numpy-specific — torch and cupy implement the same interleaved
integer-sublist ``einsum``, the same ``tensordot`` and batched
``matmul``, advanced indexing and transposes — so this module puts
the handful of array operations the execution path needs behind an
:class:`ArrayNamespace`, and the one kernel (:mod:`repro.backends.einsum`)
runs the *same* :class:`~repro.tensornet.planner.ContractionPlan` on
numpy arrays, torch tensors (CPU or CUDA) or cupy arrays.

Design rules:

* **Lazy imports.**  torch and cupy are optional dependencies; importing
  :mod:`repro.backends` must never import them.  :func:`namespace_available`
  probes installability without importing, :func:`resolve_namespace`
  imports on first use and raises a :class:`MissingDependencyError` with
  the ``pip install repro[torch]`` / ``repro[cupy]`` hint when absent.
* **One host↔device transfer per plan-execution boundary.**  Input tensors
  move to the device once (:meth:`ArrayNamespace.from_host`), every
  intermediate stays on-device, and only each chunk's per-slice values
  come back (:meth:`ArrayNamespace.to_host`).  Slice gathering happens
  on-device via advanced indexing, so the inputs of an 8192-slice
  contraction move once, not 8192 times.

The module also owns plan lowering: :func:`compile_plan` computes, once
per plan, every step's integer einsum subscripts (unbatched and
batch-labelled), ``tensordot`` axes for unbatched steps of at least
:data:`BLAS_MIN_FLOPS` predicted flops that are plain matrix products,
and a :class:`BatchedMatmul` for every batched step that is one.
"""

from __future__ import annotations

import abc
import importlib.util
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import trace as _trace
from ..tensornet.planner import ContractionPlan, apply_steps

#: Names :func:`resolve_namespace` understands, in documentation order.
NAMESPACES = ("numpy", "torch", "cupy")

#: Element budget the automatic ``slice_batch`` sizes against: with
#: ``slice_batch=None`` a backend picks the largest batch whose
#: ``batch × peak per-slice intermediate`` stays under this many
#: elements (2M complex128 elements ≈ 32 MiB of batched intermediate).
AUTO_SLICE_BATCH_BUDGET = 1 << 21

#: Unbatched plan steps of at least this many predicted flops
#: (:attr:`~repro.tensornet.planner.ContractionStep.flops`) that are plain
#: matrix products run as ``tensordot`` (BLAS on numpy); below it einsum's
#: lower call overhead wins.  Fitted on the perfbench rows (ROADMAP item 3).
BLAS_MIN_FLOPS = 4096

#: pip extras installing each optional namespace (the error-message hint).
_INSTALL_HINTS = {
    "torch": "pip install repro[torch]",
    "cupy": "pip install repro[cupy]",
}


class MissingDependencyError(ImportError):
    """An optional array library is not installed.

    Subclasses :class:`ImportError` so generic import handling applies,
    and carries the human-facing install hint in its message.  Raised at
    *backend construction* (``get_backend("einsum-torch")``), never at
    :mod:`repro.backends` import time — the registry entries for optional
    backends always exist and report their unavailability truthfully.
    """


def namespace_available(name: str) -> Optional[str]:
    """Why ``name`` is unavailable, or ``None`` when it is usable.

    The probe is ``importlib.util.find_spec`` — it checks installability
    without paying the (potentially seconds-long) import, so registry
    listings stay cheap.  ``resolve_namespace`` still performs the real
    import and reports genuine import failures.
    """
    if name == "numpy":
        return None
    if name not in NAMESPACES:
        return f"unknown array namespace {name!r}"
    try:
        spec = importlib.util.find_spec(name)
    except (ImportError, ValueError):  # pragma: no cover - exotic loaders
        spec = None
    if spec is None:
        return (
            f"optional dependency {name!r} is not installed "
            f"({_INSTALL_HINTS[name]})"
        )
    return None


class ArrayNamespace(abc.ABC):
    """The array operations the contraction kernels need, on one device.

    Operands are opaque to callers: :meth:`from_host` turns a host
    ndarray into whatever the namespace contracts (numpy ndarray, torch
    tensor, cupy array), :meth:`einsum`/advanced indexing combine them,
    and :meth:`to_host` is the single device→host exit.
    """

    #: namespace name ("numpy" / "torch" / "cupy")
    name: str = ""

    def __init__(self, device: Optional[str] = None):
        self.device = self._resolve_device(device)

    @abc.abstractmethod
    def _resolve_device(self, device: Optional[str]) -> str:
        """Validate and normalise the requested device string."""

    @abc.abstractmethod
    def from_host(self, array: np.ndarray):
        """Place a host ndarray on the namespace's device (one transfer)."""

    @abc.abstractmethod
    def index_array(self, values: Sequence[int]):
        """Integer gather-index array on the device."""

    @abc.abstractmethod
    def einsum(self, *operands_and_subscripts):
        """Interleaved integer-sublist einsum (the numpy calling form)."""

    @abc.abstractmethod
    def tensordot(self, a, b, axes):
        """Contract ``axes[0]`` of ``a`` with ``axes[1]`` of ``b``."""

    @abc.abstractmethod
    def transpose(self, operand, axes):
        """``operand`` with its axes permuted to ``axes``."""

    @abc.abstractmethod
    def matmul(self, a, b):
        """Matrix product over the last two axes, broadcasting the rest."""

    @abc.abstractmethod
    def to_host(self, operand) -> np.ndarray:
        """``operand`` as a host ndarray (the one device→host exit)."""

    @staticmethod
    def size_of(operand) -> int:
        """Element count of an operand (works on ndarray/tensor alike)."""
        return int(math.prod(operand.shape)) if operand.shape else 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(device={self.device!r})"


class NumpyNamespace(ArrayNamespace):
    """The reference namespace: host numpy, no transfers."""

    name = "numpy"

    def _resolve_device(self, device: Optional[str]) -> str:
        if device not in (None, "cpu"):
            raise ValueError(
                f"the numpy namespace runs on 'cpu' only, got "
                f"device={device!r}; use backend 'einsum-torch' or "
                "'einsum-cupy' for accelerator devices"
            )
        return "cpu"

    def from_host(self, array: np.ndarray):
        return array

    def index_array(self, values: Sequence[int]):
        return np.asarray(values, dtype=np.intp)

    def einsum(self, *operands_and_subscripts):
        return np.asarray(np.einsum(*operands_and_subscripts))

    def tensordot(self, a, b, axes):
        return np.tensordot(a, b, axes)

    def transpose(self, operand, axes):
        return operand.transpose(axes)

    def matmul(self, a, b):
        return np.matmul(a, b)

    def to_host(self, operand) -> np.ndarray:
        return np.asarray(operand)


class TorchNamespace(ArrayNamespace):
    """torch tensors on ``cpu`` (default) or any torch device string."""

    name = "torch"

    def __init__(self, device: Optional[str] = None):
        self._torch = _import_module("torch")
        super().__init__(device)

    def _resolve_device(self, device: Optional[str]) -> str:
        device = device or "cpu"
        try:
            resolved = self._torch.device(device)
        except (RuntimeError, ValueError) as exc:
            raise ValueError(
                f"torch rejected device {device!r}: {exc}"
            ) from None
        if resolved.type == "cuda" and not self._torch.cuda.is_available():
            raise ValueError(
                f"device {device!r} requested but torch reports CUDA "
                "unavailable on this host"
            )
        return str(resolved)

    def from_host(self, array: np.ndarray):
        return self._torch.as_tensor(array, device=self.device)

    def index_array(self, values: Sequence[int]):
        return self._torch.as_tensor(
            np.asarray(values, dtype=np.int64), device=self.device
        )

    def einsum(self, *operands_and_subscripts):
        return self._torch.einsum(*operands_and_subscripts)

    def tensordot(self, a, b, axes):
        return self._torch.tensordot(a, b, axes)

    def transpose(self, operand, axes):
        return operand.permute(axes)

    def matmul(self, a, b):
        return self._torch.matmul(a, b)

    def to_host(self, operand) -> np.ndarray:
        return operand.cpu().numpy()


class CupyNamespace(ArrayNamespace):
    """cupy arrays on the current (or an explicit ``cuda:N``) GPU."""

    name = "cupy"

    def __init__(self, device: Optional[str] = None):
        self._cupy = _import_module("cupy")
        super().__init__(device)

    def _resolve_device(self, device: Optional[str]) -> str:
        if device in (None, "cuda"):
            return "cuda"
        if device.startswith("cuda:"):
            try:
                int(device.split(":", 1)[1])
            except ValueError:
                raise ValueError(
                    f"bad cupy device {device!r}; use 'cuda' or 'cuda:N'"
                ) from None
            return device
        raise ValueError(
            f"the cupy namespace runs on CUDA devices only, got "
            f"device={device!r}"
        )

    def _device_id(self) -> int:
        return int(self.device.split(":")[1]) if ":" in self.device else (
            self._cupy.cuda.runtime.getDevice()
        )

    def from_host(self, array: np.ndarray):
        with self._cupy.cuda.Device(self._device_id()):
            return self._cupy.asarray(array)

    def index_array(self, values: Sequence[int]):
        with self._cupy.cuda.Device(self._device_id()):
            return self._cupy.asarray(np.asarray(values, dtype=np.intp))

    def einsum(self, *operands_and_subscripts):
        return self._cupy.einsum(*operands_and_subscripts)

    def tensordot(self, a, b, axes):
        return self._cupy.tensordot(a, b, axes)

    def transpose(self, operand, axes):
        return operand.transpose(axes)

    def matmul(self, a, b):
        return self._cupy.matmul(a, b)

    def to_host(self, operand) -> np.ndarray:
        return self._cupy.asnumpy(operand)


def _import_module(name: str):
    """Import an optional dependency, raising the typed error when absent."""
    try:
        return __import__(name)
    except ImportError as exc:
        raise MissingDependencyError(
            f"optional dependency {name!r} is not installed "
            f"({_INSTALL_HINTS[name]}): {exc}"
        ) from exc


_NAMESPACE_CLASSES = {
    "numpy": NumpyNamespace,
    "torch": TorchNamespace,
    "cupy": CupyNamespace,
}


def resolve_namespace(
    name: str, device: Optional[str] = None
) -> ArrayNamespace:
    """An :class:`ArrayNamespace` for ``name`` placed on ``device``.

    Raises :class:`MissingDependencyError` when the library is not
    installed and ``ValueError`` for unknown names or devices the
    namespace cannot honour (e.g. ``cuda`` without a visible GPU) — so a
    misconfigured backend fails at construction with the real reason,
    never deep inside a contraction.
    """
    try:
        cls = _NAMESPACE_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown array namespace {name!r}; "
            f"choose from {list(NAMESPACES)}"
        ) from None
    return cls(device)


# --- compiled plans ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BatchedMatmul:
    """A batched step as one ``matmul``: ``(batch, m, k) × (batch, k, n)``.

    Each operand is transposed (when its axes are not already in order)
    to its free labels then the shared ones (lhs) or the shared labels
    then its free ones (rhs), reshaped to a stack of matrices — an
    operand without a batch axis stays one matrix and broadcasts — and
    the product is reshaped to the step's batched output.
    """

    lhs_axes: Optional[Tuple[int, ...]]
    lhs_shape: Tuple[int, ...]
    rhs_axes: Optional[Tuple[int, ...]]
    rhs_shape: Tuple[int, ...]
    out_shape: Tuple[int, ...]

    def __call__(self, xp: "ArrayNamespace", a, b):
        if self.lhs_axes is not None:
            a = xp.transpose(a, self.lhs_axes)
        if self.rhs_axes is not None:
            b = xp.transpose(b, self.rhs_axes)
        return xp.matmul(
            a.reshape(self.lhs_shape), b.reshape(self.rhs_shape)
        ).reshape(self.out_shape)


@dataclass(frozen=True, slots=True)
class CompiledStep:
    """One plan step lowered to einsum subscripts, BLAS axes or a matmul.

    ``subscripts`` is the ``(lhs, rhs, out)`` sublist triple for the
    per-slice (unbatched) call; ``batched_subscripts`` is the same triple
    with the reserved batch label ``0`` prepended wherever the operand —
    or the output — varies across slices; ``axes`` is the ``tensordot``
    axes pair of an unbatched step lowered to BLAS (``None``: einsum);
    ``matmul`` is the batched step's :class:`BatchedMatmul` (``None``:
    batched einsum).
    """

    lhs: int
    rhs: int
    subscripts: Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]
    batched_subscripts: Tuple[
        Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]
    ]
    out_batched: bool
    #: labels summed over in this step (engines that contract by label)
    eliminated: frozenset
    #: ``tensordot`` axes of an unbatched call (``None`` = einsum)
    axes: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]
    #: the batched call as one ``matmul`` (``None`` = batched einsum)
    matmul: Optional[BatchedMatmul]


@dataclass(frozen=True)
class CompiledPlan:
    """A :class:`ContractionPlan` lowered for the array-API kernels."""

    steps: Tuple[CompiledStep, ...]
    #: whether each input tensor carries a sliced label (varies per slice)
    input_batched: Tuple[bool, ...]

    @property
    def blas_steps(self) -> int:
        """How many steps an unbatched chunk contracts with ``tensordot``."""
        return sum(step.axes is not None for step in self.steps)


def tensordot_axes(
    lhs: Tuple[str, ...], rhs: Tuple[str, ...], output: Tuple[str, ...]
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """``tensordot`` axes merging ``lhs`` and ``rhs`` into ``output``.

    ``None`` unless the merge is a plain matrix product: no operand
    repeats a label, and ``output`` is exactly the unshared lhs labels
    then the unshared rhs labels (``tensordot``'s order, so no transpose
    follows) — no label survives from both operands or is summed from one.
    """
    if len(set(lhs)) != len(lhs) or len(set(rhs)) != len(rhs):
        return None
    shared = [label for label in lhs if label in rhs]
    if tuple(output) != tuple(
        label for label in lhs + rhs if label not in shared
    ):
        return None
    return (
        tuple(lhs.index(label) for label in shared),
        tuple(rhs.index(label) for label in shared),
    )


def batched_matmul(
    lhs: Tuple[str, ...],
    rhs: Tuple[str, ...],
    output: Tuple[str, ...],
    lhs_batched: bool,
    rhs_batched: bool,
    dims: Dict[str, int],
) -> Optional[BatchedMatmul]:
    """The :class:`BatchedMatmul` of a batched step, if it is a matrix product.

    ``lhs``/``rhs``/``output`` are the per-slice labels; the flags say
    which operands carry the leading batch axis (the output always
    does).  ``None`` when :func:`tensordot_axes` finds no plain matrix
    product.
    """
    contracted = tensordot_axes(lhs, rhs, output)
    if contracted is None:
        return None
    lhs_shared, rhs_shared = contracted
    lhs_free = [ax for ax in range(len(lhs)) if ax not in lhs_shared]
    rhs_free = [ax for ax in range(len(rhs)) if ax not in rhs_shared]

    def layout(order, batched, rows, cols):
        # (batch,) rows x cols, with None for an axis order already in place
        axes = (0,) + tuple(ax + 1 for ax in order) if batched else order
        shape = (-1, rows, cols) if batched else (rows, cols)
        return (None if axes == tuple(range(len(axes))) else axes), shape

    def size(labels, axes):
        return math.prod(dims[labels[ax]] for ax in axes)

    m, k, n = size(lhs, lhs_free), size(lhs, lhs_shared), size(rhs, rhs_free)
    lhs_axes, lhs_shape = layout(
        tuple(lhs_free) + lhs_shared, lhs_batched, m, k
    )
    rhs_axes, rhs_shape = layout(
        rhs_shared + tuple(rhs_free), rhs_batched, k, n
    )
    return BatchedMatmul(
        lhs_axes=lhs_axes,
        lhs_shape=lhs_shape,
        rhs_axes=rhs_axes,
        rhs_shape=rhs_shape,
        out_shape=(-1,) + tuple(dims[label] for label in output),
    )


def compile_plan(plan: ContractionPlan) -> CompiledPlan:
    """Lower a plan's steps to einsum subscripts, BLAS axes or matmuls, once.

    Labels are remapped to a dense integer range *per step* (so the
    global index count never hits the 52-symbol einsum alphabet), with
    ``0`` reserved for the batch axis of batched slice chunks; unbatched
    steps of at least :data:`BLAS_MIN_FLOPS` flops also get
    :func:`tensordot_axes`, and every batched step gets
    :func:`batched_matmul`.  Backends memoise the result by
    :meth:`ContractionPlan.digest`, so every slice of a sliced plan —
    and every check of a structure — pays the lowering exactly once.
    """
    sliced = set(plan.slices)
    inputs = [
        (
            tuple(lab for lab in labs if lab not in sliced),
            any(lab in sliced for lab in labs),
        )
        for labs in plan.inputs
    ]
    steps: List[CompiledStep] = []

    def lower(lhs, rhs, step):
        (a, a_batched), (b, b_batched) = lhs, rhs
        mapping: Dict[str, int] = {}
        for label in a + b:
            mapping.setdefault(label, len(mapping) + 1)  # 0 = batch axis
        lhs_subs = tuple(mapping[lab] for lab in a)
        rhs_subs = tuple(mapping[lab] for lab in b)
        out_subs = tuple(mapping[lab] for lab in step.output)
        out_batched = a_batched or b_batched
        subscripts = (lhs_subs, rhs_subs, out_subs)
        steps.append(CompiledStep(
            lhs=step.lhs,
            rhs=step.rhs,
            subscripts=subscripts,
            # an unbatched step shares the per-slice triple
            batched_subscripts=(
                (
                    (0,) + lhs_subs if a_batched else lhs_subs,
                    (0,) + rhs_subs if b_batched else rhs_subs,
                    (0,) + out_subs,
                )
                if out_batched else subscripts
            ),
            out_batched=out_batched,
            eliminated=step.eliminated,
            axes=(
                tensordot_axes(a, b, step.output)
                if step.flops >= BLAS_MIN_FLOPS else None
            ),
            matmul=(
                batched_matmul(
                    a, b, step.output, a_batched, b_batched, plan.dims
                )
                if out_batched else None
            ),
        ))
        return step.output, out_batched

    apply_steps(plan.steps, list(inputs), lower)
    return CompiledPlan(
        steps=tuple(steps),
        input_batched=tuple(batched for _, batched in inputs),
    )


#: Process-wide compiled-plan memo, keyed by
#: :meth:`ContractionPlan.digest` — shared across backend instances and
#: warm inside worker processes.  Bounded defensively; real workloads
#: hold a handful of plans.
_COMPILED_MEMO: Dict[str, CompiledPlan] = {}
_COMPILED_MEMO_CAP = 512


def compiled_for(plan: ContractionPlan) -> CompiledPlan:
    """The lowered form of ``plan``, computed once per digest."""
    digest = plan.digest()
    compiled = _COMPILED_MEMO.get(digest)
    if compiled is None:
        if len(_COMPILED_MEMO) >= _COMPILED_MEMO_CAP:
            _COMPILED_MEMO.clear()
        with _trace.span("plan.compile") as compile_span:
            compiled = compile_plan(plan)
            compile_span.set(
                steps=len(compiled.steps), blas_steps=compiled.blas_steps
            )
        _COMPILED_MEMO[digest] = compiled
    return compiled
