"""The array-namespace portability layer: one contraction kernel, any array library.

The array backends bottom out in ``einsum`` and ``matmul`` calls over
ndarrays.  Nothing about those calls is numpy-specific — torch and
cupy implement the same equation-string ``einsum`` and batched
``matmul``, advanced indexing and transposes — so this module puts the
handful of array operations the execution path needs behind an
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
* **Steps cost their call, not their set-up.**  Shrunk networks run
  tens of tiny steps per check, so everything a step needs is computed
  when its plan is lowered, and numpy's einsum is its C entry point.

The module also owns plan lowering: :func:`compile_plan` lowers every
step once, to its output node and either an einsum equation string
(per slice, and batch-lettered for batched slice chunks) or, for a
plain matrix product, a precomputed transpose/reshape/``matmul``
(:class:`Matmul`): per slice at :data:`BLAS_MIN_FLOPS` predicted flops
or more, and in every batched chunk.  :func:`compiled_for` keeps the
lowering on the plan, for as long as the plan lives.
"""

from __future__ import annotations

import abc
import importlib.util
import math
from dataclasses import dataclass
from string import ascii_letters
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import trace as _trace
from ..tensornet.planner import ContractionPlan

#: Names :func:`resolve_namespace` understands, in documentation order.
NAMESPACES = ("numpy", "torch", "cupy")

#: Element budget the automatic ``slice_batch`` sizes against: with
#: ``slice_batch=None`` a backend picks the largest batch whose
#: ``batch × peak per-slice intermediate`` stays under this many
#: elements (2M complex128 elements ≈ 32 MiB of batched intermediate).
AUTO_SLICE_BATCH_BUDGET = 1 << 21

#: Per-slice plan steps of at least this many predicted flops
#: (:attr:`~repro.tensornet.planner.ContractionStep.flops`) that are plain
#: matrix products run as a precomputed :class:`Matmul` (BLAS on numpy);
#: below it the C einsum's lower call overhead wins.  Refit on a 2-CPU
#: x86-64 host over the 5,386 such steps of ten Table I rows' alg2
#: plans, shrunk and unshrunk: the matmul wins 3% of the 64-255 flop
#: steps, 65% at 256-511 and 93-100% from 1024, and the summed step
#: time is least at 256 (4.3% above it at the old 4096).
BLAS_MIN_FLOPS = 256

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
    def einsum(self, equation: str, a, b):
        """``equation`` (such as ``"bc,cd->bd"``) applied to ``a`` and ``b``."""

    @abc.abstractmethod
    def transpose(self, operand, axes):
        """``operand`` with its axes permuted to ``axes``."""

    @abc.abstractmethod
    def matmul(self, a, b):
        """Matrix product over the last two axes, broadcasting the rest."""

    @abc.abstractmethod
    def to_host(self, operand) -> np.ndarray:
        """``operand`` as a host ndarray (the one device→host exit)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(device={self.device!r})"


def _c_einsum():
    """numpy's C einsum: what ``np.einsum`` forwards to without
    ``optimize``, so a call skips its Python front end."""
    for module in ("numpy._core.multiarray", "numpy.core.multiarray"):
        try:  # numpy 2.x, then 1.x
            return importlib.import_module(module).c_einsum
        except (ImportError, AttributeError):
            continue
    return np.einsum  # pragma: no cover - no C entry point exposed


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

    einsum = staticmethod(_c_einsum())

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

    def einsum(self, equation: str, a, b):
        return self._torch.einsum(equation, a, b)

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

    def einsum(self, equation: str, a, b):
        return self._cupy.einsum(equation, a, b)

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
class Matmul:
    """A plain matrix-product step as one ``matmul``: ``(m, k) × (k, n)``,
    or ``(batch, m, k) × (batch, k, n)`` in a batched slice chunk.

    Each operand is transposed (when its axes are not already in order)
    to its free labels then the shared ones (lhs) or the shared labels
    then its free ones (rhs) and reshaped to a matrix — to a stack of
    matrices when it carries the batch axis; a stack and one matrix
    broadcast — and the product is reshaped to the step's output.
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
    """One plan step lowered to an einsum equation or a :class:`Matmul`.

    The step merges nodes ``lhs`` and ``rhs`` (in that orientation) into
    node ``out``, numbered as in
    :class:`~repro.tensornet.planner.ContractionStep`.  ``equation`` is
    the per-slice (unbatched) einsum equation, such as ``"bc,cd->bd"``;
    ``batched_equation`` is the same equation with the reserved batch
    letter ``a`` leading every operand — and the output — that varies
    across slices.  ``matmul`` and ``batched_matmul`` are the same two
    calls as a :class:`Matmul` (``None``: the equation runs).  A step no
    sliced label reaches has one form: its batched fields are its
    per-slice ones.
    """

    lhs: int
    rhs: int
    out: int
    equation: str
    batched_equation: str
    out_batched: bool
    #: labels summed over in this step (engines that contract by label)
    eliminated: frozenset
    matmul: Optional[Matmul]
    batched_matmul: Optional[Matmul]


@dataclass(frozen=True)
class CompiledPlan:
    """A :class:`ContractionPlan` lowered for the array-API kernels."""

    steps: Tuple[CompiledStep, ...]
    #: whether each input tensor carries a sliced label (varies per slice)
    input_batched: Tuple[bool, ...]
    #: the node of the plan's final operand
    root: int

    @property
    def blas_steps(self) -> int:
        """How many steps an unbatched chunk contracts with ``matmul``."""
        return sum(step.matmul is not None for step in self.steps)


def tensordot_axes(
    lhs: Tuple[str, ...], rhs: Tuple[str, ...], output: Tuple[str, ...]
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """The summed axes of ``lhs`` and ``rhs`` merging into ``output``.

    ``None`` unless the merge is a plain matrix product: no operand
    repeats a label, and ``output`` is exactly the unshared lhs labels
    then the unshared rhs labels (``tensordot``'s order, so no transpose
    follows) — no label survives from both operands or is summed from one.
    """
    shared = set(lhs).intersection(rhs)
    if (
        len(set(lhs)) != len(lhs) or len(set(rhs)) != len(rhs)
        or tuple(output) != tuple(
            label for label in lhs + rhs if label not in shared
        )
    ):
        return None
    lhs_axes = tuple(ax for ax, label in enumerate(lhs) if label in shared)
    return lhs_axes, tuple(rhs.index(lhs[ax]) for ax in lhs_axes)


def matmul_for(
    lhs: Tuple[str, ...],
    rhs: Tuple[str, ...],
    output: Tuple[str, ...],
    lhs_batched: bool,
    rhs_batched: bool,
    dims: Dict[str, int],
) -> Optional[Matmul]:
    """The :class:`Matmul` of a step, if it is a plain matrix product.

    ``lhs``/``rhs``/``output`` are the per-slice labels; the flags say
    which operands carry the leading batch axis (the output does when
    either does).  ``None`` when :func:`tensordot_axes` finds no plain
    matrix product.
    """
    contracted = tensordot_axes(lhs, rhs, output)
    if contracted is None:
        return None
    lhs_shared, rhs_shared = contracted
    # the output is the lhs's free labels, then the rhs's
    out_shape = tuple([dims[label] for label in output])
    free = len(lhs) - len(lhs_shared)
    m, n = math.prod(out_shape[:free]), math.prod(out_shape[free:])
    k = math.prod([dims[lhs[ax]] for ax in lhs_shared])

    def layout(order, batched, rows, cols):
        # (batch,) rows x cols, with None for an axis order already in place
        axes = (0,) + tuple(ax + 1 for ax in order) if batched else order
        shape = (-1, rows, cols) if batched else (rows, cols)
        return (None if axes == tuple(range(len(axes))) else axes), shape

    lhs_axes, lhs_shape = layout(
        tuple(ax for ax in range(len(lhs)) if ax not in lhs_shared)
        + lhs_shared, lhs_batched, m, k,
    )
    rhs_axes, rhs_shape = layout(
        rhs_shared
        + tuple(ax for ax in range(len(rhs)) if ax not in rhs_shared),
        rhs_batched, k, n,
    )
    batched = lhs_batched or rhs_batched
    return Matmul(
        lhs_axes, lhs_shape, rhs_axes, rhs_shape,
        (-1,) + out_shape if batched else out_shape,
    )


def compile_plan(plan: ContractionPlan) -> CompiledPlan:
    """Lower each of a plan's steps once, to an equation or a matmul.

    Each compiled step keeps its plan step's nodes.  Labels become
    letters *per step* (so the global index count never hits the
    52-letter einsum alphabet), with ``a`` reserved for the batch axis
    of batched slice chunks.  A plain matrix product
    (:func:`tensordot_axes`) of at least :data:`BLAS_MIN_FLOPS` flops
    runs as a :class:`Matmul` in every chunk, and any plain matrix
    product does in a batched chunk; every other call runs its equation.
    """
    sliced = set(plan.slices)
    # per node: its per-slice labels, and whether it varies across slices
    labels = [
        tuple(lab for lab in labs if lab not in sliced) for labs in plan.inputs
    ] if sliced else list(plan.inputs)
    batched = [not sliced.isdisjoint(labs) for labs in plan.inputs]
    input_batched = tuple(batched)
    steps: List[CompiledStep] = []
    for out, step in enumerate(plan.steps, start=len(plan.inputs)):
        a, b = labels[step.lhs], labels[step.rhs]
        a_batched, b_batched = batched[step.lhs], batched[step.rhs]
        out_batched = a_batched or b_batched
        # "a" is the batch axis
        letter = dict(zip(dict.fromkeys(a + b), ascii_letters[1:])).get
        lhs = "".join(map(letter, a))
        rhs = "".join(map(letter, b))
        res = "".join(map(letter, step.output))
        equation = f"{lhs},{rhs}->{res}"
        matmul = batched_matmul = None
        if step.flops >= BLAS_MIN_FLOPS:
            matmul = batched_matmul = matmul_for(
                a, b, step.output, False, False, plan.dims
            )
        if out_batched:
            batched_matmul = matmul_for(
                a, b, step.output, a_batched, b_batched, plan.dims
            )
        # positional, the cheaper call: a cold plan lowers each step on
        # its way to running it once
        steps.append(CompiledStep(
            step.lhs,
            step.rhs,
            out,
            equation,
            f"{'a' * a_batched}{lhs},{'a' * b_batched}{rhs}->a{res}"
            if out_batched else equation,
            out_batched,
            step.eliminated,
            matmul,
            batched_matmul,
        ))
        labels.append(step.output)
        batched.append(out_batched)
    return CompiledPlan(tuple(steps), input_batched, len(labels) - 1)


def compiled_for(plan: ContractionPlan) -> CompiledPlan:
    """The lowered form of ``plan``, computed once per plan object and
    kept on it (:meth:`~ContractionPlan.lowered`)."""
    return plan.lowered(_lower)


def _lower(plan: ContractionPlan) -> CompiledPlan:
    with _trace.span("plan.compile") as compile_span:
        compiled = compile_plan(plan)
        compile_span.set(
            steps=len(compiled.steps), blas_steps=compiled.blas_steps
        )
    return compiled
