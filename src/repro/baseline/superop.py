"""Dense ``SuperOp``: the baseline's explicit super-operator matrix.

A ``SuperOp`` on ``n`` qubits stores the full ``4^n x 4^n`` complex matrix
``M_E`` (row-stacking vectorisation), i.e. ``16^n`` complex128 values.
That is the representation behind Qiskit's ``SuperOp`` class, and it is
why the paper's baseline runs out of memory at 7 qubits on an 8 GB laptop:
the matrix alone is 4.3 GB and evolution needs a working copy.

:class:`MemoryLimitExceeded` reproduces that wall deterministically: the
constructor estimates peak bytes and refuses to allocate past the
configured budget instead of thrashing the machine.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..circuits import QuantumCircuit
from ..linalg import COMPLEX, dagger

#: The paper's experimental memory envelope.
PAPER_MEMORY_BYTES = 8 * 1024**3


class MemoryLimitExceeded(MemoryError):
    """Raised when a dense super-operator would not fit the memory budget."""

    def __init__(self, required: int, limit: int):
        super().__init__(
            f"dense SuperOp needs ~{required / 1024**3:.2f} GiB, "
            f"budget is {limit / 1024**3:.2f} GiB"
        )
        self.required = required
        self.limit = limit


def estimate_superop_bytes(num_qubits: int) -> int:
    """Peak bytes to build a dense SuperOp.

    Evolution keeps the ``16^n`` tensor, the tensordot result, and the
    internal transposed copy ``tensordot`` makes — three live copies at
    peak.
    """
    return 3 * (16**num_qubits) * 16


class SuperOp:
    """Dense super-operator matrix of a (noisy) circuit."""

    def __init__(
        self,
        data,
        memory_limit_bytes: Optional[int] = None,
    ):
        if isinstance(data, QuantumCircuit):
            if memory_limit_bytes is not None:
                required = estimate_superop_bytes(data.num_qubits)
                if required > memory_limit_bytes:
                    raise MemoryLimitExceeded(required, memory_limit_bytes)
            self.num_qubits = data.num_qubits
            self._tensor = _evolve_circuit(data)
        else:
            matrix = np.asarray(data, dtype=COMPLEX)
            dim = matrix.shape[0]
            num_qubits = 0
            while 4**num_qubits < dim:
                num_qubits += 1
            if matrix.shape != (4**num_qubits, 4**num_qubits):
                raise ValueError(f"SuperOp matrix has bad shape {matrix.shape}")
            if memory_limit_bytes is not None:
                required = estimate_superop_bytes(num_qubits)
                if required > memory_limit_bytes:
                    raise MemoryLimitExceeded(required, memory_limit_bytes)
            self.num_qubits = num_qubits
            self._tensor = matrix.reshape([2] * (4 * num_qubits))

    @property
    def dim(self) -> int:
        """Hilbert-space dimension ``2^n``."""
        return 2**self.num_qubits

    @property
    def data(self) -> np.ndarray:
        """The ``4^n x 4^n`` matrix (row-stacking convention)."""
        side = 4**self.num_qubits
        return self._tensor.reshape(side, side)

    def to_choi(self, normalised: bool = False) -> np.ndarray:
        """Reshuffle the super-operator matrix into the Choi matrix.

        Row-stacking: ``M[(r, c), (r', c')] = sum_k K[r, r'] K*[c, c']``
        and ``Choi[(r', r), (c', c)] = sum_k K[r, r'] K*[c, c']``, so the
        Choi matrix is a transpose-reshuffle of ``M``.  With
        ``normalised=True`` the result is the Jamiolkowski state
        ``rho_E`` of trace one.
        """
        d = self.dim
        m4 = self.data.reshape(d, d, d, d)  # [r, c, r', c']
        choi = np.transpose(m4, (2, 0, 3, 1)).reshape(d * d, d * d)
        if normalised:
            choi = choi / d
        return choi

    def compose(self, other: "SuperOp") -> "SuperOp":
        """``other`` after ``self``."""
        return SuperOp(other.data @ self.data)

    def adjoint(self) -> "SuperOp":
        """Adjoint super-operator."""
        return SuperOp(dagger(self.data))

    def is_trace_preserving(self, atol: float = 1e-8) -> bool:
        """Check TP via the Choi partial trace over the output system."""
        d = self.dim
        choi = self.to_choi().reshape(d, d, d, d)
        partial = np.einsum("arbr->ab", choi)
        return bool(np.allclose(partial, np.eye(d), atol=atol))


def instruction_kraus(inst) -> List[np.ndarray]:
    """Kraus operators of an instruction (a unitary gate yields one)."""
    if inst.is_noise:
        return inst.operation.kraus_operators
    return [inst.operation.matrix]


def _evolve_circuit(circuit: QuantumCircuit) -> np.ndarray:
    """Build the circuit's super-operator tensor instruction by instruction.

    The state is a tensor with ``4n`` binary axes ordered
    ``(r_0..r_{n-1}, c_0..c_{n-1}, r'_0..r'_{n-1}, c'_0..c'_{n-1})`` —
    output row/col bits then input row/col bits.  Each instruction's
    ``sum_k K (x) K*`` acts on the output axes of its qubits, costing
    ``O(16^n * 16^k)`` — the same scaling as Qiskit's dense evolution.
    """
    n = circuit.num_qubits
    dim = 4**n
    tensor = np.eye(dim, dtype=COMPLEX).reshape([2] * (4 * n))
    for inst in circuit:
        k = len(inst.qubits)
        step = np.zeros((2,) * (4 * k), dtype=COMPLEX)
        for op in instruction_kraus(inst):
            kraus_t = np.asarray(op, dtype=COMPLEX).reshape([2] * (2 * k))
            step += np.multiply.outer(kraus_t, np.conjugate(kraus_t))
        # step axes: (r_out k, r_in k, c_out k, c_in k); reorder to
        # (r_out, c_out, r_in, c_in).
        perm = (
            list(range(0, k))
            + list(range(2 * k, 3 * k))
            + list(range(k, 2 * k))
            + list(range(3 * k, 4 * k))
        )
        step = np.transpose(step, perm)
        # Contract step's input axes with the tensor's output axes of the
        # instruction's qubits: rows at positions qs, cols at n + qs.
        row_axes = [q for q in inst.qubits]
        col_axes = [n + q for q in inst.qubits]
        tensor = np.tensordot(
            step,
            tensor,
            axes=(list(range(2 * k, 4 * k)), row_axes + col_axes),
        )
        # New axes: (r_out k, c_out k, then remaining axes of tensor).
        remaining = [ax for ax in range(4 * n) if ax not in row_axes + col_axes]
        perm_back = [0] * (4 * n)
        for i, q in enumerate(inst.qubits):
            perm_back[q] = i
            perm_back[n + q] = k + i
        for i, ax in enumerate(remaining):
            perm_back[ax] = 2 * k + i
        tensor = np.transpose(tensor, perm_back)
    return tensor
