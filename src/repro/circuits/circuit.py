"""The quantum circuit IR.

A :class:`QuantumCircuit` is an ordered list of :class:`Instruction` objects
over ``num_qubits`` wires.  It may freely mix unitary gates and noise
channels; the noiseless case is just the sub-case with no channels.

Conventions
-----------
* Big-endian: qubit 0 is the most-significant bit of basis-state indices.
* ``unitary()`` multiplies instruction matrices left-to-right in time, i.e.
  the circuit ``[A, B]`` implements ``B @ A``.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from ..gates import Gate, standard
from ..linalg import COMPLEX, embed_operator
from .instruction import Instruction, is_channel


class QuantumCircuit:
    """An ordered sequence of gates and noise channels on ``num_qubits``."""

    def __init__(self, num_qubits: int, name: str = "circuit"):
        if num_qubits <= 0:
            raise ValueError("a circuit needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._instructions: List[Instruction] = []
        self._forget()

    def _forget(self) -> None:
        """Drop every memoised value (see :meth:`memoised`)."""
        self._memo: dict = {}
        #: the values that ignore channel values; :meth:`with_channel`
        #: copies share this dict, so it is replaced here, never cleared
        self._layout_memo: dict = {}

    # --- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __getitem__(self, index):
        return self._instructions[index]

    @property
    def instructions(self) -> List[Instruction]:
        """The instruction list (do not mutate directly)."""
        return self._instructions

    # --- building -----------------------------------------------------------

    def append(self, operation, qubits: Sequence[int]) -> "QuantumCircuit":
        """Append an operation on the given qubits; returns ``self``."""
        inst = Instruction(operation, tuple(qubits))
        if any(q >= self.num_qubits for q in inst.qubits):
            raise ValueError(
                f"qubits {inst.qubits} out of range for {self.num_qubits}-qubit circuit"
            )
        self._instructions.append(inst)
        self._forget()
        return self

    def extend(self, instructions: Iterable[Instruction]) -> "QuantumCircuit":
        """Append many prebuilt instructions."""
        for inst in instructions:
            self.append(inst.operation, inst.qubits)
        return self

    # Gate conveniences.  Each returns self so calls chain.
    def i(self, q: int):  # noqa: E743 - matches the gate name
        """Identity on qubit ``q``."""
        return self.append(standard.i_gate(), [q])

    def x(self, q: int):
        """Pauli X."""
        return self.append(standard.x_gate(), [q])

    def y(self, q: int):
        """Pauli Y."""
        return self.append(standard.y_gate(), [q])

    def z(self, q: int):
        """Pauli Z."""
        return self.append(standard.z_gate(), [q])

    def h(self, q: int):
        """Hadamard."""
        return self.append(standard.h_gate(), [q])

    def s(self, q: int):
        """Phase gate S."""
        return self.append(standard.s_gate(), [q])

    def sdg(self, q: int):
        """S dagger."""
        return self.append(standard.sdg_gate(), [q])

    def t(self, q: int):
        """T gate."""
        return self.append(standard.t_gate(), [q])

    def tdg(self, q: int):
        """T dagger."""
        return self.append(standard.tdg_gate(), [q])

    def sx(self, q: int):
        """sqrt(X)."""
        return self.append(standard.sx_gate(), [q])

    def rx(self, theta: float, q: int):
        """X rotation."""
        return self.append(standard.rx_gate(theta), [q])

    def ry(self, theta: float, q: int):
        """Y rotation."""
        return self.append(standard.ry_gate(theta), [q])

    def rz(self, theta: float, q: int):
        """Z rotation."""
        return self.append(standard.rz_gate(theta), [q])

    def p(self, lam: float, q: int):
        """Phase rotation."""
        return self.append(standard.p_gate(lam), [q])

    def u(self, theta: float, phi: float, lam: float, q: int):
        """Generic 1-qubit gate."""
        return self.append(standard.u_gate(theta, phi, lam), [q])

    def cx(self, control: int, target: int):
        """CNOT."""
        return self.append(standard.cx_gate(), [control, target])

    def cz(self, a: int, b: int):
        """Controlled-Z."""
        return self.append(standard.cz_gate(), [a, b])

    def cp(self, lam: float, control: int, target: int):
        """Controlled phase."""
        return self.append(standard.cp_gate(lam), [control, target])

    def cs(self, control: int, target: int):
        """Controlled-S."""
        return self.append(standard.cs_gate(), [control, target])

    def swap(self, a: int, b: int):
        """SWAP."""
        return self.append(standard.swap_gate(), [a, b])

    def ccx(self, c1: int, c2: int, target: int):
        """Toffoli."""
        return self.append(standard.ccx_gate(), [c1, c2, target])

    def cswap(self, control: int, a: int, b: int):
        """Fredkin."""
        return self.append(standard.cswap_gate(), [control, a, b])

    def unitary(self, matrix, qubits: Sequence[int], name: str = "unitary"):
        """Append an arbitrary unitary matrix as a gate."""
        gate = standard.unitary_gate(np.asarray(matrix, dtype=COMPLEX), name)
        return self.append(gate, qubits)

    def with_channel(self, channel, slots: Sequence[int]) -> "QuantumCircuit":
        """A copy with ``channel`` at each of ``slots``, on the same qubits.

        Every slot must already hold a channel.  Only the new
        instructions are validated (the rest were when they were
        appended), and the copy shares this circuit's channel-free memo
        (:meth:`noise_slots`, :meth:`layout_digest`), which a change of
        channel values leaves valid.  So filling a noise placement costs
        one list copy plus O(len(slots)).
        """
        if not is_channel(channel):
            raise ValueError(f"{channel!r} is not a noise channel")
        instructions = list(self._instructions)
        for slot in slots:
            old = instructions[slot]
            if not old.is_noise:
                raise ValueError(
                    f"slot {slot} holds {old.name!r}, not a channel"
                )
            instructions[slot] = Instruction(channel, old.qubits)
        out = QuantumCircuit(self.num_qubits, self.name)
        out._instructions = instructions
        out._layout_memo = self._layout_memo
        return out

    # --- memoised views -----------------------------------------------------

    def memoised(
        self,
        key,
        compute: Callable[["QuantumCircuit"], Any],
        channel_free: bool = False,
    ) -> Any:
        """``compute(self)``, computed once and kept until the next append.

        With ``channel_free`` the value must not depend on channel values;
        it is then shared with every :meth:`with_channel` copy.
        """
        memo = self._layout_memo if channel_free else self._memo
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = compute(self)
            return value

    def noise_slots(self) -> Tuple[int, ...]:
        """Positions of the noise-channel instructions, in circuit order."""
        return self.memoised(
            "noise_slots",
            lambda circuit: tuple(
                i for i, inst in enumerate(circuit) if inst.is_noise
            ),
            channel_free=True,
        )

    def layout_digest(self) -> bytes:
        """A 16-byte digest of the circuit with channel values left out.

        It covers the width and, per instruction, its qubits and either
        a channel marker or the gate's name, parameters and matrix bytes.
        Circuits that differ only in channel values share it, which is
        what keys a miter template (:func:`repro.core.miter.miter_key`).
        """
        return self.memoised("layout", _layout_digest, channel_free=True)

    # --- inspection -----------------------------------------------------------

    @property
    def num_gates(self) -> int:
        """Number of unitary gate instructions (paper's |G|)."""
        return sum(1 for inst in self._instructions if inst.is_unitary)

    @property
    def num_noise_sites(self) -> int:
        """Number of noise-channel instructions (paper's k)."""
        return len(self.noise_slots())

    @property
    def is_unitary_circuit(self) -> bool:
        """True if the circuit contains no noise channels."""
        return not self.noise_slots()

    @property
    def num_kraus_terms(self) -> int:
        """Product of Kraus counts across noise sites (Alg I term count)."""
        total = 1
        for inst in self.noise_instructions():
            total *= inst.num_kraus
        return total

    def noise_instructions(self) -> List[Instruction]:
        """All channel instructions, in circuit order."""
        return [self._instructions[slot] for slot in self.noise_slots()]

    def count_ops(self) -> dict:
        """Histogram of instruction names."""
        counts: dict = {}
        for inst in self._instructions:
            counts[inst.name] = counts.get(inst.name, 0) + 1
        return counts

    def depth(self) -> int:
        """Circuit depth counting gates and channels alike."""
        frontier = [0] * self.num_qubits
        for inst in self._instructions:
            level = max(frontier[q] for q in inst.qubits) + 1
            for q in inst.qubits:
                frontier[q] = level
        return max(frontier, default=0)

    # --- dense semantics --------------------------------------------------------

    def to_matrix(self) -> np.ndarray:
        """Dense unitary of a noiseless circuit.

        Raises ``ValueError`` if the circuit contains noise channels; use
        :class:`repro.baseline.SuperOp` for the channel semantics.
        """
        if not self.is_unitary_circuit:
            raise ValueError(
                "circuit contains noise channels; it has no unitary matrix"
            )
        mat = np.eye(2**self.num_qubits, dtype=COMPLEX)
        for inst in self._instructions:
            embedded = embed_operator(
                inst.operation.matrix, inst.qubits, self.num_qubits
            )
            mat = embedded @ mat
        return mat

    def statevector(self, initial: np.ndarray | None = None) -> np.ndarray:
        """Apply a noiseless circuit to a state vector (default |0...0>)."""
        if initial is None:
            initial = np.zeros(2**self.num_qubits, dtype=COMPLEX)
            initial[0] = 1.0
        return self.to_matrix() @ np.asarray(initial, dtype=COMPLEX)

    # --- structural transforms ---------------------------------------------------

    def copy(self, name: str | None = None) -> "QuantumCircuit":
        """Shallow copy (instructions are immutable, so this is safe)."""
        out = QuantumCircuit(self.num_qubits, name or self.name)
        out._instructions = list(self._instructions)
        return out

    def inverse(self) -> "QuantumCircuit":
        """The circuit implementing U†: gates daggered, order reversed.

        Only defined for unitary circuits.
        """
        if not self.is_unitary_circuit:
            raise ValueError("cannot invert a circuit containing noise channels")
        out = QuantumCircuit(self.num_qubits, f"{self.name}_dg")
        for inst in reversed(self._instructions):
            out.append(inst.operation.dagger(), inst.qubits)
        return out

    def conjugate(self) -> "QuantumCircuit":
        """Entry-wise conjugated circuit U* (Algorithm II primed copy)."""
        out = QuantumCircuit(self.num_qubits, f"{self.name}_conj")
        for inst in self._instructions:
            if inst.is_unitary:
                out.append(inst.operation.conjugate(), inst.qubits)
            else:
                out.append(inst.operation.conjugate(), inst.qubits)
        return out

    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """``self`` followed by ``other`` (other must have same width)."""
        if other.num_qubits != self.num_qubits:
            raise ValueError(
                f"cannot compose {self.num_qubits}-qubit circuit with "
                f"{other.num_qubits}-qubit circuit"
            )
        out = self.copy(f"{self.name}+{other.name}")
        out._instructions.extend(other._instructions)
        return out

    def power(self, exponent: int) -> "QuantumCircuit":
        """Repeat the circuit ``exponent`` times (inverse for negatives)."""
        if exponent < 0:
            return self.inverse().power(-exponent)
        out = QuantumCircuit(self.num_qubits, f"{self.name}^{exponent}")
        for _ in range(exponent):
            out._instructions.extend(self._instructions)
        return out

    def remap_qubits(self, mapping: Sequence[int]) -> "QuantumCircuit":
        """Relabel qubit ``q`` to ``mapping[q]`` (mapping is a permutation)."""
        if sorted(mapping) != list(range(self.num_qubits)):
            raise ValueError(f"{mapping} is not a permutation of the qubits")
        out = QuantumCircuit(self.num_qubits, self.name)
        for inst in self._instructions:
            out.append(inst.operation, [mapping[q] for q in inst.qubits])
        return out

    def without_noise(self) -> "QuantumCircuit":
        """Drop all channel instructions, keeping the unitary skeleton."""
        out = QuantumCircuit(self.num_qubits, f"{self.name}_ideal")
        for inst in self._instructions:
            if inst.is_unitary:
                out.append(inst.operation, inst.qubits)
        return out

    def draw(self) -> str:
        """Fixed-width text rendering (see :mod:`repro.circuits.draw`)."""
        from .draw import draw

        return draw(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuantumCircuit({self.name!r}, n={self.num_qubits}, "
            f"|G|={self.num_gates}, k={self.num_noise_sites})"
        )


def _layout_digest(circuit: QuantumCircuit) -> bytes:
    layout: List[object] = [circuit.num_qubits]
    matrices: List[np.ndarray] = []
    for inst in circuit:
        op = inst.operation
        if inst.is_noise:
            layout.append(("~", inst.qubits))
        else:
            layout.append((op.name, op.params, inst.qubits))
            matrices.append(op.matrix)
    # the layout fixes every matrix's size, so the joined bytes parse
    # one way only
    content = repr(layout).encode() + b"".join(matrices)
    return hashlib.blake2b(content, digest_size=16).digest()
