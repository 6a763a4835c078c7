"""Memoised circuit views: computed once, dropped by ``append``.

A circuit keeps its noise slots, its layout digest (the miter-template
key part) and its cache fingerprint until the next append.  A copy made
by ``with_channel`` shares only the channel-free part.
"""

import pytest

from repro import NoiseSpec
from repro.cache import fingerprint as fp
from repro.circuits import QuantumCircuit
from repro.library import qft
from repro.noise import bit_flip, depolarizing, two_qubit_depolarizing

#: Fingerprints of the unmemoised digest, pinned so that memoisation
#: can never change a persisted result-cache key.
PINNED = {
    "qft3": "30634856886d8cb2f220ea5583223e8b0f44fc46d3bf18f0399f4633ec4e5c45",
    "qft3_random": (
        "099aa417efc3072efe7b1395c5ec68135aa07a512f9a9a4f330de52f133ae021"
    ),
    "qft3_every_gate": (
        "4d1415a6b364722c23644556489135f5160f6ac51e29fa3530d216b0c0f73cd2"
    ),
}


class TestFingerprintMemo:
    def test_values_are_pinned(self):
        ideal = qft(3)
        random = NoiseSpec(noises=2, seed=5, p=0.97).apply(ideal)
        every = NoiseSpec(every_gate=True, p=0.97, channel="bit_flip").apply(
            ideal
        )
        for name, circuit in (("qft3", ideal), ("qft3_random", random),
                              ("qft3_every_gate", every)):
            for _ in range(2):  # computed, then memoised
                assert fp.circuit_fingerprint(circuit) == PINNED[name]

    def test_append_changes_the_fingerprint(self):
        circuit = qft(3)
        before = fp.circuit_fingerprint(circuit)
        circuit.h(0)
        after = fp.circuit_fingerprint(circuit)
        assert before != after
        assert after == fp.circuit_fingerprint(qft(3).h(0))

    def test_a_version_bump_is_not_answered_from_the_memo(self, monkeypatch):
        circuit = qft(3)
        before = fp.circuit_fingerprint(circuit)
        monkeypatch.setattr(fp, "CACHE_VERSION", fp.CACHE_VERSION + 1)
        assert fp.circuit_fingerprint(circuit) != before

    def test_a_filled_copy_has_its_own_fingerprint(self):
        spec = NoiseSpec(noises=2, seed=5, p=0.97)
        placement = spec.placement(qft(3))
        one = placement.fill(depolarizing(0.97))
        other = placement.fill(depolarizing(0.9))
        assert fp.circuit_fingerprint(one) == PINNED["qft3_random"]
        assert fp.circuit_fingerprint(other) != PINNED["qft3_random"]


class TestLayoutMemo:
    def test_append_drops_noise_slots_and_digest(self):
        circuit = QuantumCircuit(2).h(0)
        assert circuit.noise_slots() == () and circuit.is_unitary_circuit
        digest = circuit.layout_digest()
        circuit.append(bit_flip(0.9), [1])
        assert circuit.noise_slots() == (1,)
        assert circuit.num_noise_sites == 1
        assert circuit.layout_digest() != digest

    def test_channel_values_stay_out_of_the_digest(self):
        def noisy(channel):
            return QuantumCircuit(2).h(0).append(channel, [1]).cx(0, 1)

        assert noisy(bit_flip(0.9)).layout_digest() == noisy(
            depolarizing(0.5)
        ).layout_digest()
        assert noisy(bit_flip(0.9)).layout_digest() != QuantumCircuit(2).h(
            0
        ).append(bit_flip(0.9), [0]).cx(0, 1).layout_digest()

    def test_gate_names_and_angles_enter_the_digest(self):
        assert QuantumCircuit(1).rz(0.3, 0).layout_digest() != QuantumCircuit(
            1
        ).rz(0.3000001, 0).layout_digest()

    def test_with_channel_shares_only_the_channel_free_memo(self):
        source = QuantumCircuit(2).h(0).append(bit_flip(0.9), [1])
        digest = source.layout_digest()
        copy = source.with_channel(depolarizing(0.8), [1])
        assert copy[1].operation.name == "depolarizing"
        assert source[1].operation.name == "bit_flip"
        assert copy.layout_digest() == digest
        assert fp.circuit_fingerprint(copy) != fp.circuit_fingerprint(source)
        copy.cx(0, 1)  # detaches the copy; the source keeps its memo
        assert copy.layout_digest() != digest
        assert source.layout_digest() == digest
        assert source.noise_slots() == (1,)

    def test_with_channel_validates_what_it_puts_in(self):
        source = QuantumCircuit(2).h(0).append(bit_flip(0.9), [1])
        with pytest.raises(ValueError, match="not a channel"):
            source.with_channel(depolarizing(0.8), [0])
        with pytest.raises(ValueError, match="not a noise channel"):
            source.with_channel(source[0].operation, [1])
        with pytest.raises(ValueError, match="acts on 2 qubits"):
            source.with_channel(two_qubit_depolarizing(0.9), [1])
