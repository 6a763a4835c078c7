"""Unit tests for named-index tensors."""

import numpy as np
import pytest

from oracles import gate_tensor, identity_tensor, scalar_tensor
from repro.tensornet import Tensor


class TestConstruction:
    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 2)), ["a"])

    def test_scalar_tensor(self):
        t = scalar_tensor(3 + 4j)
        assert t.rank == 0
        assert t.scalar() == 3 + 4j

    def test_scalar_of_open_tensor_fails(self):
        with pytest.raises(ValueError):
            identity_tensor("a", "b").scalar()


class TestOperations:
    def test_conjugate(self, rng):
        data = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        t = Tensor(data, ["a", "b"]).conjugate()
        assert np.allclose(t.data, np.conjugate(data))

    def test_relabel(self):
        t = identity_tensor("a", "b").relabel({"a": "x"})
        assert t.indices == ("x", "b")

    def test_transpose(self, rng):
        data = rng.normal(size=(2, 2, 2))
        t = Tensor(data, ["a", "b", "c"]).transpose(["c", "a", "b"])
        assert t.indices == ("c", "a", "b")
        assert np.allclose(t.data, np.transpose(data, (2, 0, 1)))

    def test_transpose_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            identity_tensor("a", "b").transpose(["a", "x"])


class TestSelfTrace:
    def test_identity_loop_gives_two(self):
        t = identity_tensor("a", "a").self_trace()
        assert t.rank == 0
        assert np.isclose(t.scalar(), 2.0)

    def test_partial_loop(self, rng):
        data = rng.normal(size=(2, 2, 2))
        t = Tensor(data, ["a", "a", "b"]).self_trace()
        assert t.indices == ("b",)
        assert np.allclose(t.data, np.trace(data, axis1=0, axis2=1))

    def test_noop_when_unique(self):
        t = identity_tensor("a", "b")
        assert t.self_trace() is t or t.self_trace().indices == t.indices

    def test_triple_repeat_rejected(self):
        data = np.zeros((2, 2, 2))
        with pytest.raises(ValueError):
            Tensor(data, ["a", "a", "a"]).self_trace()


class TestContract:
    def test_matrix_product(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2))
        ta = Tensor(a, ["i", "j"])
        tb = Tensor(b, ["j", "k"])
        out = ta.contract(tb)
        assert out.indices == ("i", "k")
        assert np.allclose(out.data, a @ b)

    def test_outer_product(self, rng):
        a = rng.normal(size=2)
        b = rng.normal(size=2)
        out = Tensor(a, ["i"]).contract(Tensor(b, ["j"]))
        assert np.allclose(out.data, np.outer(a, b))

    def test_full_inner_product(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2))
        out = Tensor(a, ["i", "j"]).contract(Tensor(b, ["i", "j"]))
        assert np.isclose(out.scalar(), np.sum(a * b))


class TestGateTensor:
    def test_axis_layout(self):
        cx = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
            dtype=complex,
        )
        t = gate_tensor(cx, ["o0", "o1"], ["i0", "i1"])
        assert t.indices == ("o0", "o1", "i0", "i1")
        # CX: input |10> -> output |11>: entry [1,1,1,0] == 1.
        assert t.data[1, 1, 1, 0] == 1

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            gate_tensor(np.eye(4), ["a"], ["b"])

    def test_in_out_count_mismatch(self):
        with pytest.raises(ValueError):
            gate_tensor(np.eye(4), ["a", "b"], ["c"])

    def test_reconstruction(self, rng):
        mat = rng.normal(size=(4, 4))
        t = gate_tensor(mat, ["o0", "o1"], ["i0", "i1"])
        back = t.data.reshape(4, 4)
        assert np.allclose(back, mat)
