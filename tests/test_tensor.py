"""Autodiff core: ops, backward pass, Adam, gradient checking, checkpoints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsrec import tensor as T
from newsrec.tensor import (Adam, CheckpointError, ComputationTape,
                            NumericalError, ShapeError, Tensor, gradient_check,
                            load_checkpoint, save_checkpoint)


def _finite_arrays(shape):
    return st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=int(np.prod(shape)), max_size=int(np.prod(shape)),
    ).map(lambda v: np.asarray(v).reshape(shape))


class TestTensor:
    def test_non_finite_rejected(self):
        with pytest.raises(NumericalError):
            Tensor([1.0, np.nan])
        with pytest.raises(NumericalError):
            Tensor([np.inf])

    def test_float64_storage(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.shape == (2, 2)
        assert t.grad is None


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal((a @ b).data, b.data)

    def test_against_triple_loop_oracle(self):
        a = np.asarray([[1.0, 2.0], [3.0, 4.0]])
        b = np.asarray([[5.0], [6.0]])
        out = (Tensor(a) @ Tensor(b)).data
        oracle = np.zeros((2, 1))
        for i in range(2):
            for j in range(1):
                for k in range(2):
                    oracle[i, j] += a[i, k] * b[k, j]
        assert np.array_equal(out, oracle)
        assert out.tolist() == [[17.0], [39.0]]

    def test_zero_annihilates(self):
        z = Tensor(np.zeros((3, 3)))
        b = Tensor(np.arange(9.0).reshape(3, 3))
        assert np.all((z @ b).data == 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0])).data
        assert np.allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_overflow_stability(self):
        out = T.softmax(Tensor([1000.0, 0.0])).data
        assert np.all(np.isfinite(out))
        assert out[0] > 0.999

    def test_direct_formula(self):
        x = np.asarray([1.0, 2.0, 3.0])
        oracle = np.exp(x) / np.exp(x).sum()
        assert np.max(np.abs(T.softmax(Tensor(x)).data - oracle)) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(_finite_arrays((4, 6)))
    def test_rows_sum_to_one(self, x):
        out = T.softmax(Tensor(x), axis=-1).data
        assert np.all(out >= 0.0)
        assert np.max(np.abs(out.sum(axis=-1) - 1.0)) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(_finite_arrays((5,)), st.floats(min_value=-5, max_value=5))
    def test_shift_invariance(self, x, c):
        a = T.softmax(Tensor(x)).data
        b = T.softmax(Tensor(x + c)).data
        assert np.max(np.abs(a - b)) < 1e-12


class TestLayerNorm:
    def test_constant_row_zeroed(self):
        x = Tensor(np.full((1, 4), 7.0))
        out = T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4))).data
        assert np.allclose(out, 0.0, atol=1e-9)

    def test_two_point_row(self):
        out = T.layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)),
                           Tensor(np.zeros(2)), eps=1e-12).data
        assert np.allclose(out, [[-1.0, 1.0]], atol=1e-5)

    def test_zero_gain_broadcasts_bias(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 5)))
        bias = Tensor(np.arange(5.0))
        out = T.layer_norm(x, Tensor(np.zeros(5)), bias).data
        assert np.allclose(out, np.broadcast_to(bias.data, (3, 5)))

    def test_normalization_stats(self):
        x = Tensor(np.random.default_rng(1).normal(2.0, 3.0, size=(8, 16)))
        out = T.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)),
                           eps=1e-10).data
        assert np.max(np.abs(out.mean(axis=-1))) < 1e-9
        assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-6


class TestEmbeddingLookup:
    def test_first_row(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = T.embedding_lookup(table, np.asarray([0]))
        assert np.array_equal(out.data, table.data[:1])

    def test_duplicate_ids_accumulate_gradient(self):
        table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        with ComputationTape() as tape:
            out = T.embedding_lookup(table, np.asarray([2, 2]))
            tape.backward(T.reduce_sum(out))
        expected = np.zeros((4, 3))
        expected[2] = 2.0
        assert np.array_equal(table.grad, expected)

    def test_empty_ids(self):
        table = Tensor(np.ones((4, 3)))
        out = T.embedding_lookup(table, np.asarray([], dtype=np.int64))
        assert out.shape == (0, 3)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            T.embedding_lookup(Tensor(np.ones((4, 3))), np.asarray([4]))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with ComputationTape() as tape:
            tape.backward(T.reduce_sum(x))
        assert np.array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_bilinear(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        with ComputationTape() as tape:
            tape.backward(T.reduce_sum(x * y))
        assert np.array_equal(x.grad, [3.0, 4.0])
        assert np.array_equal(y.grad, [1.0, 2.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with ComputationTape() as tape:
            y = x * 2.0
            with pytest.raises(ShapeError):
                tape.backward(y)

    def test_second_backward_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        with ComputationTape() as tape:
            loss = T.reduce_sum(x)
            tape.backward(loss)
            with pytest.raises(RuntimeError):
                tape.backward(loss)

    def test_unused_parameter_gets_zero_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        unused = Tensor([5.0], requires_grad=True)
        with ComputationTape() as tape:
            tape.backward(T.reduce_sum(x * x), params=[x, unused])
        assert np.array_equal(unused.grad, [0.0])

    def test_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        params = {
            "w1": Tensor(rng.normal(0, 0.5, (4, 8)), requires_grad=True),
            "b1": Tensor(rng.normal(0, 0.5, 8), requires_grad=True),
            "w2": Tensor(rng.normal(0, 0.5, (8, 8)), requires_grad=True),
            "w3": Tensor(rng.normal(0, 0.5, (8, 1)), requires_grad=True),
        }
        x = np.asarray(rng.normal(size=(3, 4)))

        def model_fn():
            h = T.tanh(Tensor(x) @ params["w1"] + params["b1"])
            h = T.gelu(h @ params["w2"])
            return T.reduce_sum(h @ params["w3"])

        report = gradient_check(model_fn, params)
        assert report["failed"] == []
        assert report["max_overall"] < 1e-4


class TestAdam:
    def test_zero_gradient_noop(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        opt = Adam({"p": p}, learning_rate=0.1)
        opt.step({"p": np.zeros(2)})
        assert np.array_equal(p.data, [1.0, 2.0])
        assert opt.t == 1

    def test_single_step_anchor(self):
        # hand-evaluated bias-corrected update: p=0, g=1, lr=0.1 -> ~ -0.1
        p = Tensor([0.0], requires_grad=True)
        opt = Adam({"p": p}, learning_rate=0.1)
        opt.step({"p": np.asarray([1.0])})
        assert abs(p.data[0] - (-0.1 / (1.0 + 1e-8))) < 1e-12

    def test_monotone_descent_direction(self):
        p = Tensor([0.0], requires_grad=True)
        opt = Adam({"p": p}, learning_rate=0.01)
        opt.step({"p": np.asarray([1.0])})
        first = p.data[0]
        opt.step({"p": np.asarray([1.0])})
        assert p.data[0] < first < 0.0

    def test_shape_mismatch(self):
        opt = Adam({"p": Tensor([0.0, 0.0], requires_grad=True)})
        with pytest.raises(ShapeError):
            opt.step({"p": np.zeros(3)})

    def test_non_finite_gradient(self):
        opt = Adam({"p": Tensor([0.0], requires_grad=True)})
        with pytest.raises(NumericalError):
            opt.step({"p": np.asarray([np.nan])})


class TestGradientCheck:
    def test_linear_model_near_exact(self):
        w = Tensor([1.0, -2.0, 0.5], requires_grad=True)
        x = np.asarray([0.3, 0.7, -1.1])
        report = gradient_check(lambda: T.reduce_sum(w * x), {"w": w})
        assert report["max_overall"] < 1e-8

    def test_corrupted_backward_flagged(self):
        w = Tensor([0.5], requires_grad=True)

        def model_fn():
            out = Tensor(w.data * 3.0)
            # deliberately wrong backward rule (2x instead of 3x)
            T._record((w,), out, lambda g: (g * 2.0,))
            return T.reduce_sum(out)

        report = gradient_check(model_fn, {"w": w})
        assert report["failed"] == ["w"]

    def test_non_determinism_detected(self):
        w = Tensor([1.0], requires_grad=True)
        state = {"n": 0.0}

        def model_fn():
            state["n"] += 1.0
            return T.reduce_sum(w * state["n"])

        with pytest.raises(RuntimeError):
            gradient_check(model_fn, {"w": w})


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        params = {
            "a": Tensor(rng.normal(size=(3, 4))),
            "nested.name": Tensor(rng.normal(size=7)),
            "scalarish": Tensor(rng.normal(size=(1,))),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(params)
        for name, p in params.items():
            assert loaded[name].dtype == np.float64
            assert np.array_equal(loaded[name], p.data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"XXXX")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(
        st.text(max_size=12),
        st.lists(st.integers(0, 3), max_size=3).flatmap(
            lambda shape: st.lists(
                st.floats(allow_nan=False, allow_infinity=False),
                min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))
            .map(lambda v, shape=shape: np.asarray(v, dtype=np.float64)
                 .reshape(shape))),
        max_size=4))
    def test_random_dicts_round_trip_bitwise(self, tmp_path_factory, arrays):
        path = tmp_path_factory.mktemp("ckpt") / "p.ckpt"
        save_checkpoint(path, {k: Tensor(a) for k, a in arrays.items()})
        loaded = load_checkpoint(path)
        assert list(loaded) == list(arrays)
        for name, a in arrays.items():
            assert loaded[name].shape == a.shape
            assert loaded[name].tobytes() == a.tobytes()

    def test_cut_inside_a_record_rejected(self, tmp_path):
        path = tmp_path / "p.ckpt"
        save_checkpoint(path, {"w": Tensor(np.ones((2, 3))),
                               "b": Tensor(np.zeros(2))})
        blob = path.read_bytes()
        for cut in (len(blob) - 5, len(blob) - 16, 6):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError):
                load_checkpoint(path)


class TestMiscOps:
    def test_narrow_and_shift(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        assert np.array_equal(T.narrow(x, 0, 1, 2).data, x.data[1:3])
        shifted = T.shift_rows(Tensor(np.arange(6.0).reshape(3, 2)), 1, axis=-2)
        assert np.array_equal(shifted.data[0], [0.0, 0.0])
        assert np.array_equal(shifted.data[1:], np.arange(4.0).reshape(2, 2))

    def test_log_softmax_consistency(self):
        x = Tensor(np.random.default_rng(2).normal(size=(2, 5)))
        assert np.allclose(T.log_softmax(x).data,
                           np.log(T.softmax(x).data), atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(_finite_arrays((2, 3)))
    def test_elementwise_grad_matches_fd(self, x):
        x = np.where(np.abs(x) < 1e-2, 1.0, x)  # keep relu away from its kink
        p = Tensor(x, requires_grad=True)
        report = gradient_check(
            lambda: T.reduce_sum(T.sigmoid(p) * T.tanh(p) + T.relu(p)), {"p": p})
        assert report["max_overall"] < 1e-4
