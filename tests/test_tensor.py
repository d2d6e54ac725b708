"""Autodiff core: ops, backward pass, Adam, gradient checking, checkpoints."""

import threading

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

    @pytest.mark.parametrize("shape", [(5, 4), (2, 5, 4)])
    def test_bias_rounds_as_a_separate_add(self, shape):
        rng = np.random.default_rng(9)
        params = {"a": Tensor(rng.normal(size=shape), requires_grad=True),
                  "w": Tensor(rng.normal(size=(4, 3)), requires_grad=True),
                  "b": Tensor(rng.normal(size=3), requires_grad=True)}
        g = rng.normal(size=shape[:-1] + (3,))
        results = []
        for fn in (lambda a, w, b: T.matmul(a, w, b), lambda a, w, b: a @ w + b):
            with ComputationTape() as tape:
                out = fn(*params.values())
                grads = tape.backward(T.reduce_sum(out * g), params)
                results.append((out.data, grads, len(tape.entries)))
        (out, grads, n), (ref, ref_grads, ref_n) = results
        assert np.array_equal(out, ref)
        assert all(np.array_equal(grads[k], ref_grads[k]) for k in params)
        assert n == ref_n - 1  # the bias add is part of the product's entry

    def test_bias_needs_a_2d_right_operand(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 4, 5))),
                     Tensor(np.ones(5)))

    @pytest.mark.parametrize("lead", [(3,), (2, 3)])
    def test_weight_product_equals_per_slice_products(self, lead):
        rng = np.random.default_rng(5)
        a = Tensor(rng.normal(size=lead + (4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        c = rng.normal(size=lead + (4, 3))
        with ComputationTape() as tape:
            out = a @ b
            grads = tape.backward(T.reduce_sum(out * c), {"a": a, "b": b})
        ga, gb = np.empty_like(a.data), np.zeros_like(b.data)
        for idx in np.ndindex(*lead):
            assert np.max(np.abs(out.data[idx] - a.data[idx] @ b.data)) < 1e-12
            ga[idx] = c[idx] @ b.data.T
            gb += a.data[idx].T @ c[idx]
        assert out.shape == lead + (4, 3)
        assert np.max(np.abs(grads["a"] - ga)) < 1e-12
        assert np.max(np.abs(grads["b"] - gb)) < 1e-12

    @pytest.mark.parametrize("lead", [(3,), (2, 3)])
    def test_weight_product_gradient_check(self, lead):
        rng = np.random.default_rng(6)
        params = {"a": Tensor(rng.normal(size=lead + (4, 5)), requires_grad=True),
                  "b": Tensor(rng.normal(size=(5, 3)), requires_grad=True)}
        c = rng.normal(size=lead + (4, 3))
        report = gradient_check(
            lambda: T.reduce_sum(T.tanh(params["a"] @ params["b"]) * c), params)
        assert report["failed"] == []


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
        out = T.softmax(Tensor(x)).data
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
            grads = tape.backward(T.reduce_sum(out), {"table": table})
        expected = np.zeros((4, 3))
        expected[2] = 2.0
        assert np.array_equal(grads["table"], expected)

    def test_empty_ids(self):
        table = Tensor(np.ones((4, 3)))
        out = T.embedding_lookup(table, np.asarray([], dtype=np.int64))
        assert out.shape == (0, 3)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            T.embedding_lookup(Tensor(np.ones((4, 3))), np.asarray([4]))

    @pytest.mark.parametrize("shape", [(0,), (1,), (40,), (0, 3), (6, 7), (2, 3, 5)])
    def test_gradient_equals_add_at_bitwise(self, shape):
        rng = np.random.default_rng(sum(shape))
        table = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        ids = rng.integers(0, 5, size=shape)  # five rows, so ids repeat
        g = rng.normal(size=shape + (4,)) * 10.0 ** rng.integers(-8, 9, size=shape + (4,))
        _, (gt,) = _forward_backward(T.embedding_lookup, table, ids, upstream=g)
        expected = np.zeros((5, 4))
        np.add.at(expected, ids, g)
        assert np.array_equal(gt, expected)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with ComputationTape() as tape:
            grads = tape.backward(T.reduce_sum(x), {"x": x})
        assert np.array_equal(grads["x"], [1.0, 1.0, 1.0])

    def test_bilinear(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        with ComputationTape() as tape:
            grads = tape.backward(T.reduce_sum(x * y), {"x": x, "y": y})
        assert np.array_equal(grads["x"], [3.0, 4.0])
        assert np.array_equal(grads["y"], [1.0, 2.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with ComputationTape() as tape:
            y = x * 2.0
            with pytest.raises(ShapeError):
                tape.backward(y, {"x": x})

    def test_tape_records_only_the_thread_that_opened_it(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        seen = {}

        def other_thread():
            seen["tape"] = T._tape()
            seen["out"] = T.tanh(x)

        with ComputationTape() as tape:
            y = T.tanh(x)
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        assert [e.output for e in tape.entries] == [y]
        assert seen["tape"] is None
        assert np.array_equal(seen["out"].data, y.data)

    def test_second_backward_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        with ComputationTape() as tape:
            loss = T.reduce_sum(x)
            tape.backward(loss, {"x": x})
            with pytest.raises(RuntimeError):
                tape.backward(loss, {"x": x})

    def test_dead_branch_is_not_back_propagated(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        frozen = Tensor(np.full((2, 2), 0.5))

        def refuse(g):
            raise AssertionError("backward ran on an entry without a "
                                 "trainable input")

        with ComputationTape() as tape:
            dead = Tensor(frozen.data * 2.0)
            T._record((frozen,), dead, refuse)
            loss = T.reduce_sum((T.tanh(dead) @ w) * 2.0)
            T.tanh(w)  # live, but the loss does not use it
            recorded = len(tape.entries)
            # the two entries without a trainable or live input are
            # recorded without their closures
            assert [e.backward_fn is None for e in tape.entries] == [
                True, True, False, False, False, False]
            grads = tape.backward(loss, {"w": w, "frozen": frozen})
            assert all(e.backward_fn is None for e in tape.entries)
            with pytest.raises(RuntimeError):
                tape.backward(loss, {"w": w})
        assert len(tape.entries) == recorded == 6
        assert np.array_equal(grads["w"],
                              2.0 * np.tanh(dead.data).T @ np.ones((2, 2)))
        assert np.array_equal(grads["frozen"], np.zeros((2, 2)))

    def test_liveness_is_fixed_when_an_op_is_recorded(self):
        x = Tensor([1.0, 2.0])
        w = Tensor([3.0, 4.0], requires_grad=True)
        assert not T.tanh(w).requires_grad  # no tape, nothing to replay
        with ComputationTape() as tape:
            dead = T.tanh(x)
            live = dead * w
            loss = T.reduce_sum(dead)
            x.requires_grad = True
            grads = tape.backward(loss, {"x": x})
        # an output requires grad iff an input did when the op ran
        assert (dead.requires_grad, live.requires_grad) == (False, True)
        assert not loss.requires_grad
        assert np.array_equal(grads["x"], [0.0, 0.0])

    def test_unused_parameter_gets_zero_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        unused = Tensor([5.0], requires_grad=True)
        with ComputationTape() as tape:
            grads = tape.backward(T.reduce_sum(x * x), {"x": x, "unused": unused})
        assert np.array_equal(grads["x"], [2.0, 4.0])
        assert np.array_equal(grads["unused"], [0.0])

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

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(CheckpointError, match="No such file"):
            load_checkpoint(tmp_path / "absent.ckpt")
        with pytest.raises(CheckpointError, match="Is a directory"):
            load_checkpoint(tmp_path)

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


def _forward_backward(op, *inputs, upstream):
    """Output and input gradients of ``op`` under one upstream gradient,
    straight from its tape entry."""
    with ComputationTape() as tape:
        out = op(*inputs)
        grads = tape.entries[-1].backward_fn(upstream)
    return out.data, grads


class TestKernelsBitwise:
    """The fused kernels round exactly like their textbook expressions and
    leave their inputs and the upstream gradient untouched."""

    rng = np.random.default_rng(11)
    x = rng.normal(0.0, 2.0, (3, 4, 6))
    g = rng.normal(size=(3, 4, 6))

    def _run(self, op, *inputs):
        kept = [np.copy(i.data) for i in inputs] + [self.g.copy()]
        out, grads = _forward_backward(op, *inputs, upstream=self.g)
        for before, now in zip(kept, [i.data for i in inputs] + [self.g]):
            assert np.array_equal(before, now)
        return out, grads

    def test_gelu(self):
        from scipy.special import erf
        x, g = self.x, self.g
        out, (gx,) = self._run(T.gelu, Tensor(x, requires_grad=True))
        phi = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
        pdf = (1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * x * x)
        assert np.array_equal(out, x * phi)
        assert np.array_equal(gx, g * (phi + x * pdf))

    def test_softmax(self):
        x, g = self.x, self.g
        out, (gx,) = self._run(T.softmax, Tensor(x, requires_grad=True))
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        y = e / e.sum(axis=-1, keepdims=True)
        assert np.array_equal(out, y)
        assert np.array_equal(gx, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    def test_log_softmax(self):
        x, g = self.x, self.g
        out, (gx,) = self._run(T.log_softmax, Tensor(x, requires_grad=True))
        z = x - x.max(axis=-1, keepdims=True)
        y = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        assert np.array_equal(out, y)
        assert np.array_equal(gx, g - np.exp(y) * g.sum(axis=-1, keepdims=True))

    def test_tanh(self):
        x, g = self.x, self.g
        out, (gx,) = self._run(T.tanh, Tensor(x, requires_grad=True))
        y = np.tanh(x)
        assert np.array_equal(out, y)
        assert np.array_equal(gx, g * (1.0 - y * y))

    def test_sigmoid(self):
        from scipy.special import expit
        x, g = self.x, self.g
        out, (gx,) = self._run(T.sigmoid, Tensor(x, requires_grad=True))
        y = expit(x)
        assert np.max(np.abs(out - 1.0 / (1.0 + np.exp(-x))) / out) < 1e-15
        assert np.array_equal(out, y)
        assert np.array_equal(gx, g * y * (1.0 - y))

    def test_layer_norm(self):
        x, g = self.x, self.g
        gain, bias = self.rng.normal(size=6), self.rng.normal(size=6)
        out, (gx, g_gain, g_bias) = self._run(
            T.layer_norm, Tensor(x, requires_grad=True),
            Tensor(gain, requires_grad=True), Tensor(bias, requires_grad=True))
        xc = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
        xhat = xc * inv
        gy = g * gain
        assert np.array_equal(out, xhat * gain + bias)
        assert np.array_equal(g_gain, (g * xhat).sum(axis=(0, 1)))
        assert np.array_equal(g_bias, g.sum(axis=(0, 1)))
        assert np.array_equal(gx, inv * (gy - gy.mean(axis=-1, keepdims=True)
                                         - xhat * (gy * xhat).mean(
                                             axis=-1, keepdims=True)))

    @pytest.mark.parametrize("op", [T.add, T.mul])
    def test_constant_operand_gets_no_gradient(self, op):
        x = Tensor(self.x, requires_grad=True)
        for inputs in ((x, 0.5), (x, np.ones(6)), (np.ones(6), x)):
            _, grads = _forward_backward(op, *inputs, upstream=self.g)
            assert [gr is None for gr in grads] == [
                not isinstance(i, Tensor) for i in inputs]


class TestGruScan:
    def test_gradient_check(self):
        rng = np.random.default_rng(12)
        B, Tlen, d = 3, 4, 5
        params = {"hist": rng.normal(size=(B, Tlen, d)), "h0": rng.normal(size=(B, d))}
        params.update({f"{k}{gate}": rng.normal(0.0, 0.5, (d,) if k == "b" else (d, d))
                       for k in "wub" for gate in "zrn"})
        params = {k: Tensor(v, requires_grad=True) for k, v in params.items()}
        mask = np.ones((B, Tlen))
        mask[0, 2:] = 0.0
        mask[2] = 0.0
        c = rng.normal(size=(B, d))

        def model_fn():
            w, u, b = ([params[f"{k}{gate}"] for gate in "zrn"] for k in "wub")
            return T.reduce_sum(T.gru_scan(params["hist"], mask, params["h0"],
                                           w, u, b) * c)

        report = gradient_check(model_fn, params)
        assert report["failed"] == []
        assert report["max_overall"] < 1e-6


def _composite_attention(x, key_bias, wq, bq, wk, bk, wv, bv, wo, bo, num_heads):
    """Multi-head self-attention from elementary tape ops, head permutes
    included: the expression ``tensor.attention`` fuses."""
    B, M, d = x.shape
    dk = d // num_heads

    def heads(t):
        return T.permute(T.reshape(t, (B, M, num_heads, dk)), (0, 2, 1, 3))

    qh, kh, vh = heads(x @ wq + bq), heads(x @ wk + bk), heads(x @ wv + bv)
    logits = (qh @ T.permute(kh, (0, 1, 3, 2))) * (1.0 / np.sqrt(dk))
    att = T.softmax(logits + key_bias)
    ctx = T.reshape(T.permute(att @ vh, (0, 2, 1, 3)), (B, M, d))
    return ctx @ wo + bo


def _attention_case(rng, B, M, d, empty_row=True):
    """Random inputs and a random key mask in which one row's only real key
    is CLS (column 0) and, with B > 1 and ``empty_row``, one row has no real
    key at all (its logits round to the bias, so finite differences see a
    constant there).  Returns the (B, M, d) states, the mask, the key bias
    and the eight projection tensors."""
    x = Tensor(rng.normal(size=(B, M, d)), requires_grad=True)
    weights = [Tensor(rng.normal(0.0, 0.5, shape), requires_grad=True)
               for _ in range(4) for shape in ((d, d), (d,))]
    mask = (rng.random((B, M)) < 0.6).astype(np.float64)
    mask[:, 0] = 1.0
    mask[0, 1:] = 0.0
    if B > 1 and empty_row:
        mask[-1] = 0.0
    key_bias = ((mask - 1.0) * 1e30)[:, None, None, :]
    return x, mask, key_bias, weights


def _rows_of(x, rows):
    """The (R, d) rows of (B, M, d) states at flat positions ``rows``."""
    B, M, d = x.shape
    return Tensor(x.data.reshape(B * M, d)[rows], requires_grad=True)


class TestAttention:
    """Packed ``tensor.attention`` against the composite (B, M, d) expression
    it fuses, at the rows it is given."""

    @pytest.mark.parametrize("B,M,d,heads", [
        (4, 7, 8, 1), (4, 7, 8, 2), (3, 9, 16, 4), (1, 5, 8, 4), (3, 1, 8, 2),
        (1, 1, 4, 4), (6, 12, 32, 4)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_composite_oracle(self, B, M, d, heads, seed):
        rng = np.random.default_rng(seed)
        x, mask, key_bias, weights = _attention_case(rng, B, M, d)
        upstream = rng.normal(size=(B * M, d))
        # every slot as a row (an all-masked row attends evenly), and the
        # real slots only (nothing flows through a PAD slot)
        for rows in (np.arange(B * M), np.flatnonzero(mask)):
            taken = np.zeros((B * M, 1))
            taken[rows] = 1.0
            with ComputationTape() as tape:
                ref = _composite_attention(x, key_bias, *weights, heads)
                ref_grads = tape.backward(
                    T.reduce_sum(ref * (upstream * taken).reshape(B, M, d)),
                    dict(enumerate([x, *weights])))
            xr = _rows_of(x, rows)
            with ComputationTape() as tape:
                out = T.attention(xr, rows, key_bias, *weights, heads)
                grads = tape.backward(T.reduce_sum(out * upstream[rows]),
                                      dict(enumerate([xr, *weights])))
            assert out.shape == (len(rows), d)
            assert np.max(np.abs(out.data - ref.data.reshape(B * M, d)[rows]),
                          initial=0.0) < 1e-12
            ref_grads[0] = ref_grads[0].reshape(B * M, d)[rows]
            assert len(grads) == 9
            for i, g in grads.items():
                assert g.shape == ref_grads[i].shape
                assert np.max(np.abs(g - ref_grads[i]), initial=0.0) < 1e-12

    def test_gradient_check(self):
        rng = np.random.default_rng(13)
        x, mask, key_bias, weights = _attention_case(rng, 3, 4, 4,
                                                     empty_row=False)
        rows = np.flatnonzero(mask)
        names = [f"{kind}{part}" for part in "qkvo" for kind in "wb"]
        params = {"x": _rows_of(x, rows), **dict(zip(names, weights))}
        c = rng.normal(size=(len(rows), 4))

        def model_fn():
            return T.reduce_sum(T.attention(
                params["x"], rows, key_bias, *(params[n] for n in names), 2) * c)

        report = gradient_check(model_fn, params)
        assert report["failed"] == []
        # softmax ignores a shift shared by a row's logits, so bk's gradient
        # is zero and its finite differences are roundoff alone
        with ComputationTape() as tape:
            g_bk = tape.backward(model_fn(), params)["bk"]
        assert np.max(np.abs(g_bk)) < 1e-12
        assert max(e for n, e in report["max_rel_error"].items()
                   if n != "bk") < 1e-6

    def test_inputs_and_upstream_untouched_and_output_not_aliased(self):
        rng = np.random.default_rng(14)
        x, mask, key_bias, weights = _attention_case(rng, 3, 5, 8)
        rows = np.flatnonzero(mask)
        xr = _rows_of(x, rows)
        upstream = rng.normal(size=(len(rows), 8))
        arrays = [xr.data, rows, key_bias, *(w.data for w in weights), upstream]
        kept = [a.copy() for a in arrays]
        out, grads = _forward_backward(
            lambda *a: T.attention(a[0], rows, key_bias, *a[1:], 2), xr,
            *weights, upstream=upstream)
        for before, now in zip(kept, arrays):
            assert np.array_equal(before, now)
        assert not np.shares_memory(out, xr.data)
        assert all(not np.shares_memory(g, upstream) for g in grads)

    def test_heads_must_divide_width(self):
        x, mask, key_bias, weights = _attention_case(np.random.default_rng(15),
                                                     2, 3, 6)
        rows = np.flatnonzero(mask)
        for heads in (4, 0):
            with pytest.raises(ShapeError):
                T.attention(_rows_of(x, rows), rows, key_bias, *weights, heads)

    def test_rows_must_match_inputs(self):
        x, mask, key_bias, weights = _attention_case(np.random.default_rng(16),
                                                     2, 3, 4)
        rows = np.flatnonzero(mask)
        with pytest.raises(ShapeError):
            T.attention(_rows_of(x, rows), rows[:-1], key_bias, *weights, 2)
        with pytest.raises(ShapeError):
            T.attention(x, np.arange(6), key_bias, *weights, 2)


class TestScatterRows:
    def test_places_rows_and_zero_fills(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        out = T.scatter_rows(x, np.asarray([0, 4, 5]), (2, 3)).data
        assert out.shape == (2, 3, 2)
        assert np.array_equal(out.reshape(6, 2)[[0, 4, 5]], x.data)
        assert np.all(out.reshape(6, 2)[[1, 2, 3]] == 0.0)

    def test_gradient_check(self):
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        rows = np.asarray([0, 2, 3, 7])
        c = rng.normal(size=(2, 4, 3))
        report = gradient_check(
            lambda: T.reduce_sum(T.scatter_rows(x, rows, (2, 4)) * c), {"x": x})
        assert report["failed"] == []
        assert report["max_overall"] < 1e-8


class TestMiscOps:
    def test_narrow_and_shift(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        assert np.array_equal(T.narrow(x, 0, 1, 2).data, x.data[1:3])

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
