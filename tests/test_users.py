"""User encoders."""

import numpy as np
import pytest
from dense_oracles import dense_nrms_forward

from newsrec import tensor as T
from newsrec.encoders import NewsEncoderSpec, param_count
from newsrec.model import ModelSpec, Recommender
from newsrec.tensor import ComputationTape, Tensor
from newsrec.text import build_vocab
from newsrec.users import USER_ENCODER_KINDS, UserEncoderSpec, build_user_encoder

D = 8


def _enc(kind, seed=0, **kw):
    kw.setdefault("d_model", D)
    kw.setdefault("num_heads", 2)
    kw.setdefault("user_table_size", 5)
    return build_user_encoder(UserEncoderSpec(kind=kind, **kw), seed=seed)


def _history(rng, t, real=None):
    hist = rng.normal(size=(1, t, D))
    mask = np.ones((1, t))
    if real is not None:
        hist[:, real:] = 0.0
        mask[:, real:] = 0.0
    return Tensor(hist), mask


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _gru_step_oracle(params, x, h):
    p = {k: v.data for k, v in params.items()}
    z = _sigmoid(x @ p["gru.wz"] + h @ p["gru.uz"] + p["gru.bz"])
    r = _sigmoid(x @ p["gru.wr"] + h @ p["gru.ur"] + p["gru.br"])
    htilde = np.tanh(x @ p["gru.wn"] + (r * h) @ p["gru.un"] + p["gru.bn"])
    return (1.0 - z) * h + z * htilde


def _unrolled_gru_scan(hist, mask, h0, w, u, b):
    """The GRU unrolled into elementary tape ops, one set per step."""
    B, Tlen, d = hist.shape
    h = h0
    m = mask.astype(np.float64)
    for t in range(Tlen):
        x = T.reshape(T.narrow(hist, -2, t, 1), (B, d))
        z = T.sigmoid(x @ w[0] + h @ u[0] + b[0])
        r = T.sigmoid(x @ w[1] + h @ u[1] + b[1])
        htilde = T.tanh(x @ w[2] + (r * h) @ u[2] + b[2])
        hnew = (1.0 + -z) * h + z * htilde  # 1 + (-z) rounds as 1 - z
        mt = m[:, t:t + 1]
        h = hnew * mt + h * (1.0 - mt)
    return h


def _scan_case(rng, B, Tlen, d):
    """Random inputs for a scan: a random mask with one all-masked row."""
    def tensor(*shape, scale=1.0):
        return Tensor(rng.normal(0.0, scale, shape), requires_grad=True)

    mask = (rng.random((B, Tlen)) < 0.7).astype(np.float64)
    mask[rng.integers(B)] = 0.0
    gates = [tuple(tensor(*shape, scale=0.5) for _ in "zrn")
             for shape in ((d, d), (d, d), (d,))]
    return tensor(B, Tlen, d), mask, tensor(B, d), gates


def _value_and_grads(scan, hist, mask, h0, gates, upstream):
    inputs = dict(enumerate([hist, h0, *gates[0], *gates[1], *gates[2]]))
    with ComputationTape() as tape:
        out = scan(hist, mask, h0, *gates)
        grads = tape.backward(T.reduce_sum(out * upstream), inputs)
    return out.data, list(grads.values())


class TestGruScan:
    """``tensor.gru_scan`` against the unrolled scan it replaces."""

    @pytest.mark.parametrize("B,Tlen,d", [(4, 5, 8), (1, 1, 8), (3, 0, 4),
                                          (1, 16, 4), (5, 2, 32), (3, 1, 8)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_unrolled_oracle(self, B, Tlen, d, seed):
        rng = np.random.default_rng(seed)
        hist, mask, h0, gates = _scan_case(rng, B, Tlen, d)
        upstream = rng.normal(size=(B, d))
        out, grads = _value_and_grads(T.gru_scan, hist, mask, h0, gates, upstream)
        ref, ref_grads = _value_and_grads(_unrolled_gru_scan, hist, mask, h0,
                                          gates, upstream)
        assert np.max(np.abs(out - ref), initial=0.0) < 1e-12
        for g, ref_g in zip(grads, ref_grads):
            assert g.shape == ref_g.shape
            assert np.max(np.abs(g - ref_g), initial=0.0) < 1e-12

    def test_all_masked_rows_pass_state_and_gradient_through(self):
        rng = np.random.default_rng(2)
        hist, mask, h0, gates = _scan_case(rng, 3, 4, 8)
        mask[:] = 0.0
        upstream = rng.normal(size=(3, 8))
        out, grads = _value_and_grads(T.gru_scan, hist, mask, h0, gates, upstream)
        assert np.array_equal(out, h0.data)
        assert np.array_equal(grads[1], upstream)
        assert all(not np.any(g) for i, g in enumerate(grads) if i != 1)

    def test_output_never_aliases_h0(self):
        h0 = Tensor(np.zeros((2, 4)))
        gates = [tuple(Tensor(np.zeros(s)) for _ in "zrn") for s in ((4, 4),) * 2 + ((4,),)]
        for Tlen in (0, 2):
            out = T.gru_scan(Tensor(np.zeros((2, Tlen, 4))), np.zeros((2, Tlen)),
                             h0, *gates)
            assert not np.shares_memory(out.data, h0.data)


class TestGru:
    def test_empty_history_zero_vector(self):
        enc = _enc("gru")
        hist, mask = _history(np.random.default_rng(0), 3, real=0)
        assert np.all(enc.forward(hist, mask).data == 0.0)

    def test_single_step_gate_oracle(self):
        enc = _enc("gru", seed=1)
        rng = np.random.default_rng(1)
        hist, mask = _history(rng, 1)
        out = enc.forward(hist, mask).data[0]
        oracle = _gru_step_oracle(enc.params, hist.data[0, 0], np.zeros(D))
        assert np.max(np.abs(out - oracle)) < 1e-12

    def test_trailing_padding_invariant(self):
        enc = _enc("gru", seed=2)
        rng = np.random.default_rng(2)
        hist, mask = _history(rng, 4)
        short = enc.forward(hist, mask).data
        padded = Tensor(np.concatenate([hist.data, np.zeros((1, 10, D))], axis=1))
        pmask = np.concatenate([mask, np.zeros((1, 10))], axis=1)
        assert np.max(np.abs(enc.forward(padded, pmask).data - short)) < 1e-10


class TestAdditiveAttn:
    def test_single_click_identity(self):
        enc = _enc("additive_attn", seed=3)
        hist, mask = _history(np.random.default_rng(3), 1)
        assert np.max(np.abs(enc.forward(hist, mask).data
                             - hist.data[:, 0])) < 1e-12

    def test_identical_clicks_half_weights(self):
        enc = _enc("additive_attn", seed=4)
        row = np.random.default_rng(4).normal(size=D)
        hist = Tensor(np.stack([row, row])[None])
        out = enc.forward(hist, np.ones((1, 2))).data[0]
        assert np.max(np.abs(out - row)) < 1e-12

    def test_matches_standalone_oracle(self):
        enc = _enc("additive_attn", seed=5)
        rng = np.random.default_rng(5)
        hist, mask = _history(rng, 6)
        out = enc.forward(hist, mask).data[0]
        w = enc.params["attn.w"].data
        b = enc.params["attn.b"].data
        q = enc.params["attn.q"].data[:, 0]
        scores = np.tanh(hist.data[0] @ w + b) @ q
        weights = np.exp(scores - scores.max())
        weights /= weights.sum()
        assert np.max(np.abs(out - weights @ hist.data[0])) < 1e-12


class TestNpa:
    def test_identical_clicks_user_independent(self):
        enc = _enc("npa", seed=7)
        row = np.random.default_rng(7).normal(size=D)
        hist = Tensor(np.stack([row, row, row])[None])
        mask = np.ones((1, 3))
        for uid in (0, 1, 4):
            out = enc.forward(hist, mask, np.asarray([uid])).data[0]
            assert np.max(np.abs(out - row)) < 1e-12

    def test_users_attend_differently(self):
        enc = _enc("npa", seed=8)
        hist, mask = _history(np.random.default_rng(8), 5)
        a = enc.forward(hist, mask, np.asarray([1])).data
        b = enc.forward(hist, mask, np.asarray([2])).data
        assert np.max(np.abs(a - b)) > 1e-8

    def test_default_user_is_fallback(self):
        enc = _enc("npa", seed=9)
        hist, mask = _history(np.random.default_rng(9), 4)
        assert np.array_equal(enc.forward(hist, mask).data,
                              enc.forward(hist, mask, np.asarray([0])).data)


class TestLstur:
    def test_empty_history_returns_user_embedding(self):
        enc = _enc("lstur", seed=10)
        hist, mask = _history(np.random.default_rng(10), 3, real=0)
        out = enc.forward(hist, mask, np.asarray([2])).data[0]
        assert np.array_equal(out, enc.params["user_emb"].data[2])

    def test_zero_user_table_reduces_to_gru(self):
        lstur = _enc("lstur", seed=11)
        gru = _enc("gru", seed=12)
        for gate in ("wz", "uz", "bz", "wr", "ur", "br", "wn", "un", "bn"):
            lstur.params["gru." + gate].data = gru.params["gru." + gate].data
        lstur.params["user_emb"].data = np.zeros_like(
            lstur.params["user_emb"].data)
        hist, mask = _history(np.random.default_rng(11), 4)
        assert np.array_equal(lstur.forward(hist, mask, np.asarray([3])).data,
                              gru.forward(hist, mask).data)

    def test_single_step_from_nonzero_state(self):
        enc = _enc("lstur", seed=13)
        rng = np.random.default_rng(13)
        hist, mask = _history(rng, 1)
        out = enc.forward(hist, mask, np.asarray([1])).data[0]
        h0 = enc.params["user_emb"].data[1]
        oracle = _gru_step_oracle(enc.params, hist.data[0, 0], h0)
        assert np.max(np.abs(out - oracle)) < 1e-12


class TestNrms:
    def test_single_click_passes_through_value_path(self):
        enc = _enc("nrms", seed=14)
        hist, mask = _history(np.random.default_rng(14), 1)
        out = enc.forward(hist, mask).data[0]
        # self-attention weight is 1 on the lone click, so its context is the
        # value/output projection of that click; additive attention over one
        # row returns it unchanged
        x = hist.data[0, 0]
        p = {k: v.data for k, v in enc.params.items()}
        ctx = ((x @ p["selfattn.wv"] + p["selfattn.bv"]) @ p["selfattn.wo"]
               + p["selfattn.bo"])
        assert np.max(np.abs(out - ctx)) < 1e-12

    def test_matches_dense_oracle_with_cold_start_rows(self):
        enc = _enc("nrms", seed=16)
        rng = np.random.default_rng(16)
        # trained-looking value and output biases: a cold-start row's context
        # is then bv Wo + bo, not zero
        for name in ("selfattn.bv", "selfattn.bo"):
            enc.params[name].data = rng.normal(size=D)
        mask = np.ones((4, 5))
        mask[1, 3:] = 0.0
        mask[2] = 0.0  # cold start
        mask[3, 1:] = 0.0
        hist = Tensor(rng.normal(size=(4, 5, D)) * mask[..., None],
                      requires_grad=True)
        params = {"hist": hist, **enc.params}
        upstream = rng.normal(size=(4, D))
        results = []
        for forward in (enc.forward, lambda h, m: dense_nrms_forward(enc, h, m)):
            with ComputationTape() as tape:
                out = forward(hist, mask)
                grads = tape.backward(T.reduce_sum(out * upstream), params)
            results.append((out.data, grads))
        (out, grads), (ref, ref_grads) = results
        # every slot is a row, so the packed op does the dense op's arithmetic
        assert np.array_equal(out, ref)
        for name, ref_g in ref_grads.items():
            assert np.array_equal(grads[name], ref_g), name
        p = {k: v.data for k, v in enc.params.items()}
        cold = p["selfattn.bv"] @ p["selfattn.wo"] + p["selfattn.bo"]
        assert np.max(np.abs(out[2] - cold)) < 1e-12

    def test_trailing_padding_invariant(self):
        enc = _enc("nrms", seed=15)
        hist, mask = _history(np.random.default_rng(15), 5)
        short = enc.forward(hist, mask).data
        padded = Tensor(np.concatenate([hist.data, np.zeros((1, 7, D))], axis=1))
        pmask = np.concatenate([mask, np.zeros((1, 7))], axis=1)
        assert np.max(np.abs(enc.forward(padded, pmask).data - short)) < 1e-10


class TestAllEncoders:
    @pytest.mark.parametrize("kind", USER_ENCODER_KINDS)
    def test_padding_invariance(self, kind):
        enc = _enc(kind, seed=20)
        hist, mask = _history(np.random.default_rng(20), 3)
        uidx = np.asarray([1])
        short = enc.forward(hist, mask, uidx).data
        padded = Tensor(np.concatenate([hist.data, np.zeros((1, 10, D))], axis=1))
        pmask = np.concatenate([mask, np.zeros((1, 10))], axis=1)
        assert np.max(np.abs(enc.forward(padded, pmask, uidx).data
                             - short)) < 1e-10

    @pytest.mark.parametrize("kind", USER_ENCODER_KINDS)
    def test_param_count_matches_instantiation(self, kind):
        # a Recommender sizes npa/lstur user tables to its users plus the
        # fallback row and counts news plus user tensors
        news = NewsEncoderSpec(kind="cnn", d_model=D, num_heads=2)
        spec = ModelSpec(news=news, user=UserEncoderSpec(kind=kind, d_model=D,
                                                         num_heads=2),
                         max_title_len=6)
        vocab = build_vocab(["a b c"])
        rec = Recommender(spec, vocab, user_ids=["U1", "U2", "U3", "U4"])
        standalone = _enc(kind, user_table_size=5)
        assert rec.total_param_count() == (
            param_count(news, vocab.size, 6)
            + sum(p.size for p in standalone.params.values()))
        assert spec.user.user_table_size == 1  # the caller's spec is untouched

    @pytest.mark.parametrize("kind", USER_ENCODER_KINDS)
    def test_empty_row_same_alone_as_in_batch(self, kind):
        enc = _enc(kind, seed=22)
        rng = np.random.default_rng(22)
        hist = rng.normal(size=(3, 4, D))
        mask = np.ones((3, 4))
        mask[0, 2:] = 0.0
        hist[1], mask[1] = 0.0, 0.0  # row 1 has no real click
        uidx = np.asarray([1, 2, 3])
        mixed = enc.forward(Tensor(hist), mask, uidx).data[1]
        alone = enc.forward(Tensor(hist[1:2]), mask[1:2], uidx[1:2]).data[0]
        assert np.all(np.isfinite(alone))
        assert np.array_equal(mixed, alone)

    @pytest.mark.parametrize("kind", USER_ENCODER_KINDS)
    def test_zero_length_history_is_one_masked_slot(self, kind):
        enc = _enc(kind, seed=23)
        uidx = np.asarray([1, 2])
        empty = enc.forward(Tensor(np.zeros((2, 0, D))), np.zeros((2, 0)), uidx)
        one_slot = enc.forward(Tensor(np.zeros((2, 1, D))), np.zeros((2, 1)), uidx)
        assert empty.shape == (2, D)
        assert np.array_equal(empty.data, one_slot.data)


class TestSpecValidation:
    @pytest.mark.parametrize("kind", USER_ENCODER_KINDS)
    @pytest.mark.parametrize("kw", [{"num_heads": 0}, {"num_heads": -4},
                                    {"d_model": 0}, {"d_model": -8}])
    def test_invalid_sizes(self, kind, kw):
        with pytest.raises(ValueError):
            UserEncoderSpec(kind=kind, **{"d_model": 8, "num_heads": 1, **kw})

    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            UserEncoderSpec(kind="nrms", d_model=30, num_heads=4)
