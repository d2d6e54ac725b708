"""Dense-layout oracles for the packed-row encoders.

``tensor.attention`` and the mini PLM run their per-token layers on the real
tokens only.  The functions here are the same computations over every
(B, M) slot, PAD slots included: the attention op as one tape entry over
(B, M, d) states, and the encoders' forward passes built on it.  Tests
compare the packed path against them at the real positions.
``bucketed_embed`` spells out the chunk rule of a no-tape ``embed``.
"""

import numpy as np

from newsrec import tensor as T
from newsrec.encoders import (ENCODE_CHUNK, additive_attention, key_mask_bias,
                              trim_padding)


def dense_attention(x, key_bias, wq, bq, wk, bk, wv, bv, wo, bo, num_heads):
    """Multi-head self-attention over the (B, M, d) rows of ``x``; one tape
    entry with a hand-written backward."""
    xd = x.data
    B, M, d = xd.shape
    dk = d // num_heads
    scale = 1.0 / np.sqrt(dk)
    x2 = xd.reshape(B * M, d)
    w_qkv = np.concatenate([wq.data, wk.data, wv.data], axis=1)
    qkv = x2 @ w_qkv
    qkv += np.concatenate([bq.data, bk.data, bv.data])
    q, k, v = qkv.reshape(B, M, 3, num_heads, dk).transpose(2, 0, 3, 1, 4)
    att = q @ np.swapaxes(k, -1, -2)
    att *= scale
    att += key_bias
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)
    ctx = np.empty((B, M, d))
    np.matmul(att, v, out=ctx.reshape(B, M, num_heads, dk).transpose(0, 2, 1, 3))
    ctx2 = ctx.reshape(B * M, d)
    out = T.Tensor._make((ctx2 @ wo.data + bo.data).reshape(B, M, d))

    def bwd(g):
        g2 = g.reshape(B * M, d)
        g_ctx = (g2 @ wo.data.T).reshape(B, M, num_heads, dk).transpose(0, 2, 1, 3)
        g_qkv = np.empty((B, M, 3, num_heads, dk))
        gq, gk, gv = g_qkv.transpose(2, 0, 3, 1, 4)
        np.matmul(np.swapaxes(att, -1, -2), g_ctx, out=gv)
        g_att = g_ctx @ np.swapaxes(v, -1, -2)
        g_att -= (g_att * att).sum(axis=-1, keepdims=True)
        g_att *= att
        g_att *= scale
        np.matmul(g_att, k, out=gq)
        np.matmul(np.swapaxes(g_att, -1, -2), q, out=gk)
        g3 = g_qkv.reshape(B * M, 3 * d)
        g_w = np.split(x2.T @ g3, 3, axis=1)
        g_b = np.split(g3.sum(axis=0), 3)
        return ((g3 @ w_qkv.T).reshape(B, M, d), g_w[0], g_b[0], g_w[1], g_b[1],
                g_w[2], g_b[2], ctx2.T @ g2, g2.sum(axis=0))

    return T._record((x, wq, bq, wk, bk, wv, bv, wo, bo), out, bwd)


def _dense_mha(x, mask, params, prefix, num_heads):
    p = [params[prefix + name] for name in ("wq", "bq", "wk", "bk", "wv", "bv",
                                            "wo", "bo")]
    return dense_attention(x, key_mask_bias(mask), *p, num_heads)


def dense_mini_plm_forward(enc, ids, mask):
    """The mini PLM over every slot: PAD slots carry the PAD embedding plus
    their position through every layer (no dropout)."""
    M = ids.shape[-1]
    p = enc.params
    h = T.embedding_lookup(p["token_emb"], ids) + T.narrow(p["pos_emb"], 0, 0, M)
    for l in range(enc.spec.depth):
        pre = f"block{l}."
        a = T.layer_norm(h, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
        h = h + _dense_mha(a, mask, p, pre + "attn.", enc.spec.num_heads)
        f = T.layer_norm(h, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
        ff = T.gelu(f @ p[pre + "ffn.w1"] + p[pre + "ffn.b1"]) @ p[pre + "ffn.w2"] \
            + p[pre + "ffn.b2"]
        h = h + ff
    return T.layer_norm(h, p["final_ln.gain"], p["final_ln.bias"])


def dense_self_attn_forward(enc, ids, mask):
    """The ``self_attn`` news encoder over every slot (no dropout)."""
    x = T.embedding_lookup(enc.params["token_emb"], ids)
    return _dense_mha(x, mask, enc.params, "attn.", enc.spec.num_heads)


def dense_nrms_forward(enc, hist, mask):
    """The NRMS user encoder with self-attention over the (B, T, d) layout."""
    p = enc.params
    ctx = _dense_mha(hist, mask, p, "selfattn.", enc.spec.num_heads)
    return additive_attention(ctx, mask, p["attn.w"], p["attn.b"], p["attn.q"])


def bucketed_embed(encoder, ids, mask):
    """The rule by which a no-tape ``embed`` batches its titles, written out:
    sorted by real length (stable), ``ENCODE_CHUNK`` titles at a time, each
    chunk one pass trimmed to its longest title; row i is title i's."""
    out = np.empty((len(ids), encoder.spec.d_model))
    order = np.argsort(mask.sum(axis=1), kind="stable")
    for start in range(0, len(ids), ENCODE_CHUNK):
        rows = order[start:start + ENCODE_CHUNK]
        out[rows] = encoder._embed_block(*trim_padding(ids[rows],
                                                       mask[rows])).data
    return out
