"""Dense float64 tensors with reverse-mode autodiff on an explicit tape.

Everything in this package that needs gradients is built from the ops in
this module.  Tensors wrap row-major numpy arrays; operations executed
while a ComputationTape is active on the calling thread are recorded and
can be replayed in reverse by ``backward``.  With no active tape, ops are
plain numpy forward computations (used for evaluation).
"""

from __future__ import annotations

import ctypes
import math
import os
import struct
import threading
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.special import erf, expit

from .fileio import atomic_open

__all__ = [
    "Tensor",
    "ComputationTape",
    "Adam",
    "ShapeError",
    "NumericalError",
    "CheckpointError",
    "matmul",
    "softmax",
    "log_softmax",
    "layer_norm",
    "embedding_lookup",
    "relu",
    "gelu",
    "tanh",
    "sigmoid",
    "gru_scan",
    "attention",
    "scatter_rows",
    "reduce_sum",
    "reshape",
    "permute",
    "narrow",
    "dropout",
    "gradient_check",
    "save_checkpoint",
    "load_checkpoint",
]


def _pin_blas_threads() -> bool:
    """Run numpy's bundled OpenBLAS on one thread; False if it cannot be set.

    OpenBLAS splits the row sum of a large GEMM (a weight gradient over
    every token row) between its threads, so the last bits of such a
    product depend on the thread count.  One thread makes every result
    independent of the machine's cores and of ``OPENBLAS_NUM_THREADS``.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))  # numpy's loaded copy, not a new one
        except OSError:
            continue
        set_threads = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)
            return True
    return False


BLAS_PINNED = _pin_blas_threads()

# glibc's mallopt parameters and the values they are fixed at
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_TRIM_THRESHOLD = 512 << 20
_MMAP_THRESHOLD = 32 << 20  # mallopt(3)'s documented maximum on 64-bit


def _keep_freed_memory() -> bool:
    """Keep the memory one training step frees for the next; False if the
    C library has no ``mallopt`` or rejects it.

    glibc gives the free top of its heap back to the kernel, and serves
    large blocks by their own ``mmap``, unmapped again on free.  Both
    thresholds move with the sizes freed so far, so each step's tape and
    temporaries are returned when the step ends and faulted in again by
    the next step.  Fixing both thresholds turns that adjustment off.
    One arena lets the threads that encode news blocks (``encoders``)
    reuse the heap the main thread freed, instead of faulting in arenas of
    their own.
    """
    if os.name != "posix":
        return False
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1
            and mallopt(_M_ARENA_MAX, 1) == 1)


HEAP_KEPT = _keep_freed_memory()


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested op."""


class NumericalError(ArithmeticError):
    """A non-finite value surfaced where finite values are required."""


class CheckpointError(ValueError):
    """A checkpoint file is malformed or does not fit the model."""


class Tensor:
    """A dense float64 array; ``requires_grad`` marks it as differentiable."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericalError("tensor initialized with non-finite values")
        self.data = arr
        self.requires_grad = requires_grad

    @classmethod
    def _make(cls, arr: np.ndarray) -> "Tensor":
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = False
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; constants on either side stay plain arrays
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


class _Entry:
    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs, output, backward_fn):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class _TapeStack(threading.local):
    """The open tapes of one thread, innermost last: a tape records only
    the ops of the thread that opened it."""

    def __init__(self):
        self.tapes: list[ComputationTape] = []


_TAPE_STACK = _TapeStack()


class ComputationTape:
    """Ordered record of ops; backward visits entries once, in reverse."""

    def __init__(self):
        self.entries: list[_Entry] = []
        self._consumed = False

    def __enter__(self):
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.tapes.pop()
        return False

    def backward(self, loss: Tensor,
                 params: dict[str, Tensor]) -> dict[str, np.ndarray]:
        """The gradient of ``loss`` for each leaf tensor in ``params``, by name.

        Only entries whose output requires grad are back-propagated, and
        that flag is fixed when an op is recorded (see ``_record``): setting
        ``requires_grad`` on a tensor already used on an open tape does not
        change that tape.
        Each closure is dropped once visited, freeing what only it held.
        A tensor the loss does not reach gets exact zeros.  Calling
        backward twice on the same tape is an error.
        """
        if self._consumed:
            raise RuntimeError("backward already ran on this tape; build a new tape")
        self._consumed = True
        if loss.data.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.data.shape}")
        if not np.isfinite(loss.data):
            raise NumericalError("loss is non-finite")

        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for entry in reversed(self.entries):
            backward_fn, entry.backward_fn = entry.backward_fn, None
            g_out = grads.pop(id(entry.output), None)
            if g_out is None or backward_fn is None:
                continue
            in_grads = backward_fn(g_out)
            for inp, g in zip(entry.inputs, in_grads):
                if g is None or not isinstance(inp, Tensor):
                    continue
                acc = grads.get(id(inp))
                grads[id(inp)] = g if acc is None else acc + g

        return {name: grads[id(p)] if id(p) in grads else np.zeros_like(p.data)
                for name, p in params.items()}


def _tape() -> ComputationTape | None:
    """The calling thread's innermost open tape, if any."""
    tapes = _TAPE_STACK.tapes
    return tapes[-1] if tapes else None


def _record(inputs, out: Tensor, backward_fn):
    # on a tape, the output requires grad iff some input does, fixed here
    # when the op runs (apply_finetune_policy sets requires_grad before any
    # tape); an entry whose output does not keeps no closure, so what the
    # closure captured is freed now
    t = _tape()
    if t is not None:
        out.requires_grad = any(isinstance(inp, Tensor) and inp.requires_grad
                                for inp in inputs)
        t.entries.append(_Entry(inputs, out,
                                backward_fn if out.requires_grad else None))
    return out


def _data(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    ad, bd = _data(a), _data(b)
    out = Tensor._make(ad + bd)

    def bwd(g):
        return (_unbroadcast(g, ad.shape) if isinstance(a, Tensor) else None,
                _unbroadcast(g, bd.shape) if isinstance(b, Tensor) else None)

    return _record((a, b), out, bwd)


def mul(a, b) -> Tensor:
    ad, bd = _data(a), _data(b)
    out = Tensor._make(ad * bd)

    def bwd(g):
        # an operand that is not a Tensor (array, scalar) is a constant
        return (_unbroadcast(g * bd, ad.shape) if isinstance(a, Tensor) else None,
                _unbroadcast(g * ad, bd.shape) if isinstance(b, Tensor) else None)

    return _record((a, b), out, bwd)


def matmul(a, b, bias=None) -> Tensor:
    """``a @ b``, or ``a @ b + bias`` as one tape entry for a 2-D ``b``."""
    ad, bd = _data(a), _data(b)
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError("matmul operands must have rank >= 2")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {ad.shape} @ {bd.shape}")
    if bd.ndim == 2:
        # a weight product: one GEMM over every leading row, not one per
        # slice; the bias is added in place and rounds as a separate add
        a2 = ad.reshape(-1, ad.shape[-1])
        y = a2 @ bd
        if bias is not None:
            y += _data(bias)
        out = Tensor._make(y.reshape(ad.shape[:-1] + bd.shape[-1:]))

        def bwd(g):
            g2 = g.reshape(-1, g.shape[-1])
            grads = ((g2 @ bd.T).reshape(ad.shape), a2.T @ g2)
            if bias is None:
                return grads
            return grads + (_unbroadcast(g, _data(bias).shape),)

        return _record((a, b) if bias is None else (a, b, bias), out, bwd)
    if bias is not None:
        raise ShapeError("matmul takes a bias only with a 2-D right operand")

    # einsum's unoptimised loops call no BLAS, whose GEMV and GEMM regroup
    # a row's sums with the batch size and under trailing zeros
    out = Tensor._make(np.einsum("...ij,...jk->...ik", ad, bd))

    def bwd(g):
        ga = _unbroadcast(np.einsum("...ik,...jk->...ij", g, bd), ad.shape)
        gb = _unbroadcast(np.einsum("...ij,...ik->...jk", ad, g), bd.shape)
        return (ga, gb)

    return _record((a, b), out, bwd)


def relu(x) -> Tensor:
    xd = _data(x)
    out = Tensor._make(np.maximum(xd, 0.0))

    def bwd(g):
        return (g * (xd > 0.0),)

    return _record((x,), out, bwd)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(x) -> Tensor:
    """Exact erf-based GELU."""
    xd = _data(x)
    # in place on one temporary per pass: the same roundings as
    # 0.5 * (1 + erf(x / sqrt 2)) and g * (phi + x * pdf), fewer allocations
    phi = xd * _INV_SQRT2
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    out = Tensor._make(xd * phi)

    def bwd(g):
        gx = xd * xd
        gx *= -0.5
        np.exp(gx, out=gx)
        gx *= _INV_SQRT2PI
        gx *= xd
        gx += phi
        gx *= g
        return (gx,)

    return _record((x,), out, bwd)


def tanh(x) -> Tensor:
    y = np.tanh(_data(x))
    out = Tensor._make(y)

    def bwd(g):
        # g * (1 - y*y) in one buffer, the same roundings
        gx = y * y
        np.subtract(1.0, gx, out=gx)
        gx *= g
        return (gx,)

    return _record((x,), out, bwd)


def sigmoid(x) -> Tensor:
    # scipy's expit is the one logistic kernel; the gates of gru_scan use it too
    y = expit(_data(x))
    out = Tensor._make(y)

    def bwd(g):
        gx = g * y
        gx *= 1.0 - y
        return (gx,)

    return _record((x,), out, bwd)


def gru_scan(hist, mask, h0, w, u, b) -> Tensor:
    """GRU over the (B, T, d) rows of ``hist``; one tape entry for all steps.

    ``w``, ``u`` and ``b`` are the (z, r, n) gate triples of (d, d) input
    weights, (d, d) recurrent weights and (d,) biases.  Per step t:

        z = sigmoid(x W_z + h U_z + b_z),  r = sigmoid(x W_r + h U_r + b_r)
        htilde = tanh(x W_n + (r*h) U_n + b_n),  hnew = (1-z)*h + z*htilde
        h = hnew*m + h*(1-m)

    with ``m = mask[:, t]``, so a masked step passes the state (and, in
    backward, its gradient) through unchanged.  The input projections of
    all steps are one GEMM ahead of the recurrence (Appleyard et al.,
    arXiv 1604.01946); backward is backpropagation through time whose
    weight gradients are GEMMs over the stacked steps.
    """
    xd = _data(hist)
    B, Tlen, d = xd.shape
    wd = np.concatenate([_data(p) for p in w], axis=1)  # (d, 3d)
    u_zr = np.concatenate([_data(u[0]), _data(u[1])], axis=1)  # (d, 2d)
    u_n = _data(u[2])
    m = np.asarray(mask, dtype=np.float64)[:, :, None]
    keep = 1.0 - m
    x2 = xd.reshape(B * Tlen, d)
    pre = (x2 @ wd).reshape(B, Tlen, 3 * d)
    pre += np.concatenate([_data(p) for p in b])
    # per step: the state entering it, the gates z|r and the candidate
    hs = np.empty((B, Tlen, d))
    zr = np.empty((B, Tlen, 2 * d))
    cand = np.empty((B, Tlen, d))
    h = _data(h0).copy()  # the output never aliases h0, even when T = 0
    for t in range(Tlen):
        hs[:, t] = h
        g = pre[:, t, :2 * d] + h @ u_zr
        zr[:, t] = expit(g, out=g)
        z, r = g[:, :d], g[:, d:]
        n = pre[:, t, 2 * d:] + (r * h) @ u_n
        cand[:, t] = np.tanh(n, out=n)
        h = ((1.0 - z) * h + z * n) * m[:, t] + h * keep[:, t]
    out = Tensor._make(h)

    def bwd(g_out):
        gpre = np.empty((B, Tlen, 3 * d))  # gradients of the gate inputs
        dh = g_out
        for t in range(Tlen - 1, -1, -1):
            hp, n = hs[:, t], cand[:, t]
            z, r = zr[:, t, :d], zr[:, t, d:]
            dnew = dh * m[:, t]
            dh = dh * keep[:, t]
            dn = dnew * z
            dn *= 1.0 - n * n
            gpre[:, t, 2 * d:] = dn
            drh = dn @ u_n.T
            dz = dnew * (n - hp)
            dz *= z * (1.0 - z)
            gpre[:, t, :d] = dz
            dr = drh * hp
            dr *= r * (1.0 - r)
            gpre[:, t, d:2 * d] = dr
            dh += dnew * (1.0 - z)
            dh += drh * r
            dh += gpre[:, t, :2 * d] @ u_zr.T
        g2 = gpre.reshape(B * Tlen, 3 * d)
        g_hist = (g2 @ wd.T).reshape(B, Tlen, d)
        g_w = x2.T @ g2
        g_uzr = hs.reshape(B * Tlen, d).T @ g2[:, :2 * d]
        g_un = (zr[:, :, d:] * hs).reshape(B * Tlen, d).T @ g2[:, 2 * d:]
        return (g_hist, dh, *np.split(g_w, 3, axis=1), *np.split(g_uzr, 2, axis=1),
                g_un, *np.split(g2.sum(axis=0), 3))

    return _record((hist, h0, *w, *u, *b), out, bwd)


def attention(x, rows, key_bias, wq, bq, wk, bk, wv, bv, wo, bo,
              num_heads: int) -> Tensor:
    """Multi-head self-attention over packed token rows; one tape entry.

    ``x`` is (R, d): the tokens of a (B, M) batch that take part, row ``i``
    at flat position ``rows[i]`` (``b * M + m``) of that batch.
    ``key_bias`` is the (B, 1, 1, M) additive logit bias of the keys, e.g.
    a large negative value at each padded key.  Per head, with q, k, v the
    head's slices of ``x Wq + bq`` and so on:

        ctx = softmax(q k^T / sqrt(d / h) + key_bias) v,  out = ctx Wo + bo

    The projections are GEMMs over the R rows (Q, K and V from one
    (R, d) @ (d, 3d) product).  Only the softmax core uses the (B, h, M, M)
    layout, with q, k and v zero at positions not in ``rows``; the heads are
    strided views, and scale, bias and softmax run in place on the logits.
    Backward is hand-written: the q, k and v head gradients land in one
    (B, M, 3d) buffer whose ``rows`` are gathered back, so the input, the
    packed weights and the packed biases each take one GEMM or one sum over
    the R rows.
    """
    xd = _data(x)
    if xd.ndim != 2:
        raise ShapeError(f"attention takes (R, d) rows, got shape {xd.shape}")
    R, d = xd.shape
    B, M = key_bias.shape[0], key_bias.shape[-1]
    if num_heads < 1 or d % num_heads:
        raise ShapeError(f"{num_heads} heads do not divide d_model {d}")
    if M == 0:
        raise ShapeError("attention over an empty sequence")
    rows = np.asarray(rows, dtype=np.int64)
    if rows.shape != (R,):
        raise ShapeError(f"{rows.shape} row positions for {R} rows")
    dk = d // num_heads
    scale = 1.0 / np.sqrt(dk)
    w_qkv = np.concatenate([_data(wq), _data(wk), _data(wv)], axis=1)
    wod = _data(wo)
    qkv_rows = xd @ w_qkv
    qkv_rows += np.concatenate([_data(bq), _data(bk), _data(bv)])
    qkv = np.zeros((B * M, 3 * d))
    qkv[rows] = qkv_rows
    # (3, B, h, M, dk) views: head j of q is qkv[b * M + m, j*dk:(j+1)*dk]
    q, k, v = qkv.reshape(B, M, 3, num_heads, dk).transpose(2, 0, 3, 1, 4)
    att = q @ np.swapaxes(k, -1, -2)
    att *= scale
    att += key_bias
    _softmax_rows(att)
    ctx = np.empty((B * M, d))
    np.matmul(att, v, out=ctx.reshape(B, M, num_heads, dk).transpose(0, 2, 1, 3))
    ctx = ctx[rows]
    y = ctx @ wod
    y += _data(bo)
    out = Tensor._make(y)

    def bwd(g):
        g_ctx = np.zeros((B * M, d))
        g_ctx[rows] = g @ wod.T
        g_ctx = g_ctx.reshape(B, M, num_heads, dk).transpose(0, 2, 1, 3)
        g_qkv = np.empty((B * M, 3 * d))
        gq, gk, gv = g_qkv.reshape(B, M, 3, num_heads, dk).transpose(2, 0, 3, 1, 4)
        np.matmul(np.swapaxes(att, -1, -2), g_ctx, out=gv)
        # softmax Jacobian in place: att * (g_att - sum(g_att * att)), scaled
        g_att = g_ctx @ np.swapaxes(v, -1, -2)
        g_att -= _row_sum(g_att * att)
        g_att *= att
        g_att *= scale
        np.matmul(g_att, k, out=gq)
        np.matmul(np.swapaxes(g_att, -1, -2), q, out=gk)
        g3 = g_qkv[rows]
        g_w = np.split(xd.T @ g3, 3, axis=1)
        g_b = np.split(g3.sum(axis=0), 3)
        return (g3 @ w_qkv.T, g_w[0], g_b[0], g_w[1], g_b[1], g_w[2], g_b[2],
                ctx.T @ g, g.sum(axis=0))

    return _record((x, wq, bq, wk, bk, wv, bv, wo, bo), out, bwd)


def scatter_rows(x, rows, shape) -> Tensor:
    """The rows of ``x`` (along its last axis, d wide) placed at flat
    positions ``rows``, shaped as ``x``'s leading axes, of a zero
    ``shape + (d,)`` array; backward gathers those rows of the gradient."""
    xd = _data(x)
    n, d = math.prod(shape), xd.shape[-1]
    full = np.zeros((n, d))
    full[rows] = xd
    out = Tensor._make(full.reshape(*shape, d))

    def bwd(g):
        return (g.reshape(n, d)[rows],)

    return _record((x,), out, bwd)


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------


def reduce_sum(x, axis=None) -> Tensor:
    xd = _data(x)
    out = Tensor._make(xd.sum(axis=axis))

    def bwd(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, xd.shape).copy(),)

    return _record((x,), out, bwd)


def reshape(x, shape) -> Tensor:
    xd = _data(x)
    out = Tensor._make(xd.reshape(shape))

    def bwd(g):
        return (g.reshape(xd.shape),)

    return _record((x,), out, bwd)


def permute(x, axes) -> Tensor:
    xd = _data(x)
    inv = np.argsort(axes)
    out = Tensor._make(np.transpose(xd, axes).copy())

    def bwd(g):
        return (np.transpose(g, inv).copy(),)

    return _record((x,), out, bwd)


def narrow(x, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries along ``axis``."""
    xd = _data(x)
    idx = [slice(None)] * xd.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = Tensor._make(xd[idx].copy())

    def bwd(g):
        full = np.zeros_like(xd)
        full[idx] = g
        return (full,)

    return _record((x,), out, bwd)


# ---------------------------------------------------------------------------
# softmax family and normalization
# ---------------------------------------------------------------------------


def _row_sum(x: np.ndarray) -> np.ndarray:
    """The last-axis sum (kept as a length-1 axis), column by column from the
    left: trailing zero columns add exact zeros, unlike numpy's pairwise sum."""
    s = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        s += x[..., j:j + 1]
    return s


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Last-axis softmax of ``x`` in place, with the columns' elementwise
    maxima as row max and ``_row_sum``'s row sum; returns ``x``."""
    row_max = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(row_max, x[..., j:j + 1], out=row_max)
    x -= row_max
    np.exp(x, out=x)
    x /= _row_sum(x)
    return x


def softmax(x) -> Tensor:
    """Softmax over the last axis, by the kernel ``attention`` uses."""
    xd = _data(x)
    if xd.shape == () or xd.shape[-1] == 0:
        raise ShapeError("softmax over an empty axis")
    y = _softmax_rows(xd.copy())
    out = Tensor._make(y)

    def bwd(g):
        gx = g * y
        np.subtract(g, _row_sum(gx), out=gx)
        gx *= y
        return (gx,)

    return _record((x,), out, bwd)


def log_softmax(x) -> Tensor:
    xd = _data(x)
    if xd.shape == () or xd.shape[-1] == 0:
        raise ShapeError("log_softmax over an empty axis")
    y = xd - xd.max(axis=-1, keepdims=True)
    sm = np.exp(y)
    y -= np.log(sm.sum(axis=-1, keepdims=True))
    np.exp(y, out=sm)
    out = Tensor._make(y)

    def bwd(g):
        gx = sm * g.sum(axis=-1, keepdims=True)
        np.subtract(g, gx, out=gx)
        return (gx,)

    return _record((x,), out, bwd)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    xd, gd, bd = _data(x), _data(gain), _data(bias)
    d = xd.shape[-1]
    if d < 2:
        raise ShapeError("layer_norm needs at least 2 features")
    xhat = xd - xd.mean(axis=-1, keepdims=True)
    y = xhat * xhat
    inv = 1.0 / np.sqrt(y.mean(axis=-1, keepdims=True) + eps)
    xhat *= inv
    np.multiply(xhat, gd, out=y)
    y += bd
    out = Tensor._make(y)

    def bwd(g):
        sum_axes = tuple(range(g.ndim - 1))
        t = g * xhat
        g_gain = t.sum(axis=sum_axes)
        g_bias = g.sum(axis=sum_axes)
        # gx = inv * (gy - mean(gy) - xhat * mean(gy * xhat)), gy = g * gain
        gx = g * gd
        np.multiply(gx, xhat, out=t)
        m2 = t.mean(axis=-1, keepdims=True)
        gx -= gx.mean(axis=-1, keepdims=True)
        np.multiply(xhat, m2, out=t)
        gx -= t
        gx *= inv
        return (gx, g_gain, g_bias)

    return _record((x, gain, bias), out, bwd)


def embedding_lookup(table, ids) -> Tensor:
    """Gather rows of a 2-D table; backward scatter-adds into the table.

    The scatter is a product with the (V, n) one-hot matrix of the ids in
    CSC form, one column per id: it adds each row's gradients in id order
    from zero and multiplies only by 1.0, so it is bitwise ``np.add.at``.
    """
    td = _data(table)
    if td.ndim != 2:
        raise ShapeError("embedding table must be 2-D")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= td.shape[0]):
        raise IndexError(f"id out of range [0, {td.shape[0]})")
    out = Tensor._make(td[idx])

    def bwd(g):
        n = idx.size
        onehot = sparse.csc_array((np.ones(n), idx.reshape(n), np.arange(n + 1)),
                                  shape=(td.shape[0], n))
        return (onehot @ g.reshape(n, td.shape[1]),)

    return _record((table,), out, bwd)


def dropout(x, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity at rate 0."""
    if rate == 0.0:
        return x if isinstance(x, Tensor) else Tensor._make(_data(x))
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    xd = _data(x)
    keep = (rng.random(xd.shape) >= rate) / (1.0 - rate)
    out = Tensor._make(xd * keep)

    def bwd(g):
        return (g * keep,)

    return _record((x,), out, bwd)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class Adam:
    """Adam with bias correction over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], learning_rate: float = 1e-5):
        self.params = params
        self.learning_rate = learning_rate
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, grads: dict[str, np.ndarray]):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, g in grads.items():
            p = self.params[name]
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient shape {g.shape} != param shape "
                                 f"{p.data.shape} for {name!r}")
            if not np.all(np.isfinite(g)):
                raise NumericalError(f"non-finite gradient for {name!r}")
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data = p.data - self.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def gradient_check(model_fn, params: dict[str, Tensor], tolerance: float = 1e-4,
                   h: float = 1e-5, max_coords: int | None = None,
                   rng: np.random.Generator | None = None,
                   floor: float = 1e-6) -> dict:
    """Compare autodiff gradients against central finite differences.

    ``model_fn`` takes no arguments and returns a scalar loss Tensor built
    from ``params``.  Returns a report with per-parameter max relative
    error and the names exceeding ``tolerance``.  ``max_coords`` limits how
    many coordinates per parameter are probed (all by default).  ``floor``
    bounds the relative-error denominator from below so that coordinates
    whose gradient is negligible against the loss scale are not judged by
    finite-difference roundoff noise alone.
    """
    with ComputationTape():
        l1 = model_fn().item()
    with ComputationTape():
        l2 = model_fn().item()
    if l1 != l2:
        raise RuntimeError("model_fn is non-deterministic; gradient check requires "
                           "deterministic forward passes")

    with ComputationTape() as tape:
        analytic = tape.backward(model_fn(), params)

    if rng is None:
        rng = np.random.default_rng(0)
    errors: dict[str, float] = {}
    failed: list[str] = []
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        coords = np.arange(n)
        if max_coords is not None and n > max_coords:
            coords = rng.choice(n, size=max_coords, replace=False)
        worst = 0.0
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            fp = model_fn().item()
            flat[i] = orig - h
            fm = model_fn().item()
            flat[i] = orig
            fd = (fp - fm) / (2.0 * h)
            ad = analytic[name].reshape(-1)[i]
            err = abs(ad - fd) / max(abs(ad), abs(fd), floor)
            worst = max(worst, err)
        errors[name] = worst
        if worst > tolerance:
            failed.append(name)
    return {"max_rel_error": errors, "failed": failed,
            "max_overall": max(errors.values()) if errors else 0.0}


# ---------------------------------------------------------------------------
# checkpoint format: magic "NRT1", then per parameter
#   u32 name_len | utf-8 name | u32 rank | u32 dims... | f64 payload (LE)
# ---------------------------------------------------------------------------

_MAGIC = b"NRT1"


def save_checkpoint(path, params: dict[str, Tensor]):
    with atomic_open(path, "wb") as f:
        f.write(_MAGIC)
        for name, p in params.items():
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            shape = p.data.shape
            f.write(struct.pack("<I", len(shape)))
            for d in shape:
                f.write(struct.pack("<I", d))
            f.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint written by ``save_checkpoint``.

    Raises CheckpointError on a file that cannot be read, on a bad magic
    number and on a file that ends inside a record.
    """
    out: dict[str, np.ndarray] = {}
    try:
        f = open(path, "rb")
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: "
                              f"{e.strerror or e}") from e
    with f:
        size = os.fstat(f.fileno()).st_size

        def read(n: int) -> bytes:
            if f.tell() + n > size:
                raise CheckpointError(f"{path}: truncated checkpoint")
            return f.read(n)

        if f.read(4) != _MAGIC:
            raise CheckpointError(f"{path}: not a NRT1 checkpoint")
        while f.tell() < size:
            (name_len,) = struct.unpack("<I", read(4))
            try:
                name = read(name_len).decode("utf-8")
            except UnicodeDecodeError as e:
                raise CheckpointError(f"{path}: bad parameter name") from e
            (rank,) = struct.unpack("<I", read(4))
            shape = struct.unpack(f"<{rank}I", read(4 * rank))
            payload = read(math.prod(shape) * 8)
            out[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    return out


def assign_parameters(params: dict[str, Tensor],
                      arrays: dict[str, np.ndarray]):
    """Copy ``arrays`` into the tensors of ``params`` of the same names.

    Every name, shape and value is checked before the first copy: a
    missing, unexpected, wrongly shaped or non-finite tensor raises
    CheckpointError naming it and leaves ``params`` as they were.
    """
    if missing := sorted(set(params) - set(arrays)):
        raise CheckpointError(f"checkpoint missing parameters: {missing[:5]}")
    if unexpected := sorted(set(arrays) - set(params)):
        raise CheckpointError(f"unexpected parameters in checkpoint: "
                              f"{unexpected[:5]}")
    for name, arr in arrays.items():
        if params[name].data.shape != arr.shape:
            raise CheckpointError(f"shape mismatch for {name!r}: "
                                  f"{params[name].data.shape} vs {arr.shape}")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"non-finite values in {name!r}")
    for name, arr in arrays.items():
        params[name].data = arr.copy()
