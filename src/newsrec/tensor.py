"""Dense float64 tensors with reverse-mode autodiff on an explicit tape.

Everything in this package that needs gradients is built from the ops in
this module.  Tensors wrap row-major numpy arrays; operations executed
while a ComputationTape is active are recorded and can be replayed in
reverse by ``backward``.  With no active tape, ops are plain numpy
forward computations (used for evaluation).
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np
from scipy.special import erf

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
    "reduce_sum",
    "reduce_mean",
    "reshape",
    "permute",
    "narrow",
    "shift_rows",
    "dropout",
    "gradient_check",
    "save_checkpoint",
    "load_checkpoint",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested op."""


class NumericalError(ArithmeticError):
    """A non-finite value surfaced where finite values are required."""


class CheckpointError(ValueError):
    """A checkpoint file is malformed or does not fit the model."""


class Tensor:
    """A dense float64 array, optionally carrying a gradient."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, check: bool = True):
        arr = np.asarray(data, dtype=np.float64)
        if check and not np.all(np.isfinite(arr)):
            raise NumericalError("tensor initialized with non-finite values")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @classmethod
    def _make(cls, arr: np.ndarray) -> "Tensor":
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = False
        t.grad = None
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

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; constants on either side stay plain arrays
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

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


_TAPE_STACK: list["ComputationTape"] = []


class ComputationTape:
    """Ordered record of ops; backward visits entries once, in reverse."""

    def __init__(self):
        self.entries: list[_Entry] = []
        self._consumed = False

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False

    def backward(self, loss: Tensor, params=None):
        """Populate ``grad`` on every requires_grad tensor reachable from loss.

        ``params`` may list extra tensors that must end up with a gradient
        even if disconnected (they receive exact zeros).  Calling backward
        twice on the same tape is an error.
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
            g_out = grads.pop(id(entry.output), None)
            if g_out is None:
                continue
            in_grads = entry.backward_fn(g_out)
            for inp, g in zip(entry.inputs, in_grads):
                if g is None or not isinstance(inp, Tensor):
                    continue
                acc = grads.get(id(inp))
                grads[id(inp)] = g if acc is None else acc + g
            if entry.output.requires_grad:
                out_g = entry.output.grad
                # intermediate outputs rarely require grad; keep last seen
                entry.output.grad = g_out if out_g is None else out_g + g_out

        seen: set[int] = set()
        for entry in self.entries:
            for inp in entry.inputs:
                if isinstance(inp, Tensor) and inp.requires_grad and id(inp) not in seen:
                    seen.add(id(inp))
                    g = grads.get(id(inp))
                    inp.grad = np.zeros_like(inp.data) if g is None else g
        if params is not None:
            for p in params:
                if p.grad is None:
                    p.grad = np.zeros_like(p.data)


def _tape() -> ComputationTape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _record(inputs, out: Tensor, backward_fn):
    t = _tape()
    if t is not None:
        t.entries.append(_Entry(inputs, out, backward_fn))
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
        return (_unbroadcast(g, ad.shape), _unbroadcast(g, bd.shape))

    return _record((a, b), out, bwd)


def sub(a, b) -> Tensor:
    ad, bd = _data(a), _data(b)
    out = Tensor._make(ad - bd)

    def bwd(g):
        return (_unbroadcast(g, ad.shape), _unbroadcast(-g, bd.shape))

    return _record((a, b), out, bwd)


def mul(a, b) -> Tensor:
    ad, bd = _data(a), _data(b)
    out = Tensor._make(ad * bd)

    def bwd(g):
        return (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape))

    return _record((a, b), out, bwd)


def matmul(a, b) -> Tensor:
    ad, bd = _data(a), _data(b)
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError("matmul operands must have rank >= 2")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {ad.shape} @ {bd.shape}")
    out = Tensor._make(ad @ bd)

    def bwd(g):
        ga = _unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape)
        gb = _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape)
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
    phi = 0.5 * (1.0 + erf(xd * _INV_SQRT2))
    out = Tensor._make(xd * phi)

    def bwd(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * xd * xd)
        return (g * (phi + xd * pdf),)

    return _record((x,), out, bwd)


def tanh(x) -> Tensor:
    y = np.tanh(_data(x))
    out = Tensor._make(y)

    def bwd(g):
        return (g * (1.0 - y * y),)

    return _record((x,), out, bwd)


def sigmoid(x) -> Tensor:
    xd = _data(x)
    y = np.empty_like(xd)
    pos = xd >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    y[~pos] = ex / (1.0 + ex)
    out = Tensor._make(y)

    def bwd(g):
        return (g * y * (1.0 - y),)

    return _record((x,), out, bwd)


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------


def reduce_sum(x, axis=None, keepdims: bool = False) -> Tensor:
    xd = _data(x)
    out = Tensor._make(xd.sum(axis=axis, keepdims=keepdims))

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, xd.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, xd.shape).copy(),)

    return _record((x,), out, bwd)


def reduce_mean(x, axis=None, keepdims: bool = False) -> Tensor:
    xd = _data(x)
    n = xd.size if axis is None else xd.shape[axis]
    return mul(reduce_sum(x, axis=axis, keepdims=keepdims), 1.0 / n)


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


def transpose_last(x) -> Tensor:
    axes = list(range(_data(x).ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return permute(x, axes)


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


def shift_rows(x, offset: int, axis: int = -2) -> Tensor:
    """Shift entries by ``offset`` along ``axis``, zero-filling the gap."""
    xd = _data(x)
    out_arr = np.zeros_like(xd)
    n = xd.shape[axis]
    if abs(offset) < n:
        src = [slice(None)] * xd.ndim
        dst = [slice(None)] * xd.ndim
        if offset >= 0:
            dst[axis] = slice(offset, n)
            src[axis] = slice(0, n - offset)
        else:
            dst[axis] = slice(0, n + offset)
            src[axis] = slice(-offset, n)
        out_arr[tuple(dst)] = xd[tuple(src)]
        src, dst = tuple(src), tuple(dst)
    else:
        src = dst = None
    out = Tensor._make(out_arr)

    def bwd(g):
        gx = np.zeros_like(xd)
        if src is not None:
            gx[src] = g[dst]
        return (gx,)

    return _record((x,), out, bwd)


# ---------------------------------------------------------------------------
# softmax family and normalization
# ---------------------------------------------------------------------------


def softmax(x, axis: int = -1) -> Tensor:
    xd = _data(x)
    if xd.shape == () or xd.shape[axis] == 0:
        raise ShapeError("softmax over an empty axis")
    z = xd - xd.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor._make(y)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _record((x,), out, bwd)


def log_softmax(x, axis: int = -1) -> Tensor:
    xd = _data(x)
    if xd.shape == () or xd.shape[axis] == 0:
        raise ShapeError("log_softmax over an empty axis")
    z = xd - xd.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    y = z - lse
    sm = np.exp(y)
    out = Tensor._make(y)

    def bwd(g):
        return (g - sm * g.sum(axis=axis, keepdims=True),)

    return _record((x,), out, bwd)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    xd, gd, bd = _data(x), _data(gain), _data(bias)
    d = xd.shape[-1]
    if d < 2:
        raise ShapeError("layer_norm needs at least 2 features")
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor._make(xhat * gd + bd)

    def bwd(g):
        sum_axes = tuple(range(g.ndim - 1))
        g_gain = (g * xhat).sum(axis=sum_axes)
        g_bias = g.sum(axis=sum_axes)
        gy = g * gd
        gx = inv * (gy - gy.mean(axis=-1, keepdims=True)
                    - xhat * (gy * xhat).mean(axis=-1, keepdims=True))
        return (gx, g_gain, g_bias)

    return _record((x, gain, bias), out, bwd)


def embedding_lookup(table, ids) -> Tensor:
    """Gather rows of a 2-D table; backward scatter-adds into the table."""
    td = _data(table)
    if td.ndim != 2:
        raise ShapeError("embedding table must be 2-D")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= td.shape[0]):
        raise IndexError(f"id out of range [0, {td.shape[0]})")
    out = Tensor._make(td[idx])

    def bwd(g):
        gt = np.zeros_like(td)
        np.add.at(gt, idx, g)
        return (gt,)

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


class Adam:
    """Adam with bias correction over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], learning_rate: float = 1e-5,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        self.params = params
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, grads: dict[str, np.ndarray]):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
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
            p.data = p.data - self.learning_rate * (m / c1) / (np.sqrt(v / c2) + self.epsilon)


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

    for p in params.values():
        p.grad = None
    with ComputationTape() as tape:
        loss = model_fn()
        tape.backward(loss, params=list(params.values()))
    analytic = {k: p.grad.copy() for k, p in params.items()}

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
    with open(path, "wb") as f:
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

    Raises CheckpointError on a bad magic number and on a file that ends
    inside a record.
    """
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
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
