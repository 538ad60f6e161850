"""Differentiable operations: conv1d, pooling, dense, activations, losses.

Every op accepts a single sample (e.g. conv1d input of shape (L, C)) or a
leading batch dimension ((B, L, C)); gradients flow through either form.
Plain numpy arrays are wrapped automatically.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor, astensor, node

SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772


def _batched(x: Tensor) -> tuple[np.ndarray, bool]:
    """Return (data with batch dim, had_no_batch_dim) for rank-normalized ops."""
    if x.data.ndim == 2:
        return x.data[None], True
    return x.data, False


def reshape(x, shape) -> Tensor:
    x = astensor(x)
    out_data = x.data.reshape(shape)

    def bwd(g):
        x.accumulate_grad(g.reshape(x.data.shape))

    return node(out_data, (x,), bwd)


def concat(parts, axis: int = -1) -> Tensor:
    """Concatenate tensors along an axis; gradient splits back."""
    parts = [astensor(p) for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    bounds = np.cumsum(sizes)[:-1]

    def bwd(g):
        for p, piece in zip(parts, np.split(g, bounds, axis=axis)):
            p.accumulate_grad(piece)

    return node(out_data, tuple(parts), bwd)


def relu(x) -> Tensor:
    x = astensor(x)
    mask = x.data > 0
    out_data = np.where(mask, x.data, 0)

    def bwd(g):
        x.accumulate_grad(g * mask)

    return node(out_data, (x,), bwd)


def tanh(x) -> Tensor:
    x = astensor(x)
    t = np.tanh(x.data)

    def bwd(g):
        x.accumulate_grad(g * (1 - t * t))

    return node(t, (x,), bwd)


def selu(x) -> Tensor:
    """Self-normalizing activation with the standard lambda/alpha constants."""
    x = astensor(x)
    pos = x.data > 0
    out_data = np.where(pos, SELU_LAMBDA * x.data, SELU_LAMBDA * SELU_ALPHA * np.expm1(x.data))

    def bwd(g):
        slope = np.where(pos, SELU_LAMBDA, SELU_LAMBDA * SELU_ALPHA * np.exp(x.data))
        x.accumulate_grad(g * slope)

    return node(out_data.astype(x.data.dtype, copy=False), (x,), bwd)


_ACTIVATIONS = {"relu": relu, "tanh": tanh, "selu": selu}


def activation(x, kind: str) -> Tensor:
    """Elementwise activation by name: relu, tanh or selu."""
    try:
        return _ACTIVATIONS[kind](x)
    except KeyError:
        raise ValueError(f"unknown activation {kind!r}") from None


def conv1d(x, kernel, bias, padding: str = "valid") -> Tensor:
    """1-D convolution: out[t, f] = bias[f] + sum_{i,c} x[t+i-off, c] k[i, c, f].

    x is (L, C) or (B, L, C); kernel is (k, C, F); bias is (F,). "valid"
    yields length L-k+1; "same" zero-pads with left offset (k-1)//2 and
    keeps length L.
    """
    x, kernel, bias = astensor(x), astensor(kernel), astensor(bias)
    if kernel.data.ndim != 3:
        raise ValueError("kernel must have shape (k, C, F)")
    k, c_in, f = kernel.data.shape
    if bias.data.shape != (f,):
        raise ValueError("bias must have shape (F,)")
    xd, single = _batched(x)
    if xd.ndim != 3 or xd.shape[2] != c_in:
        raise ValueError(f"input channels {xd.shape[-1] if xd.ndim else '?'} do not match kernel ({c_in})")
    length = xd.shape[1]

    if padding == "same":
        left = (k - 1) // 2
        xp = np.pad(xd, ((0, 0), (left, k - 1 - left), (0, 0)))
    elif padding == "valid":
        if k > length:
            raise ValueError(f"kernel size {k} exceeds input length {length}")
        left = 0
        xp = xd
    else:
        raise ValueError("padding must be 'same' or 'valid'")

    win = sliding_window_view(xp, k, axis=1)  # (B, L', C, k)
    out_len = win.shape[1]
    out_data = np.tensordot(win, kernel.data, axes=([3, 2], [0, 1])) + bias.data

    def bwd(g):
        g3 = g[None] if single else g
        bias.accumulate_grad(g3.sum(axis=(0, 1)))
        if kernel.requires_grad:
            dk = np.tensordot(win, g3, axes=([0, 1], [0, 1]))  # (C, k, F)
            kernel.accumulate_grad(dk.transpose(1, 0, 2))
        if x.requires_grad:
            contrib = np.tensordot(g3, kernel.data, axes=([2], [2]))  # (B, L', k, C)
            dxp = np.zeros_like(xp)
            for i in range(k):
                dxp[:, i:i + out_len, :] += contrib[:, :, i, :]
            dx = dxp[:, left:left + length, :]
            x.accumulate_grad(dx[0] if single else dx)

    result = out_data[0] if single else out_data
    return node(result, (x, kernel, bias), bwd)


def maxpool1d(x, pool: int, stride: int) -> Tensor:
    """Windowed channel-wise maxima; output length floor((L-pool)/stride)+1."""
    x = astensor(x)
    xd, single = _batched(x)
    b, length, f = xd.shape
    if pool > length:
        raise ValueError(f"pool size {pool} exceeds input length {length}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    win = sliding_window_view(xd, pool, axis=1)[:, ::stride]  # (B, L', F, pool)
    out_data = win.max(axis=3)
    argmax = win.argmax(axis=3)  # (B, L', F)
    out_len = out_data.shape[1]

    def bwd(g):
        g3 = g[None] if single else g
        dx = np.zeros_like(xd)
        bb, tt, ff = np.ogrid[:b, :out_len, :f]
        np.add.at(dx, (bb, tt * stride + argmax, ff), g3)
        x.accumulate_grad(dx[0] if single else dx)

    result = out_data[0] if single else out_data
    return node(result, (x,), bwd)


def global_maxpool(x) -> Tensor:
    """Channel-wise maximum over the whole sequence."""
    x = astensor(x)
    xd, single = _batched(x)
    b, length, f = xd.shape
    if length == 0:
        raise ValueError("global_maxpool requires a non-empty input")
    out_data = xd.max(axis=1)
    argmax = xd.argmax(axis=1)  # (B, F)

    def bwd(g):
        g2 = g[None] if single else g
        dx = np.zeros_like(xd)
        bb, ff = np.ogrid[:b, :f]
        dx[bb, argmax, ff] = g2
        x.accumulate_grad(dx[0] if single else dx)

    result = out_data[0] if single else out_data
    return node(result, (x,), bwd)


def dense(x, w, b) -> Tensor:
    """Affine map x @ w + b; x is (N,) or (B, N), w is (N, M), b is (M,)."""
    x, w, b = astensor(x), astensor(w), astensor(b)
    if w.data.ndim != 2:
        raise ValueError("weights must have shape (N, M)")
    n, m = w.data.shape
    if b.data.shape != (m,):
        raise ValueError("bias must have shape (M,)")
    single = x.data.ndim == 1
    xd = x.data[None] if single else x.data
    if xd.ndim != 2 or xd.shape[1] != n:
        raise ValueError(f"input width {xd.shape[-1] if xd.ndim else '?'} does not match weights ({n})")
    out_data = xd @ w.data + b.data

    def bwd(g):
        g2 = g[None] if single else g
        if x.requires_grad:
            dx = g2 @ w.data.T
            x.accumulate_grad(dx[0] if single else dx)
        if w.requires_grad:
            w.accumulate_grad(xd.T @ g2)
        b.accumulate_grad(g2.sum(axis=0))

    result = out_data[0] if single else out_data
    return node(result, (x, w, b), bwd)


def embedding_lookup(table, indices) -> Tensor:
    """Row lookup table[indices]; gradients scatter-add into the table."""
    table = astensor(table)
    idx = np.asarray(indices)
    out_data = table.data[idx]

    def bwd(g):
        if table.requires_grad:
            dt = np.zeros_like(table.data)
            np.add.at(dt, idx, g)
            table.accumulate_grad(dt)

    return node(out_data, (table,), bwd)


def dropout(x, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; apply during fitting only."""
    x = astensor(x)
    if rate <= 0:
        return x
    if rate >= 1:
        raise ValueError("dropout rate must be < 1")
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    scale = 1.0 / (1.0 - rate)
    out_data = x.data * keep * scale

    def bwd(g):
        x.accumulate_grad(g * keep * scale)

    return node(out_data, (x,), bwd)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis (plain arrays)."""
    logits = np.asarray(logits)
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_xent(logits, gold) -> tuple[Tensor, np.ndarray]:
    """Mean softmax cross-entropy loss.

    logits is (K,) with an integer gold class, or (B, K) with gold (B,).
    Returns (scalar loss tensor, probabilities as a plain array); the
    gradient wrt logits is (p - onehot(gold)) / B. The loss is log-sum-exp
    minus the gold logit, finite even where p(gold) underflows to 0.
    """
    logits = astensor(logits)
    single = logits.data.ndim == 1
    ld = logits.data[None] if single else logits.data
    y = np.atleast_1d(np.asarray(gold, dtype=np.int64))
    if y.shape != (ld.shape[0],):
        raise ValueError("gold labels do not match the batch size")
    p = softmax(ld)
    rows = np.arange(ld.shape[0])
    z = ld - ld.max(axis=-1, keepdims=True)
    loss_val = np.asarray((np.log(np.exp(z).sum(axis=-1)) - z[rows, y]).mean(), dtype=ld.dtype)

    def bwd(g):
        d = p.copy()
        d[rows, y] -= 1.0
        d *= g / ld.shape[0]
        logits.accumulate_grad(d[0] if single else d)

    loss = node(loss_val, (logits,), bwd)
    return loss, (p[0] if single else p)
