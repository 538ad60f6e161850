"""Differentiable operations: conv1d, pooling, dense, activations, losses.

conv1d, maxpool1d, global_maxpool, char_branch, dense and softmax_xent take
batches only: the leading dimension is the batch ((B, L, C) sequences,
(B, L) character ids, (B, N) rows, (B, K) logits), and an input of another
rank raises ValueError. maxpool1d pools non-overlapping windows.
char_branch is the char CNN's lookup, "valid" conv1d, tanh and global max
fused into one op; tanh, global_maxpool and conv1d's "valid" padding are
its unfused composition, which the tests compare it with. Plain numpy
arrays are wrapped automatically.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor, astensor, node

SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772
# Elements per char_branch block of whole batch rows: 3 rows at L' = 277, F = 128.
# 1-row blocks lose to the GIL when two members run in two threads.
ROW_BLOCK = 131072


def _batch_of(a: np.ndarray, rank: int, shape: str) -> np.ndarray:
    """a, checked to have the rank of a batch of the given shape, e.g. 3 and "(B, L, C)"."""
    if a.ndim != rank:
        raise ValueError(f"expected a batch of rank {rank} {shape}, got shape {a.shape}")
    return a


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
    neg = np.where(pos, 0, x.data)  # exp(large x) would overflow, though dropped
    out_data = np.where(pos, SELU_LAMBDA * x.data, SELU_LAMBDA * SELU_ALPHA * np.expm1(neg))

    def bwd(g):
        slope = np.where(pos, SELU_LAMBDA, SELU_LAMBDA * SELU_ALPHA * np.exp(neg))
        x.accumulate_grad(g * slope)

    return node(out_data.astype(x.data.dtype, copy=False), (x,), bwd)


def conv1d(x, kernel, bias, padding: str = "valid") -> Tensor:
    """1-D convolution: out[b, t, f] = bias[f] + sum_{i,c} x[b, t+i-off, c] k[i, c, f].

    x is (B, L, C); kernel is (k, C, F); bias is (F,). "valid" yields
    length L-k+1; "same" zero-pads with left offset (k-1)//2 and keeps
    length L.
    """
    x, kernel, bias = astensor(x), astensor(kernel), astensor(bias)
    if kernel.data.ndim != 3:
        raise ValueError("kernel must have shape (k, C, F)")
    k, c_in, f = kernel.data.shape
    if bias.data.shape != (f,):
        raise ValueError("bias must have shape (F,)")
    xd = _batch_of(x.data, 3, "(B, L, C)")
    if xd.shape[2] != c_in:
        raise ValueError(f"input channels {xd.shape[2]} do not match kernel ({c_in})")
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
        bias.accumulate_grad(g.sum(axis=(0, 1)))
        if kernel.requires_grad:
            dk = np.tensordot(win, g, axes=([0, 1], [0, 1]))  # (C, k, F)
            kernel.accumulate_grad(dk.transpose(1, 0, 2))
        if x.requires_grad:
            contrib = np.tensordot(g, kernel.data, axes=([2], [2]))  # (B, L', k, C)
            dxp = np.zeros_like(xp)
            for i in range(k):
                dxp[:, i:i + out_len, :] += contrib[:, :, i, :]
            x.accumulate_grad(dxp[:, left:left + length, :])

    return node(out_data, (x, kernel, bias), bwd)


def maxpool1d(x, pool: int) -> Tensor:
    """Channel-wise maxima of non-overlapping windows of x (B, L, F).

    Output length is L // pool; trailing steps that fill no window are dropped.
    The argmax the backward needs is taken only when x requires a gradient.
    """
    x = astensor(x)
    xd = _batch_of(x.data, 3, "(B, L, F)")
    b, length, f = xd.shape
    if not 0 < pool <= length:
        raise ValueError(f"pool size {pool} must be in [1, {length}] (the input length)")
    out_len = length // pool
    win = xd[:, :out_len * pool].reshape(b, out_len, pool, f)
    out_data = win.max(axis=2)
    argmax = win.argmax(axis=2) if x.requires_grad else None  # (B, L', F)

    def bwd(g):
        dx = np.zeros_like(xd)
        bb, tt, ff = np.ogrid[:b, :out_len, :f]
        dx[bb, tt * pool + argmax, ff] = g  # windows are disjoint: no index repeats
        x.accumulate_grad(dx)

    return node(out_data, (x,), bwd)


def global_maxpool(x) -> Tensor:
    """Channel-wise maximum over the whole sequence of x (B, L, F)."""
    x = astensor(x)
    xd = _batch_of(x.data, 3, "(B, L, F)")
    b, length, f = xd.shape
    if length == 0:
        raise ValueError("global_maxpool requires a non-empty input")
    out_data = xd.max(axis=1)
    argmax = xd.argmax(axis=1)  # (B, F)

    def bwd(g):
        dx = np.zeros_like(xd)
        bb, ff = np.ogrid[:b, :f]
        dx[bb, argmax, ff] = g
        x.accumulate_grad(dx)

    return node(out_data, (x,), bwd)


def char_branch(table, idx, kernel, bias) -> Tensor:
    """One char-CNN branch as a single op: global max over t of tanh(z[b, t]).

    z[b, t] = bias + sum_i table[idx[b, t+i]] @ kernel[i], which is
    global_maxpool(tanh(conv1d(embedding_lookup(table, idx), kernel, bias,
    "valid"))). table is (V, C), idx is (B, L) row ids, kernel is (k, C, F)
    and bias is (F,), ids in [0, V); the output is (B, F). The forward sums
    rows of one (V, F) product table per tap, T_i = table @ kernel[i], for
    ROW_BLOCK elements of whole batch rows at a time, and keeps h, idx and,
    if an input requires a gradient, the argmax t* (ties to the first step,
    as in global_maxpool). The backward reaches only t*: per tap, the
    gradient at t* summed by row id into a (V, F) table S_i gives
    d kernel[i] = table^T S_i, and d table = sum_i S_i kernel[i]^T.
    """
    table, kernel, bias = astensor(table), astensor(kernel), astensor(bias)
    idx = _batch_of(np.asarray(idx), 2, "(B, L)")
    if table.data.ndim != 2:
        raise ValueError("table must have shape (V, C)")
    if kernel.data.ndim != 3:
        raise ValueError("kernel must have shape (k, C, F)")
    k, c_in, f = kernel.data.shape
    if bias.data.shape != (f,):
        raise ValueError("bias must have shape (F,)")
    v, width = table.data.shape
    if width != c_in:
        raise ValueError(f"table width {width} does not match kernel ({c_in})")
    b, length = idx.shape
    if k > length:
        raise ValueError(f"kernel size {k} exceeds input length {length}")
    # Checked here so take can run with mode="clip", which writes straight into out.
    if idx.size and not 0 <= idx.min() <= idx.max() < v:
        raise IndexError(f"character ids must lie in [0, {v}), the table's rows")
    out_len = length - k + 1

    taps = table.data @ kernel.data  # (k, V, F): T_i = E @ K[i]
    per_block = max(1, ROW_BLOCK // (out_len * f))
    z, tap = np.empty((2, min(per_block, b), out_len, f), taps.dtype)
    out_data = np.empty((b, f), taps.dtype)
    needs_grad = table.requires_grad or kernel.requires_grad or bias.requires_grad
    t_star = np.empty((b, f), np.intp) if needs_grad else None
    for lo in range(0, b, per_block):
        ids, hi = idx[lo:lo + per_block], min(lo + per_block, b)
        zb, tb = z[:hi - lo], tap[:hi - lo]  # (rows, L', F)
        np.take(taps[0], ids[:, :out_len], axis=0, out=zb, mode="clip")
        for i in range(1, k):
            zb += np.take(taps[i], ids[:, i:i + out_len], axis=0, out=tb, mode="clip")
        zb += bias.data
        np.tanh(zb, out=zb)
        if needs_grad:
            t = zb.argmax(axis=1, out=t_star[lo:hi])
            out_data[lo:hi] = np.take_along_axis(zb, t[:, None], axis=1)[:, 0]
        else:
            zb.max(axis=1, out=out_data[lo:hi])

    def bwd(g):
        gz = g * (1 - out_data * out_data)  # (B, F)
        bias.accumulate_grad(gz.sum(axis=0))
        # rows[i, b, f] = idx[b, t*[b, f] + i]; key = (i, row, f) in a (k, V, F) table.
        steps = t_star[None] + np.arange(k)[:, None, None]
        rows = idx[np.arange(b)[None, :, None], steps]
        keys = (np.arange(k)[:, None, None] * v + rows) * f + np.arange(f)
        weights = np.broadcast_to(gz, keys.shape)
        s = np.bincount(keys.ravel(), weights.ravel(), minlength=k * v * f)
        s = s.reshape(k, v, f).astype(table.data.dtype, copy=False)
        if kernel.requires_grad:
            kernel.accumulate_grad(table.data.T @ s)
        if table.requires_grad:
            table.accumulate_grad(np.einsum("kvf,kcf->vc", s, kernel.data))

    return node(out_data, (table, kernel, bias), bwd)


def dense(x, w, b) -> Tensor:
    """Affine map x @ w + b; x is (B, N), w is (N, M), b is (M,)."""
    x, w, b = astensor(x), astensor(w), astensor(b)
    if w.data.ndim != 2:
        raise ValueError("weights must have shape (N, M)")
    n, m = w.data.shape
    if b.data.shape != (m,):
        raise ValueError("bias must have shape (M,)")
    xd = _batch_of(x.data, 2, "(B, N)")
    if xd.shape[1] != n:
        raise ValueError(f"input width {xd.shape[1]} does not match weights ({n})")
    out_data = xd @ w.data + b.data

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g @ w.data.T)
        if w.requires_grad:
            w.accumulate_grad(xd.T @ g)
        b.accumulate_grad(g.sum(axis=0))

    return node(out_data, (x, w, b), bwd)


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
    """Mean softmax cross-entropy loss of logits (B, K) against gold classes (B,).

    Returns (scalar loss tensor, probabilities as a plain array); the
    gradient wrt logits is (p - onehot(gold)) / B. The loss is log-sum-exp
    minus the gold logit, finite even where p(gold) underflows to 0.
    """
    logits = astensor(logits)
    ld = _batch_of(logits.data, 2, "(B, K)")
    y = np.asarray(gold, dtype=np.int64)
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
        logits.accumulate_grad(d)

    return node(loss_val, (logits,), bwd), p
