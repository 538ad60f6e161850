"""Shared oracles for the test suite.

The reference implementations here stay deliberately naive (nested loops,
exact arithmetic) and independent of the library code paths they check.
"""

import math

import numpy as np


def conv1d_oracle(x, kernel, bias, padding="valid"):
    """Triple-nested-loop direct summation; x (L, C), kernel (k, C, F)."""
    k, c, f = kernel.shape
    if padding == "same":
        left = (k - 1) // 2
        x = np.pad(x, ((left, k - 1 - left), (0, 0)))
    out_len = x.shape[0] - k + 1
    out = np.zeros((out_len, f))
    for t in range(out_len):
        for j in range(f):
            acc = bias[j]
            for i in range(k):
                for cc in range(c):
                    acc += x[t + i, cc] * kernel[i, cc, j]
            out[t, j] = acc
    return out


def maxpool1d_oracle(x, pool, stride):
    """Window scan; x (L, F)."""
    length, f = x.shape
    out_len = (length - pool) // stride + 1
    out = np.zeros((out_len, f))
    for t in range(out_len):
        for j in range(f):
            out[t, j] = max(x[t * stride + i, j] for i in range(pool))
    return out


def central_difference(loss_fn, arrays, step=1e-5, max_coords=None, rng=None,
                       kink_filter=False):
    """Numeric gradient of loss_fn() wrt each array, edited in place.

    Returns a list of gradient arrays aligned with `arrays`. When max_coords
    is set, only that many randomly chosen coordinates per array are
    evaluated and the rest are NaN (caller compares on the sampled set).

    With kink_filter, each coordinate is measured at two step sizes and
    dropped (NaN) when the two estimates disagree, which flags coordinates
    whose finite-difference window straddles an activation kink (relu/selu
    at 0, pooling argmax ties). The filter depends only on the loss
    function, so it cannot hide a wrong analytic gradient.
    """
    grads = []
    for arr in arrays:
        flat = arr.reshape(-1)
        grad = np.full(flat.shape, np.nan)
        if max_coords is not None and flat.size > max_coords:
            coords = rng.choice(flat.size, size=max_coords, replace=False)
        else:
            coords = range(flat.size)

        def fd(i, h):
            original = flat[i]
            flat[i] = original + h
            up = loss_fn()
            flat[i] = original - h
            down = loss_fn()
            flat[i] = original
            return (up - down) / (2 * h)

        for i in coords:
            estimate = fd(i, step)
            if kink_filter:
                check = fd(i, step / 8)
                scale = max(abs(estimate), abs(check), 1e-6)
                if abs(estimate - check) / scale > 1e-3:
                    continue
            grad[i] = estimate
        grads.append(grad.reshape(arr.shape))
    return grads


def max_relative_error(analytic, numeric):
    """Max relative error over the coordinates where numeric is defined."""
    mask = ~np.isnan(numeric)
    a = analytic[mask]
    n = numeric[mask]
    denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


# ---------------------------------------------------------------------------
# Classical members, one example at a time
# ---------------------------------------------------------------------------

def tfidf_row_oracle(tokens, vocab, idf, aux):
    """One feature row from a per-example dict TF-IDF, densified entry by entry."""
    counts = {}
    for tok in tokens:
        if tok in vocab:
            counts[vocab[tok]] = counts.get(vocab[tok], 0) + 1
    weights = {idx: tf * idf[idx] for idx, tf in counts.items()}
    norm = math.sqrt(sum(v * v for v in weights.values()))
    if norm > 0:
        weights = {idx: v / norm for idx, v in weights.items()}
    out = np.zeros(len(vocab) + len(aux))
    for idx, val in weights.items():
        out[idx] = val
    out[len(vocab):] = np.asarray(aux, dtype=np.float64)
    return out


def platt_oracle(score, a, b):
    """Scalar Platt sigmoid 1 / (1 + exp(a * score + b))."""
    z = a * score + b
    if z >= 0:
        e = math.exp(-z)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(z))


def svm_predict_oracle(model, row):
    score = float(model.weights @ row + model.bias)
    return int(score > 0), platt_oracle(score, model.platt_a, model.platt_b)


def tree_vote_oracle(tree, row):
    """Walk one row from the root to its leaf."""
    node = 0
    while tree.left[node] != -1:
        go_left = row[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    counts = tree.counts[node]
    return int(counts[1] > counts[0])


def rf_predict_oracle(model, row):
    votes = sum(tree_vote_oracle(t, row) for t in model.trees)
    p_pos = votes / len(model.trees)
    return int(p_pos > 0.5), p_pos


def nb_predict_oracle(model, tokens):
    """Log posterior summed token by token from the prior; unknown tokens skipped."""
    log_post = model.log_prior.copy()
    for tok in tokens:
        if tok in model.vocab:
            log_post = log_post + model.log_likelihood[:, model.vocab[tok]]
    post = np.exp(log_post - log_post.max())
    post /= post.sum()
    return int(np.argmax(post)), float(post[1])
