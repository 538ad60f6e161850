"""Shared oracles and fixtures for the test suite.

The reference implementations here stay deliberately naive (nested loops,
exact arithmetic) and independent of the library code paths they check.
fixture_context loads the synthetic fixture files the way a run does.
"""

import functools
import math
import tempfile

import numpy as np

from ssc import nn, synth
from ssc.baselines import SparseRows, Tree
from ssc.config import ExperimentConfig
from ssc.embeddings import MAX_TOKENS, oov_vector
from ssc.experiment import build_feature_context
from ssc.features import N_CLUSTERS


@functools.cache
def _fixture_files(embed_dim):
    """synth.write_fixture_files at this width and seed 0, once per width: (directory, paths).

    The directory is kept alive here and removed when the interpreter exits.
    """
    directory = tempfile.TemporaryDirectory(prefix=f"ssc-fixtures-{embed_dim}-")
    paths = synth.write_fixture_files(directory.name, embed_dim=embed_dim, seed=0)
    return directory, {key: str(path) for key, path in paths.items()}


def fixture_context(embed_dim):
    """A fresh FeatureContext, loaded by build_feature_context from the fixture files."""
    _, paths = _fixture_files(embed_dim)
    return build_feature_context(ExperimentConfig(**paths))


def aux_vector_oracle(tokens, abuse, slang, clusters):
    """features.aux_vector in three steps: the four lexicon entries, then the
    150 cluster bits, then their concatenation."""
    abuse_count = sum(1 for t in tokens if t in abuse)
    slang_count = sum(1 for t in tokens if t in slang)
    lexicon = np.array(
        [float(abuse_count > 0), float(abuse_count), float(slang_count > 0), float(slang_count)])
    cluster = np.zeros(N_CLUSTERS)
    for tok in tokens:
        cid = clusters.get(tok)
        if cid is not None:
            cluster[cid] = 1.0
    return np.concatenate([lexicon, cluster])


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


def adam_oracle(opt):
    """One nn.Adam step of opt as whole-array expressions, each building fresh
    temporaries the size of the parameter; a missing gradient reads as 0.0."""
    opt.t += 1
    bc1 = 1.0 - nn.optim.BETA1 ** opt.t
    bc2 = 1.0 - nn.optim.BETA2 ** opt.t
    for name, p in opt.params.items():
        g = p.grad if p.grad is not None else 0.0
        m = opt.m[name]
        v = opt.v[name]
        m *= nn.optim.BETA1
        m += (1.0 - nn.optim.BETA1) * g
        v *= nn.optim.BETA2
        v += (1.0 - nn.optim.BETA2) * np.square(g)
        p.data -= opt.lr * (m / bc1) / (np.sqrt(v / bc2) + nn.optim.EPS)


def char_branch_composition(table, idx, kernel, bias):
    """nn.char_branch as the unfused engine ops it replaces, each checked on its own
    by the suite: global_maxpool(tanh(conv1d(embedding_lookup(...), "valid")))."""
    emb = nn.embedding_lookup(table, idx)
    return nn.global_maxpool(nn.tanh(nn.conv1d(emb, kernel, bias, padding="valid")))


def embed_words(tokens, table, dtype=np.float64):
    """A text's (40, dim) word matrix, row by row: the table vector of each of
    the first 40 tokens, else its out-of-vocabulary vector; zero rows after."""
    dim = len(next(iter(table.values())))
    out = np.zeros((MAX_TOKENS, dim), dtype=dtype)
    for i, tok in enumerate(tokens[:MAX_TOKENS]):
        vec = table.get(tok)
        if vec is None:
            vec = oov_vector(tok, dim)
        out[i] = vec
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


# The kink filter keeps a coordinate only when its estimates at h and h/8
# agree this closely (relative): ten times below the 1e-4 the checks assert.
KINK_TOLERANCE = 1e-5


def central_difference(loss_fn, arrays, step=1e-5, max_coords=None, rng=None,
                       kink_filter=False):
    """Numeric gradient of loss_fn() wrt each array, edited in place.

    Returns a list of gradient arrays aligned with `arrays`. When max_coords
    is set, only that many randomly chosen coordinates per array are
    evaluated and the rest are NaN (caller compares on the sampled set).

    With kink_filter, each coordinate is measured at two step sizes and
    dropped (NaN) when the two estimates differ by more than KINK_TOLERANCE
    relative, which flags coordinates whose finite-difference window
    straddles an activation kink (relu/selu at 0, pooling argmax switches).
    A kink between h/8 and h from x leaves the h/8 estimate exact, so the
    difference is the whole error of the kept h estimate. The filter depends
    only on the loss function, so it cannot hide a wrong analytic gradient.
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
                if abs(estimate - check) / scale > KINK_TOLERANCE:
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

def sparse(x):
    """The SparseRows of a dense (N, D) matrix: its nonzeros, row by row."""
    x = np.asarray(x, dtype=np.float64)
    rows, cols = np.nonzero(x)
    return SparseRows.from_entries(rows, cols, x[rows, cols], *x.shape)


def dense(rows):
    """The dense (N, width) matrix of SparseRows, entry by entry."""
    out = np.zeros(rows.shape)
    for i in range(len(rows)):
        for at in range(rows.indptr[i], rows.indptr[i + 1]):
            out[i, rows.indices[at]] = rows.data[at]
    return out


def nb_train_oracle(docs, labels, bootstrap_seed=None):
    """train_nb's model by nested loops: each document's class, then each of its tokens
    counted one at a time. Same bootstrap draw; terms numbered by first occurrence."""
    docs, labels = list(docs), list(labels)
    if bootstrap_seed is not None:
        pick = np.random.default_rng(bootstrap_seed).integers(0, len(docs), size=len(docs))
        docs = [docs[i] for i in pick]
        labels = [labels[i] for i in pick]
    if len(set(labels)) < 2:
        raise ValueError("training set contains a single class")
    vocab = {}
    for doc in docs:
        for tok in doc:
            vocab.setdefault(tok, len(vocab))
    v = len(vocab)
    term_counts = np.zeros((2, v))
    class_counts = np.zeros(2)
    for doc, label in zip(docs, labels):
        class_counts[label] += 1
        for tok in doc:
            term_counts[label, vocab[tok]] += 1
    log_prior = np.log(class_counts / class_counts.sum())
    log_likelihood = np.log((term_counts + 1.0) /
                            (term_counts.sum(axis=1, keepdims=True) + v))
    return vocab, log_prior, log_likelihood

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


def svm_decay_oracle(x, y, lam=1e-4, epochs=10, seed=0):
    """train_svm's weights by the textbook loop: every step first scales the
    whole w by 1 - eta*lam, then adds eta*y*x if the decayed w broke the margin.

    Same seeded row order; x is SparseRows, each row read over its nonzeros.
    """
    sign = np.where(np.asarray(y) == 1, 1.0, -1.0)
    rng = np.random.default_rng(seed)
    w = np.zeros(x.width)
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(len(x)):
            t += 1
            eta = 1.0 / (lam * t)
            w *= 1.0 - eta * lam
            lo, hi = x.indptr[i], x.indptr[i + 1]
            cols, vals = x.indices[lo:hi], x.data[lo:hi]
            if sign[i] * (w[cols] @ vals) < 1.0:
                w[cols] += eta * sign[i] * vals
    return w


def svm_predict_oracle(model, row):
    score = float(model.weights @ row)
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


def best_split_oracle(x, rows, y, feature_ids, best=None):
    """The forest's split search one candidate column at a time: (feature,
    threshold, weighted impurity) of the best split, else `best`.

    Thresholds are midpoints between consecutive distinct sorted values;
    impurities come from vectorized prefix class counts. Ties keep the
    earliest candidate feature. `best` starts the search with the split of
    earlier candidates, so a search over consecutive slices of the
    candidates carries one split through them.
    """
    n = len(y)
    for f in feature_ids:
        values = x[rows, f]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        sy = y[order]
        boundaries = np.nonzero(sv[:-1] != sv[1:])[0]
        if boundaries.size == 0:
            continue
        ones = np.cumsum(sy)
        total_ones = ones[-1]
        n_left = boundaries + 1.0
        l1 = ones[boundaries].astype(np.float64)
        l0 = n_left - l1
        n_right = n - n_left
        r1 = total_ones - l1
        r0 = n_right - r1
        gini_left = 1.0 - (l0 / n_left) ** 2 - (l1 / n_left) ** 2
        gini_right = 1.0 - (r0 / n_right) ** 2 - (r1 / n_right) ** 2
        score = (n_left * gini_left + n_right * gini_right) / n
        j = int(np.argmin(score))
        if best is None or score[j] < best[2] - 1e-15:
            b = boundaries[j]
            best = (f, (sv[b] + sv[b + 1]) / 2.0, float(score[j]))
    return best


def block_split_oracle(x, rows, y, feature_ids, best=None):
    """best_split_oracle over a dense x, its candidate columns scored as one block.

    Constant columns dropped, one stable sort down the rows, prefix class
    counts by cumsum, and only the boundaries between consecutive distinct
    sorted values scored. Then, in candidate order, a column's first best
    boundary replaces `best` only when lower by more than 1e-15.
    """
    block = x[np.ix_(rows, feature_ids)]
    varies = (block[1:] != block[0]).any(axis=0)
    if not varies.any():
        return best
    ids, block = np.asarray(feature_ids)[varies], block[:, varies]
    order = np.argsort(block, axis=0, kind="stable")
    sv = np.take_along_axis(block, order, axis=0)
    ones = np.cumsum(y[order], axis=0)
    col, pos = np.nonzero((sv[:-1] != sv[1:]).T)  # boundaries, column by column
    n = len(y)
    n_left = pos + 1.0
    l1 = ones[pos, col].astype(np.float64)
    l0 = n_left - l1
    n_right = n - n_left
    r1 = ones[-1, col] - l1
    r0 = n_right - r1
    gini_left = 1.0 - (l0 / n_left) ** 2 - (l1 / n_left) ** 2
    gini_right = 1.0 - (r0 / n_right) ** 2 - (r1 / n_right) ** 2
    score = (n_left * gini_left + n_right * gini_right) / n
    by_col = np.lexsort((score, col))  # stable: equal scores stay in position order
    firsts = by_col[np.r_[True, col[by_col[1:]] != col[by_col[:-1]]]]  # each column's best
    for i in firsts.tolist():
        c, b, s = col[i], pos[i], float(score[i])
        if best is None or s < best[2] - 1e-15:
            best = (ids[c], (sv[b, c] + sv[b + 1, c]) / 2.0, s)
    return best


def _grow_oracle(x, rows, y, rng, max_depth, n_candidates, nodes, depth, split):
    counts = np.bincount(y, minlength=2).astype(np.float64)
    node_id = len(nodes["feature"])
    for key, val in (("feature", -1), ("threshold", 0.0), ("left", -1), ("right", -1)):
        nodes[key].append(val)
    nodes["counts"].append(counts)
    if counts[0] == 0 or counts[1] == 0 or len(y) < 2 or depth >= max_depth:
        return node_id
    n_features = x.shape[1]
    cand = rng.permutation(n_features)
    best = split(x, rows, y, cand[:n_candidates])
    if best is None:  # fall back to the rest, n_candidates columns at a time
        for start in range(n_candidates, n_features, n_candidates):
            best = split(x, rows, y, cand[start:start + n_candidates], best)
    if best is None:
        return node_id
    f, thr, _ = best
    mask = x[rows, f] <= thr
    nodes["feature"][node_id] = f
    nodes["threshold"][node_id] = thr
    nodes["left"][node_id] = _grow_oracle(x, rows[mask], y[mask], rng, max_depth,
                                          n_candidates, nodes, depth + 1, split)
    nodes["right"][node_id] = _grow_oracle(x, rows[~mask], y[~mask], rng, max_depth,
                                           n_candidates, nodes, depth + 1, split)
    return node_id


def forest_oracle(x, y, trees, max_depth, seed, split=block_split_oracle):
    """train_rf's forest grown on the dense x, split searches by `split`.

    Same bootstrap draws and candidate permutations; a node with no split
    among its candidates searches the rest n_candidates columns at a time.
    """
    n, d = x.shape
    n_candidates = max(1, math.isqrt(d))
    forest = []
    for i in range(trees):
        rng = np.random.default_rng([seed, i])
        pick = rng.integers(0, n, size=n)
        nodes = {"feature": [], "threshold": [], "left": [], "right": [], "counts": []}
        _grow_oracle(x, pick, y[pick], rng, max_depth, n_candidates, nodes, 0, split)
        forest.append(Tree(np.array(nodes["feature"], dtype=np.int64),
                           np.array(nodes["threshold"], dtype=np.float64),
                           np.array(nodes["left"], dtype=np.int64),
                           np.array(nodes["right"], dtype=np.int64),
                           np.stack(nodes["counts"])))
    return forest


def nb_predict_oracle(model, tokens):
    """Log posterior summed token by token from the prior; unknown tokens skipped."""
    log_post = model.log_prior.copy()
    for tok in tokens:
        if tok in model.vocab:
            log_post = log_post + model.log_likelihood[:, model.vocab[tok]]
    post = np.exp(log_post - log_post.max())
    post /= post.sum()
    return int(np.argmax(post)), float(post[1])


def svm_objective(model, x, y, lam):
    """lam/2 ||w||^2 plus the mean hinge loss on (x, y), one row at a time."""
    hinge = 0.0
    for row, label in zip(x, y):
        sign = 1.0 if label == 1 else -1.0
        margin = sign * float(model.weights @ row)
        hinge += max(0.0, 1.0 - margin)
    return 0.5 * lam * float(model.weights @ model.weights) + hinge / len(y)


def gini(counts):
    """Gini impurity 1 - sum_c p_c^2 of a class-count vector; 0 for no samples."""
    total = sum(counts)
    if total == 0:
        return 0.0
    return 1.0 - sum((c / total) ** 2 for c in counts)


# ---------------------------------------------------------------------------
# Ensemble vote, one example at a time
# ---------------------------------------------------------------------------

def vote_oracle(votes, probs):
    """Strict majority of one example's binary votes.

    A tie goes positive only when the mean positive probability is
    strictly above 0.5.
    """
    positive = sum(1 for v in votes if v == 1)
    negative = len(votes) - positive
    if positive != negative:
        return int(positive > negative)
    return int(sum(probs) / len(probs) > 0.5)
