"""Classical baselines: multinomial Naive Bayes, linear SVM with Platt
scaling, random forest, TF-IDF vectorization, and the annotation pre-filter.

All trainers are deterministic under their seeds. SVM and random forest
read only the CSR feature rows of bow_features (SparseRows; tfidf_features
also fits the vectorizer), Naive Bayes the token lists, counted through the
same token-to-column map (_token_columns) as the TF-IDF rows; train_svm fits
Platt scaling too. Each classical stage does work in proportion to the
nonzeros: an SVM step reads one row's nonzeros, and a forest node scores all
its candidate columns at once over their nonzeros at the node, in a few
numpy calls (_best_split). Each predict takes N rows and returns, like the
CNN models, (int64 classes, float64 positive-class probabilities).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence, Sized

import numpy as np

from .corpus import Dataset
from .encoding import EncodedSet
from .features import AUX_DIM, TokenSeq


# ---------------------------------------------------------------------------
# Sparse feature rows
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SparseRows:
    """N rows of width columns in CSR form: row i holds data[indptr[i]:indptr[i+1]]
    at the increasing columns indices[indptr[i]:indptr[i+1]], and zeros elsewhere."""

    indptr: np.ndarray   # (N + 1,) int64
    indices: np.ndarray  # (nnz,) int64
    data: np.ndarray     # (nnz,) float64, no zero stored
    width: int

    def __len__(self) -> int:
        return len(self.indptr) - 1

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), self.width

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes

    @classmethod
    def from_entries(cls, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                     n: int, width: int) -> "SparseRows":
        """The rows of nonzero entries (rows, cols, vals), given in (row, column) order."""
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(indptr, cols.astype(np.int64), vals.astype(np.float64), width)

    def row_ids(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """x @ w, each row summed over its nonzeros in column order."""
        return np.bincount(self.row_ids(), self.data * w[self.indices], len(self))

    def transpose(self) -> "SparseRows":
        """The columns as rows (CSC), each listing its rows in increasing order."""
        order = np.argsort(self.indices, kind="stable")
        return SparseRows.from_entries(self.indices[order], self.row_ids()[order],
                                       self.data[order], self.width, len(self))


def _entries(indptr: np.ndarray, which: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, at): the positions of the stored entries of rows `which`, row after
    row, and the index into `which` of the row each belongs to."""
    starts = indptr[which]
    lens = indptr[which + 1] - starts
    owner = np.repeat(np.arange(len(which)), lens)
    return owner, np.arange(lens.sum()) + (starts - (np.cumsum(lens) - lens))[owner]


# ---------------------------------------------------------------------------
# TF-IDF vectorization
# ---------------------------------------------------------------------------

def fit_tfidf(docs: Sequence[TokenSeq]) -> tuple[dict[str, int], np.ndarray]:
    """Fit (vocab, idf) on training documents only.

    idf = log((N+1)/(df+1)) + 1, so a term present in every document gets
    weight factor exactly 1. Terms are numbered in order of first occurrence,
    so the columns do not depend on Python's per-process string hashing.
    """
    if not docs:
        raise ValueError("cannot fit a vocabulary on zero documents")
    vocab: dict[str, int] = {}
    df_counts: list[int] = []
    for doc in docs:
        for term in dict.fromkeys(doc):
            idx = vocab.setdefault(term, len(vocab))
            if idx == len(df_counts):
                df_counts.append(0)
            df_counts[idx] += 1
    n = len(docs)
    idf = np.log((n + 1) / (np.asarray(df_counts, dtype=np.float64) + 1)) + 1.0
    return vocab, idf


# Nothing here calls vectorize or dense_matrix: they stay as the dense reference
# that bow_features is tested against, and bench/tracing.py wraps them by name.
def vectorize(tokens: TokenSeq, vocab: dict[str, int], idf: np.ndarray) -> dict[int, float]:
    """TF-IDF weights of one document by column, L2-normalized.

    Tokens outside the fitted vocabulary are ignored.
    """
    counts: dict[int, int] = {}
    for tok in tokens:
        idx = vocab.get(tok)
        if idx is not None:
            counts[idx] = counts.get(idx, 0) + 1
    weights = {idx: tf * idf[idx] for idx, tf in counts.items()}
    norm = math.sqrt(sum(v * v for v in weights.values()))
    if norm > 0:
        weights = {idx: v / norm for idx, v in weights.items()}
    return weights


def dense_matrix(parts: Sequence[dict[int, float]], aux: np.ndarray,
                 vocab_size: int) -> np.ndarray:
    """(N, vocab_size + AUX_DIM) float64 rows: TF-IDF part, then raw aux."""
    out = np.zeros((len(parts), vocab_size + AUX_DIM))
    for row, part in zip(out, parts):
        row[list(part)] = list(part.values())
    out[:, vocab_size:] = aux
    return out


def _token_columns(docs: Sequence[TokenSeq],
                   vocab: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols): the document and the column of each token vocab knows, in token order."""
    cols = np.fromiter((vocab.get(t, -1) for t in chain.from_iterable(docs)), np.int64)
    rows = np.repeat(np.arange(len(docs)), np.fromiter(map(len, docs), np.int64, len(docs)))
    known = cols >= 0
    return rows[known], cols[known]


def bow_features(enc: EncodedSet, vocab: dict[str, int], idf: np.ndarray) -> SparseRows:
    """Feature rows of an encoded set under a fitted vectorizer: the L2-normalized
    TF-IDF columns, then the raw aux entries, equal bit for bit to
    dense_matrix of each text's vectorize."""
    n, v = len(enc.tokens), len(vocab)
    rows, cols = _token_columns(enc.tokens, vocab)
    _, first, tf = np.unique(rows * v + cols, return_index=True, return_counts=True)
    rows, cols = rows[first], cols[first]  # each (row, column) once, in that order
    weights = tf * idf[cols]
    # A text's weights in first-occurrence order, which bincount sums in turn as vectorize does.
    by_first = np.argsort(first)
    norm = np.sqrt(np.bincount(rows[by_first], (weights * weights)[by_first], n))
    aux_rows, aux_cols = np.nonzero(enc.aux)
    vals = np.concatenate([weights / norm[rows], enc.aux[aux_rows, aux_cols]])
    rows = np.concatenate([rows, aux_rows])
    cols = np.concatenate([cols, v + aux_cols])
    order = np.lexsort((cols, rows))
    return SparseRows.from_entries(rows[order], cols[order], vals[order], n, v + AUX_DIM)


def tfidf_features(enc: EncodedSet) -> tuple[SparseRows, dict[str, int], np.ndarray]:
    """(feature rows, vocab, idf) of a training set, the vectorizer fitted on its tokens."""
    vocab, idf = fit_tfidf(enc.tokens)
    return bow_features(enc, vocab, idf), vocab, idf


# ---------------------------------------------------------------------------
# Multinomial Naive Bayes
# ---------------------------------------------------------------------------

@dataclass
class NbModel:
    vocab: dict[str, int]
    log_prior: np.ndarray       # (2,)
    log_likelihood: np.ndarray  # (2, V), add-one smoothed

    def __post_init__(self):
        sums = np.exp(self.log_likelihood).sum(axis=1)
        if not np.allclose(sums, 1.0, atol=1e-9):
            raise ValueError("per-class term likelihoods must sum to 1")


def train_nb(docs: Sequence[TokenSeq], labels: Sequence[int],
             bootstrap_seed: int | None = None) -> NbModel:
    """Multinomial NB with add-one smoothing over the training vocabulary.

    labels must be one 0/1 per document. bootstrap_seed, when given,
    resamples the training set with replacement first (used to
    differentiate otherwise-identical ensemble members).
    """
    docs = list(docs)
    y = _labels(docs, labels)
    if not docs:
        raise ValueError("need at least one document")
    if bootstrap_seed is not None:
        rng = np.random.default_rng(bootstrap_seed)
        pick = rng.integers(0, len(docs), size=len(docs))
        docs = [docs[i] for i in pick]
        y = y[pick]
    if len(set(y.tolist())) < 2:
        raise ValueError("training set contains a single class")
    # Terms numbered in order of first occurrence, as fit_tfidf numbers them.
    vocab = {tok: i for i, tok in enumerate(dict.fromkeys(chain.from_iterable(docs)))}
    v = len(vocab)
    rows, cols = _token_columns(docs, vocab)
    term_counts = np.bincount(y[rows] * v + cols, minlength=2 * v).reshape(2, v)
    class_counts = np.bincount(y, minlength=2)
    log_prior = np.log(class_counts / class_counts.sum())
    log_likelihood = np.log((term_counts + 1.0) /
                            (term_counts.sum(axis=1, keepdims=True) + v))
    return NbModel(vocab, log_prior, log_likelihood)


def nb_predict(model: NbModel, docs: Sequence[TokenSeq]) -> tuple[np.ndarray, np.ndarray]:
    """Posterior of each document by log-sum over known tokens; unknown ones are skipped."""
    n = len(docs)
    rows, cols = _token_columns(docs, model.vocab)
    # bincount adds in input order: each row sums its prior, then its tokens in order.
    rows = np.concatenate([np.arange(n), rows])
    log_post = np.stack([np.bincount(rows, np.concatenate([np.full(n, prior), ll[cols]]), n)
                         for prior, ll in zip(model.log_prior, model.log_likelihood)], axis=1)
    post = np.exp(log_post - log_post.max(axis=1, keepdims=True))
    post /= post.sum(axis=1, keepdims=True)
    return np.argmax(post, axis=1), post[:, 1]


def _labels(x: Sized, y: Sequence[int]) -> np.ndarray:
    """y as int64, refused unless it is one 0/1 label per row (or document) of x."""
    y = np.asarray(y)
    if y.shape != (len(x),):
        raise ValueError(f"need one label per feature row: {len(x)} rows, "
                         f"{y.size} labels of shape {y.shape}")
    bad = y[(y != 0) & (y != 1)]
    if bad.size:
        raise ValueError(f"labels must be 0 or 1, not {bad[0]}")
    return y.astype(np.int64)


# ---------------------------------------------------------------------------
# Linear SVM (stochastic subgradient on the hinge objective)
# ---------------------------------------------------------------------------

@dataclass
class SvmModel:
    weights: np.ndarray  # trained without a bias term
    platt_a: float
    platt_b: float

    def score(self, x: SparseRows) -> np.ndarray:
        return x.matvec(self.weights)


def train_svm(x: SparseRows, y: Sequence[int], lam: float = 1e-4,
              epochs: int = 10, seed: int = 0) -> SvmModel:
    """Minimize lam/2 ||w||^2 + mean hinge loss by seeded subgradient steps.

    Uses the classic 1/(lam*t) step size with per-epoch reshuffling and no
    bias term, so scaling all inputs by c with lam rescaled to c^2*lam
    leaves every decision sign unchanged. Its decay (t-1)/t telescopes
    (Pegasos in closed form): w = v/(lam*t), v summing y*x over the steps
    with y*(v @ x) < lam*t; step 1 always updates, since 0 < lam at v = 0.
    """
    if len(x) == 0:
        raise ValueError("need a non-empty (N, D) feature matrix")
    y = _labels(x, y)
    if len(set(y.tolist())) < 2:
        raise ValueError("training set contains a single class")
    sign = np.where(y == 1, 1.0, -1.0)
    cuts = x.indptr[1:-1]
    row_cols, row_vals = np.split(x.indices, cuts), np.split(x.data, cuts)
    rng = np.random.default_rng(seed)
    v = np.zeros(x.width)
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(len(x)):
            t += 1
            cols, vals = row_cols[i], row_vals[i]
            if sign[i] * (v[cols] @ vals) < lam * t:
                v[cols] += sign[i] * vals
    return calibrate_svm(v / (lam * t), x, y)


def svm_predict(model: SvmModel, x: SparseRows) -> tuple[np.ndarray, np.ndarray]:
    """Classes from the score signs; probabilities from the fitted Platt sigmoid."""
    s = model.score(x)
    return (s > 0).astype(np.int64), platt_probability(s, model.platt_a, model.platt_b)


def calibrate_svm(weights: np.ndarray, x: SparseRows, y: Sequence[int]) -> SvmModel:
    """The SVM of these weights, its Platt parameters fitted on the (x, y) scores."""
    return SvmModel(weights, *platt_fit(x.matvec(weights), y))


# ---------------------------------------------------------------------------
# Platt scaling
# ---------------------------------------------------------------------------

PLATT_TOL = 1e-8  # Newton stops once the gradient norm drops below this
PLATT_MAX_ITER = 100

def platt_probability(score, a: float, b: float) -> np.ndarray:
    """1 / (1 + exp(a * score + b)) elementwise, without overflow."""
    z = a * np.asarray(score, dtype=np.float64) + b
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, e / (1.0 + e), 1.0 / (1.0 + e))


def platt_fit(scores: Sequence[float], labels: Sequence[int]) -> tuple[float, float]:
    """Fit p = 1/(1+exp(A*s+B)) by Newton's method on the smoothed NLL.

    Targets use the standard smoothing t+ = (N+ + 1)/(N+ + 2) and
    t- = 1/(N- + 2). Iterates until the gradient norm drops below PLATT_TOL
    or for PLATT_MAX_ITER iterations; a step is halved while it fails to
    reduce the NLL.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1 or s.size == 0:
        raise ValueError("need aligned, non-empty scores and labels")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("Platt fitting needs both classes")
    target = np.where(y == 1, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))

    def nll(a, b):
        z = a * s + b
        # -sum t*log(p) + (1-t)*log(1-p) with p = sigmoid(-z), stably:
        # log(p) = -log(1+e^z), log(1-p) = z - log(1+e^z)
        log1pez = np.logaddexp(0.0, z)
        return float(np.sum(log1pez - (1.0 - target) * z))

    a, b = 0.0, math.log((n_neg + 1.0) / (n_pos + 1.0))
    current = nll(a, b)
    for _ in range(PLATT_MAX_ITER):
        z = a * s + b
        p = 1.0 / (1.0 + np.exp(np.clip(z, -500, 500)))
        residual = target - p  # dNLL/d(a,b) = (sum r*s, sum r)
        g = np.array([float(residual @ s), float(residual.sum())])
        if math.hypot(*g) < PLATT_TOL:
            break
        w = p * (1.0 - p)
        h = np.array([[float((w * s) @ s), float(w @ s)],
                      [float(w @ s), float(w.sum())]])
        h[0, 0] += 1e-12
        h[1, 1] += 1e-12
        step = np.linalg.solve(h, g)
        scale = 1.0
        for _ in range(30):
            na, nb = a - scale * step[0], b - scale * step[1]
            candidate = nll(na, nb)
            if candidate <= current + 1e-12:
                a, b, current = na, nb, candidate
                break
            scale *= 0.5
        else:
            break
    return a, b


# ---------------------------------------------------------------------------
# Random forest
# ---------------------------------------------------------------------------

@dataclass
class Tree:
    """Flat arrays; children index -1 marks a leaf."""

    feature: np.ndarray    # (n_nodes,) int
    threshold: np.ndarray  # (n_nodes,) float
    left: np.ndarray       # (n_nodes,) int
    right: np.ndarray      # (n_nodes,) int
    counts: np.ndarray     # (n_nodes, 2) leaf class counts


@dataclass
class RfModel:
    trees: list[Tree]


def _best_split(xt: SparseRows, rows, y, feature_ids, best=None):
    """(feature, threshold, weighted impurity) of the best split, else `best`.

    xt is the training rows' CSC (their transpose), and a node's samples are
    the training rows `rows` (repeats allowed), labelled y. Each candidate
    column's values at the node are its nonzeros there plus one run of
    zeros for the other samples; sorted by (column, value) and merged into
    runs of equal values, their prefix class counts score only the
    boundaries between consecutive distinct values, each with its midpoint
    as threshold. Then, in candidate order, a column's first best boundary
    replaces `best` (None, or an earlier search's split at this node) only
    when lower by more than 1e-15. The counts, scores and thresholds are
    those of a dense sort of the node's values, bit for bit.
    """
    ids = np.asarray(feature_ids, dtype=np.int64)
    if not ids.size:
        return best
    n = len(y)
    mult = np.bincount(rows, minlength=xt.width)  # samples per training row
    ones = np.bincount(rows[y == 1], minlength=xt.width)
    n_ones = int(ones.sum())
    col, at = _entries(xt.indptr, ids)
    base = xt.indices[at]
    at_node = mult[base] > 0
    col, at, base = col[at_node], at[at_node], base[at_node]
    count, pos = mult[base], ones[base]
    zeros = n - np.bincount(col, count, len(ids)).astype(np.int64)
    zero_ones = n_ones - np.bincount(col, pos, len(ids)).astype(np.int64)
    has_zeros = np.flatnonzero(zeros)
    col = np.concatenate([col, has_zeros])
    value = np.concatenate([xt.data[at], np.zeros(len(has_zeros))])
    count = np.concatenate([count, zeros[has_zeros]])
    pos = np.concatenate([pos, zero_ones[has_zeros]])
    order = np.lexsort((value, col))
    col, value = col[order], value[order]
    starts = np.flatnonzero(np.r_[True, (col[1:] != col[:-1]) | (value[1:] != value[:-1])])
    col, value = col[starts], value[starts]
    # Every column's runs count all n samples, so its prefix counts start at col * n.
    n_left_int = np.cumsum(np.add.reduceat(count[order], starts)) - col * n
    l1_int = np.cumsum(np.add.reduceat(pos[order], starts)) - col * n_ones
    b = np.flatnonzero(col[1:] == col[:-1])  # boundaries, after run b, column by column
    if not b.size:
        return best
    col = col[b]
    n_left = n_left_int[b].astype(np.float64)
    l1 = l1_int[b].astype(np.float64)
    l0 = n_left - l1
    n_right = n - n_left
    r1 = n_ones - l1
    r0 = n_right - r1
    gini_left = 1.0 - (l0 / n_left) ** 2 - (l1 / n_left) ** 2
    gini_right = 1.0 - (r0 / n_right) ** 2 - (r1 / n_right) ** 2
    score = (n_left * gini_left + n_right * gini_right) / n
    by_col = np.lexsort((score, col))  # stable: equal scores stay in value order
    firsts = by_col[np.r_[True, col[by_col[1:]] != col[by_col[:-1]]]]  # each column's best
    for i in firsts.tolist():
        s = float(score[i])
        if best is None or s < best[2] - 1e-15:
            best = (ids[col[i]], (value[b[i]] + value[b[i] + 1]) / 2.0, s)
    return best


def _grow(x, xt, rows, y, rng, max_depth, n_candidates, nodes, depth):
    # A node's samples are the rows `rows` of x (labels y); xt is x's CSC.
    counts = np.bincount(y, minlength=2).astype(np.float64)
    node_id = len(nodes["feature"])
    for key, val in (("feature", -1), ("threshold", 0.0), ("left", -1), ("right", -1)):
        nodes[key].append(val)
    nodes["counts"].append(counts)

    pure = counts[0] == 0 or counts[1] == 0
    if pure or len(y) < 2 or depth >= max_depth:
        return node_id

    cand = rng.permutation(x.width)
    split = _best_split(xt, rows, y, cand[:n_candidates])
    if split is None:
        # Fall back to the rest; only a column nonzero in some sample can vary.
        has = np.zeros(x.width, dtype=bool)
        has[x.indices[_entries(x.indptr, np.unique(rows))[1]]] = True
        rest = cand[n_candidates:]
        split = _best_split(xt, rows, y, rest[has[rest]])
    if split is None:
        return node_id

    f, thr, _ = split
    values = np.zeros(len(x))
    lo, hi = xt.indptr[f], xt.indptr[f + 1]
    values[xt.indices[lo:hi]] = xt.data[lo:hi]
    mask = values[rows] <= thr
    nodes["feature"][node_id] = f
    nodes["threshold"][node_id] = thr
    nodes["left"][node_id] = _grow(x, xt, rows[mask], y[mask], rng, max_depth,
                                   n_candidates, nodes, depth + 1)
    nodes["right"][node_id] = _grow(x, xt, rows[~mask], y[~mask], rng, max_depth,
                                    n_candidates, nodes, depth + 1)
    return node_id


def train_rf(x: SparseRows, y: Sequence[int], trees: int = 50,
             max_depth: int = 16, seed: int = 0) -> RfModel:
    """Random forest of Gini-split trees.

    Per tree: a bootstrap sample, recursive best-Gini
    splits over sqrt(n_features) random candidate features (all features
    when none of them splits), stopping at purity, max_depth, or fewer
    than 2 samples.
    """
    if len(x) == 0:
        raise ValueError("need a non-empty (N, D) feature matrix")
    y = _labels(x, y)
    if trees < 1:
        raise ValueError(f"a forest needs at least one tree, not {trees}")
    n, d = x.shape
    xt = x.transpose()
    n_candidates = max(1, int(math.isqrt(d)))
    forest = []
    for i in range(trees):
        rng = np.random.default_rng([seed, i])
        pick = rng.integers(0, n, size=n)
        nodes = {"feature": [], "threshold": [], "left": [], "right": [], "counts": []}
        _grow(x, xt, pick, y[pick], rng, max_depth, n_candidates, nodes, depth=0)
        forest.append(Tree(
            feature=np.array(nodes["feature"], dtype=np.int64),
            threshold=np.array(nodes["threshold"], dtype=np.float64),
            left=np.array(nodes["left"], dtype=np.int64),
            right=np.array(nodes["right"], dtype=np.int64),
            counts=np.stack(nodes["counts"]),
        ))
    return RfModel(forest)


def rf_predict(model: RfModel, x: SparseRows) -> tuple[np.ndarray, np.ndarray]:
    """Majority vote over trees; p(positive) = fraction of positive votes.

    Walks all rows down each tree one depth level at a time, looking up each
    row's value at its node's feature among the stored entries (a miss is 0).
    """
    if not model.trees:
        raise ValueError("a forest needs at least one tree to vote")
    for tree in model.trees:
        bad = tree.feature[(tree.left != -1) & ((tree.feature < 0) | (tree.feature >= x.width))]
        if bad.size:
            raise ValueError(f"a tree splits on feature {bad[0]}, outside rows {x.width} wide")
    # Keys row * width + column rise strictly through the CSR entries; the
    # sentinel ends every search inside the arrays, at an implicit zero.
    keys = np.append(x.row_ids() * x.width + x.indices, np.iinfo(np.int64).max)
    values = np.append(x.data, 0.0)
    votes = np.zeros(len(x), dtype=np.int64)
    for tree in model.trees:
        node = np.zeros(len(x), dtype=np.int64)
        active = np.arange(len(x))
        while active.size:
            at = node[active]
            inner = tree.left[at] != -1
            active, at = active[inner], at[inner]
            key = active * x.width + tree.feature[at]
            k = np.searchsorted(keys, key)
            value = np.where(keys[k] == key, values[k], 0.0)
            node[active] = np.where(value <= tree.threshold[at], tree.left[at], tree.right[at])
        counts = tree.counts[node]
        votes += counts[:, 1] > counts[:, 0]
    p_pos = votes / len(model.trees)
    return (p_pos > 0.5).astype(np.int64), p_pos


# ---------------------------------------------------------------------------
# Annotation pre-filter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrefilterResult:
    sample: Dataset
    n_qualified: int
    warned: bool  # fewer qualifying items than requested


def prefilter(unlabeled: Dataset, classes: np.ndarray, p_pos: np.ndarray,
              threshold: float = 0.8, sample_n: int | None = None,
              seed: int = 0) -> PrefilterResult:
    """Confidently machine-labeled items, uniformly sampled.

    classes and p_pos are a Platt-scaled member's predictions for the items, in
    order. Keeps items whose probability for the predicted class is strictly
    above the threshold, then draws a seeded uniform sample of sample_n of
    them. If fewer qualify, all are returned and the result is flagged. A
    threshold outside [0, 1], NaN included, is refused.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], not {threshold!r}")
    p_predicted = np.where(classes == 1, p_pos, 1.0 - p_pos)
    qualified = [unlabeled[i] for i in np.flatnonzero(p_predicted > threshold)]
    if sample_n is None or len(qualified) <= sample_n:
        return PrefilterResult(Dataset(qualified), len(qualified),
                               warned=sample_n is not None and len(qualified) < sample_n)
    rng = np.random.default_rng(seed)
    pick = sorted(rng.choice(len(qualified), size=sample_n, replace=False).tolist())
    return PrefilterResult(Dataset(qualified[i] for i in pick), len(qualified), warned=False)
