"""Classical baselines: multinomial Naive Bayes, linear SVM with Platt
scaling, random forest, TF-IDF vectorization, and the annotation pre-filter.

All trainers are deterministic under their seeds. SVM and random forest
read the dense float64 rows of bow_features, Naive Bayes the token lists.
Each predict takes N rows and returns, like the CNN models, (int64 classes,
float64 positive-class probabilities).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .corpus import Dataset
from .encoding import EncodedSet
from .features import AUX_DIM, TokenSeq


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


def bow_features(enc: EncodedSet, vocab: dict[str, int], idf: np.ndarray) -> np.ndarray:
    """Feature rows of an encoded set under a fitted vectorizer."""
    parts = [vectorize(tokens, vocab, idf) for tokens in enc.tokens]
    return dense_matrix(parts, enc.aux, len(vocab))


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

    bootstrap_seed, when given, resamples the training set with replacement
    first (used to differentiate otherwise-identical ensemble members).
    """
    docs = list(docs)
    labels = list(labels)
    if len(docs) != len(labels) or not docs:
        raise ValueError("need aligned, non-empty docs and labels")
    if bootstrap_seed is not None:
        rng = np.random.default_rng(bootstrap_seed)
        pick = rng.integers(0, len(docs), size=len(docs))
        docs = [docs[i] for i in pick]
        labels = [labels[i] for i in pick]
    if len(set(labels)) < 2:
        raise ValueError("training set contains a single class")

    vocab: dict[str, int] = {}
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
    return NbModel(vocab, log_prior, log_likelihood)


def nb_predict(model: NbModel, docs: Sequence[TokenSeq]) -> tuple[np.ndarray, np.ndarray]:
    """Posterior of each document by log-sum over known tokens; unknown ones are skipped."""
    n = len(docs)
    cols = np.fromiter((model.vocab.get(t, -1) for t in chain.from_iterable(docs)), np.int64)
    rows = np.repeat(np.arange(n), np.fromiter(map(len, docs), np.int64, n))
    known = cols >= 0
    # bincount adds in input order: each row sums its prior, then its tokens in order.
    rows, cols = np.concatenate([np.arange(n), rows[known]]), cols[known]
    log_post = np.stack([np.bincount(rows, np.concatenate([np.full(n, prior), ll[cols]]), n)
                         for prior, ll in zip(model.log_prior, model.log_likelihood)], axis=1)
    post = np.exp(log_post - log_post.max(axis=1, keepdims=True))
    post /= post.sum(axis=1, keepdims=True)
    return np.argmax(post, axis=1), post[:, 1]


# ---------------------------------------------------------------------------
# Linear SVM (stochastic subgradient on the hinge objective)
# ---------------------------------------------------------------------------

@dataclass
class SvmModel:
    weights: np.ndarray
    bias: float = 0.0  # trained without a bias term; kept for the wire format
    platt_a: float | None = None
    platt_b: float | None = None

    def score(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.weights + self.bias

    @property
    def calibrated(self) -> bool:
        return self.platt_a is not None


def train_svm(x: np.ndarray, y: Sequence[int], lam: float = 1e-4,
              epochs: int = 10, seed: int = 0) -> SvmModel:
    """Minimize lam/2 ||w||^2 + mean hinge loss by seeded subgradient steps.

    Uses the classic 1/(lam*t) step size with per-epoch reshuffling and no
    bias term, so scaling all inputs by c with lam rescaled to c^2*lam
    leaves every decision sign unchanged.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("need a non-empty (N, D) feature matrix")
    if len(set(y.tolist())) < 2:
        raise ValueError("training set contains a single class")
    sign = np.where(y == 1, 1.0, -1.0)
    rng = np.random.default_rng(seed)
    w = np.zeros(x.shape[1])
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(x.shape[0]):
            t += 1
            eta = 1.0 / (lam * t)
            w *= 1.0 - eta * lam
            if sign[i] * (w @ x[i]) < 1.0:
                w += eta * sign[i] * x[i]
    return SvmModel(weights=w)


def svm_objective(model: SvmModel, x: np.ndarray, y: Sequence[int],
                  lam: float) -> float:
    """lam/2 ||w||^2 + mean hinge loss on (x, y)."""
    sign = np.where(np.asarray(y) == 1, 1.0, -1.0)
    margins = sign * (np.asarray(x) @ model.weights + model.bias)
    hinge = np.maximum(0.0, 1.0 - margins).mean()
    return 0.5 * lam * float(model.weights @ model.weights) + float(hinge)


def svm_predict(model: SvmModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classes from the score signs; probabilities from the fitted Platt sigmoid."""
    if not model.calibrated:
        raise ValueError("SVM model is not calibrated (fit Platt scaling first)")
    s = model.score(x)
    return (s > 0).astype(np.int64), platt_probability(s, model.platt_a, model.platt_b)


def calibrate_svm(model: SvmModel, x: np.ndarray, y: Sequence[int]) -> SvmModel:
    """Fit Platt parameters on (x, y) scores in place; returns the model."""
    model.platt_a, model.platt_b = platt_fit(model.score(x), y)
    return model


# ---------------------------------------------------------------------------
# Platt scaling
# ---------------------------------------------------------------------------

def platt_probability(score, a: float, b: float) -> np.ndarray:
    """1 / (1 + exp(a * score + b)) elementwise, without overflow."""
    z = a * np.asarray(score, dtype=np.float64) + b
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, e / (1.0 + e), 1.0 / (1.0 + e))


def platt_fit(scores: Sequence[float], labels: Sequence[int],
              tol: float = 1e-8, max_iter: int = 100) -> tuple[float, float]:
    """Fit p = 1/(1+exp(A*s+B)) by Newton's method on the smoothed NLL.

    Targets use the standard smoothing t+ = (N+ + 1)/(N+ + 2) and
    t- = 1/(N- + 2). Iterates until the gradient norm drops below tol or
    max_iter iterations; a step is halved while it fails to reduce the NLL.
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
    for _ in range(max_iter):
        z = a * s + b
        p = 1.0 / (1.0 + np.exp(np.clip(z, -500, 500)))
        residual = target - p  # dNLL/d(a,b) = (sum r*s, sum r)
        g = np.array([float(residual @ s), float(residual.sum())])
        if math.hypot(*g) < tol:
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
    seed: int


def gini(counts: np.ndarray) -> float:
    """Gini impurity of a class-count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


def _best_split(x, rows, y, feature_ids):
    """(feature, threshold, weighted impurity) of the best split, or None.

    Thresholds are midpoints between consecutive distinct sorted values;
    impurities come from vectorized prefix class counts. Ties keep the
    earliest candidate feature.
    """
    n = len(y)
    best = None
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


def _grow(x, rows, y, rng, max_depth, n_candidates, nodes, depth):
    # A node's samples are x[rows] (labels y); indexing, not copying, x keeps
    # each node's cost to the candidate columns it reads.
    counts = np.bincount(y, minlength=2).astype(np.float64)
    node_id = len(nodes["feature"])
    for key, val in (("feature", -1), ("threshold", 0.0), ("left", -1), ("right", -1)):
        nodes[key].append(val)
    nodes["counts"].append(counts)

    pure = counts[0] == 0 or counts[1] == 0
    if pure or len(y) < 2 or (max_depth is not None and depth >= max_depth):
        return node_id

    n_features = x.shape[1]
    cand = rng.permutation(n_features)
    split = _best_split(x, rows, y, cand[:n_candidates])
    if split is None and n_candidates < n_features:
        split = _best_split(x, rows, y, cand[n_candidates:])  # fall back to the rest
    if split is None:
        return node_id

    f, thr, _ = split
    mask = x[rows, f] <= thr
    nodes["feature"][node_id] = f
    nodes["threshold"][node_id] = thr
    nodes["left"][node_id] = _grow(x, rows[mask], y[mask], rng, max_depth,
                                   n_candidates, nodes, depth + 1)
    nodes["right"][node_id] = _grow(x, rows[~mask], y[~mask], rng, max_depth,
                                    n_candidates, nodes, depth + 1)
    return node_id


def train_rf(x: np.ndarray, y: Sequence[int], trees: int = 50,
             max_depth: int | None = 16, seed: int = 0,
             bootstrap: bool = True) -> RfModel:
    """Random forest of Gini-split trees.

    Per tree: a bootstrap sample (unless disabled), recursive best-Gini
    splits over sqrt(n_features) random candidate features (all features
    when none of them splits), stopping at purity, max_depth, or fewer
    than 2 samples.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("need a non-empty (N, D) feature matrix")
    n, d = x.shape
    n_candidates = max(1, int(math.isqrt(d)))
    forest = []
    for i in range(trees):
        rng = np.random.default_rng([seed, i])
        if bootstrap:
            pick = rng.integers(0, n, size=n)
        else:
            pick = np.arange(n)
        nodes = {"feature": [], "threshold": [], "left": [], "right": [], "counts": []}
        _grow(x, pick, y[pick], rng, max_depth, n_candidates, nodes, depth=0)
        forest.append(Tree(
            feature=np.array(nodes["feature"], dtype=np.int64),
            threshold=np.array(nodes["threshold"], dtype=np.float64),
            left=np.array(nodes["left"], dtype=np.int64),
            right=np.array(nodes["right"], dtype=np.int64),
            counts=np.stack(nodes["counts"]),
        ))
    return RfModel(forest, seed)


def tree_vote(tree: Tree, x: np.ndarray) -> np.ndarray:
    """Leaf majority of each row, walking all rows down one depth level at a time."""
    node = np.zeros(len(x), dtype=np.int64)
    active = np.arange(len(x))
    while active.size:
        at = node[active]
        inner = tree.left[at] != -1
        active, at = active[inner], at[inner]
        go_left = x[active, tree.feature[at]] <= tree.threshold[at]
        node[active] = np.where(go_left, tree.left[at], tree.right[at])
    counts = tree.counts[node]
    return (counts[:, 1] > counts[:, 0]).astype(np.int64)


def rf_predict(model: RfModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Majority vote over trees; p(positive) = fraction of positive votes."""
    x = np.asarray(x, dtype=np.float64)
    p_pos = sum(tree_vote(t, x) for t in model.trees) / len(model.trees)
    return (p_pos > 0.5).astype(np.int64), p_pos


# ---------------------------------------------------------------------------
# Annotation pre-filter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrefilterResult:
    sample: Dataset
    n_qualified: int
    warned: bool  # fewer qualifying items than requested


def prefilter(unlabeled: Dataset, model: SvmModel, x: np.ndarray,
              threshold: float = 0.8, sample_n: int | None = None,
              seed: int = 0) -> PrefilterResult:
    """Confidently machine-labeled items, uniformly sampled.

    Keeps items whose calibrated probability for the predicted class is
    strictly above the threshold, then draws a seeded uniform sample of
    sample_n of them. If fewer qualify, all are returned and the result is
    flagged. Row i of x is the model's feature vector of item i.
    """
    if not model.calibrated:
        raise ValueError("prefilter requires a calibrated model")
    if len(x) != len(unlabeled):
        raise ValueError(f"{len(x)} feature rows for {len(unlabeled)} items")
    cls, p_pos = svm_predict(model, x)
    p_predicted = np.where(cls == 1, p_pos, 1.0 - p_pos)
    qualified = [unlabeled[i] for i in np.flatnonzero(p_predicted > threshold)]
    if sample_n is None or len(qualified) <= sample_n:
        return PrefilterResult(Dataset(qualified), len(qualified),
                               warned=sample_n is not None and len(qualified) < sample_n)
    rng = np.random.default_rng(seed)
    pick = sorted(rng.choice(len(qualified), size=sample_n, replace=False).tolist())
    return PrefilterResult(Dataset(qualified[i] for i in pick), len(qualified), warned=False)
