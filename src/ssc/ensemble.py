"""Majority-vote ensembling over CNN and classical members.

A member has a kind and a batched predict returning (classes, positive
probabilities) for a whole set in one call, the CNN's network run
PREDICT_ROWS rows at a time; predict(enc, i) is that predict on a set of
one. The member kinds and COMPOSITIONS, the two paper-faithful six-member
rosters, are declared in encoding: 2x char_aux + 2x char_cnn + 2x word_aux
(CNN ensemble) and 2x svm + 2x rf + 2x nb (classical ensemble); "free" mode
allows arbitrary compositions. A vote of one member returns that member's
own classes, so ssc evaluate is a one-member ssc ensemble. A classical
checkpoint is refused at load unless its arrays fit its vocabulary and each
other.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import baselines, encoding, models
from .baselines import NbModel, RfModel, SvmModel, Tree
from .encoding import EncodedSet
from .features import AUX_DIM, is_token
# Nothing here saves; bench/tracing.py still wraps save_checkpoint by this module's name.
from .nn import ModelCheckpoint, load_checkpoint, save_checkpoint


class EnsembleError(RuntimeError):
    """A member failed to load or predict; the message names the member."""


def vote(classes: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Strict majority over (members, examples) binary votes, per example.

    On a tie, the mean positive probability decides: strictly above 0.5
    means positive, otherwise negative. The probabilities are added in
    member order, so an example's vote does not depend on the batch around it.
    """
    positive = (classes == 1).sum(axis=0)
    negative = classes.shape[0] - positive
    rows = np.asarray(probs, dtype=np.float64)
    tie = sum(rows) / len(rows) > 0.5  # builtin sum: one row after another
    return np.where(positive == negative, tie, positive > negative).astype(np.int64)


# ---------------------------------------------------------------------------
# Members
# ---------------------------------------------------------------------------

class Member:
    """Base of both member types, which define kind and predict_batch(enc)."""

    def predict(self, enc: EncodedSet, i: int = 0) -> tuple[int, float]:
        c, p = self.predict_batch(enc.subset([i]))
        return int(c[0]), float(p[0])


@dataclass
class CnnMember(Member):
    """Wraps a built CNN model (word_aux / char_aux / char_cnn)."""

    model: models.Model

    @property
    def kind(self) -> str:
        return self.model.kind

    def predict_batch(self, enc: EncodedSet) -> tuple[np.ndarray, np.ndarray]:
        return models.predict_batch(self.model, enc)


@dataclass
class BowMember(Member):
    """Wraps a classical model, and the TF-IDF vectorizer it was fit with if its kind reads one."""

    kind: str  # "svm" | "rf" | "nb"
    model: NbModel | SvmModel | RfModel
    vocab: dict[str, int] | None = None
    idf: np.ndarray | None = None

    def predict_batch(self, enc: EncodedSet) -> tuple[np.ndarray, np.ndarray]:
        if not encoding.KINDS[self.kind].tfidf:
            return baselines.nb_predict(self.model, enc.tokens)
        predict = {"svm": baselines.svm_predict, "rf": baselines.rf_predict}[self.kind]
        return predict(self.model, baselines.bow_features(enc, self.vocab, self.idf))


@dataclass(frozen=True)
class EnsembleSpec:
    """members: (kind, ref) pairs; ref is a loaded checkpoint or a checkpoint path.

    mode "strict" requires one of the two six-member compositions;
    "free" allows anything non-empty.
    """

    members: tuple[tuple[str, object], ...]
    mode: str = "strict"

    def __post_init__(self):
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        if self.mode not in ("strict", "free"):
            raise ValueError("mode must be 'strict' or 'free'")
        if self.mode == "strict":
            composition = Counter(kind for kind, _ in self.members)
            if composition not in encoding.COMPOSITIONS.values():
                raise ValueError(
                    f"strict ensembles need 2x{'/2x'.join(encoding.CNN_KINDS)} or "
                    f"2x{'/2x'.join(encoding.ML_KINDS)}; got {dict(composition)}"
                )


def load_member(kind: str, ref) -> Member:
    """Materialize a member from a loaded checkpoint or a checkpoint path."""
    cp = ref if isinstance(ref, ModelCheckpoint) else load_checkpoint(ref)
    tag = cp.metadata.get("kind", "")
    if tag != kind:
        raise EnsembleError(f"checkpoint kind tag {tag!r} does not match {kind!r}")
    if kind in encoding.CNN_KINDS:
        return CnnMember(models.model_from_checkpoint(cp))
    return _baseline_from_checkpoint(kind, cp)


def resolve_members(spec: EnsembleSpec) -> list[Member]:
    out = []
    for i, (kind, ref) in enumerate(spec.members):
        try:
            out.append(load_member(kind, ref))
        except Exception as e:
            raise EnsembleError(f"member {i} ({kind}): failed to load: {e}") from e
    return out


def ensemble_vote_batch(members: Sequence[Member], enc: EncodedSet) -> np.ndarray:
    """Majority-vote classes for every example, from per-member batch votes."""
    predictions = [member.predict_batch(enc) for member in members]
    return vote(np.stack([c for c, _ in predictions]), np.stack([p for _, p in predictions]))


# ---------------------------------------------------------------------------
# Baseline member serialization (shared checkpoint container)
# ---------------------------------------------------------------------------

_TREE_ARRAYS = tuple(f.name for f in fields(Tree))
# The arrays that baseline_checkpoint stores for each classical kind.
_KIND_ARRAYS = {"svm": ("idf", "weights", "platt"), "rf": ("idf", "tree_nodes", *_TREE_ARRAYS),
                "nb": ("log_prior", "log_likelihood")}


def baseline_checkpoint(member: BowMember) -> ModelCheckpoint:
    """A classical member as a checkpoint tagged with its kind.

    The vocabulary is one space-joined metadata entry, so a term that is
    empty or holds whitespace is refused: it would not split back. A forest
    stores its trees' node counts and, per Tree field, their arrays end to end.
    """
    m = member.model
    tfidf = encoding.KINDS[member.kind].tfidf
    terms = member.vocab if tfidf else m.vocab
    bad = next((t for t in terms if not is_token(t)), None)
    if bad is not None:
        raise ValueError(f"refusing to serialize the vocabulary term {bad!r}: "
                         "a term must be one non-empty token without whitespace")
    if not tfidf:
        arrays = {"log_prior": m.log_prior, "log_likelihood": m.log_likelihood}
    elif member.kind == "svm":
        arrays = {"idf": member.idf, "weights": m.weights,
                  "platt": np.array([m.platt_a, m.platt_b])}
    else:
        arrays = {"idf": member.idf,
                  "tree_nodes": np.array([len(t.feature) for t in m.trees], dtype=np.int64),
                  **{name: np.concatenate([getattr(t, name) for t in m.trees])
                     for name in _TREE_ARRAYS}}
    return ModelCheckpoint(0, arrays, metadata={"kind": member.kind, "vocab": " ".join(terms)})


def _baseline_from_checkpoint(kind: str, cp: ModelCheckpoint) -> BowMember:
    """The classical member of a checkpoint, refused unless its arrays fit each other.

    Each array must have the shape that the V vocabulary terms imply (the
    SVM and forest read rows of V + AUX_DIM features), a forest's node
    counts, features and children must be integers, and every forest node
    must be a leaf or lead strictly forward inside its tree, so a predict
    neither indexes out of range nor walks in a circle.
    """
    terms = cp.metadata.get("vocab", "").split()
    vocab = {t: i for i, t in enumerate(terms)}
    a = cp.arrays
    missing = [name for name in _KIND_ARRAYS[kind] if name not in a]
    if missing:
        raise ValueError(f"{kind} checkpoint: missing arrays: {', '.join(missing)}")
    v = len(vocab)
    if v != len(terms):
        raise ValueError(f"{kind} checkpoint: vocab repeats a term")
    if not encoding.KINDS[kind].tfidf:
        _check_shapes(kind, a, {"log_prior": (2,), "log_likelihood": (2, v)}, v)
        return BowMember(kind, NbModel(vocab, a["log_prior"], a["log_likelihood"]))
    if kind == "svm":
        _check_shapes(kind, a, {"idf": (v,), "weights": (v + AUX_DIM,), "platt": (2,)}, v)
        model = SvmModel(a["weights"], platt_a=float(a["platt"][0]), platt_b=float(a["platt"][1]))
        return BowMember(kind, model, vocab, a["idf"])
    for name in ("tree_nodes", "feature", "left", "right"):
        if a[name].dtype.kind not in "iu":
            raise ValueError(f"{kind} checkpoint: {name} has dtype {a[name].dtype}, "
                             "not an integer type")
    nodes = a["tree_nodes"]
    if nodes.size == 0 or nodes.min() < 1 or any(len(a[n]) != nodes.sum() for n in _TREE_ARRAYS):
        raise ValueError(f"{kind} checkpoint: tree_nodes must be counts >= 1 that add up to "
                         "the length of every node field")
    n = int(nodes.sum())
    _check_shapes(kind, a, {"idf": (v,), "feature": (n,), "threshold": (n,), "left": (n,),
                            "right": (n,), "counts": (n, 2)}, v)
    _check_trees(a, nodes, v + AUX_DIM)
    cuts = np.cumsum(nodes)[:-1]
    trees = [Tree(*parts) for parts in zip(*(np.split(a[name], cuts) for name in _TREE_ARRAYS))]
    return BowMember(kind, RfModel(trees), vocab, a["idf"])


def _check_shapes(kind: str, arrays, shapes: dict[str, tuple[int, ...]], v: int) -> None:
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ValueError(f"{kind} checkpoint: {name} has shape {arrays[name].shape}, "
                             f"not {shape}, for a vocabulary of {v} terms")


def _check_trees(arrays, nodes: np.ndarray, width: int) -> None:
    """Refuse a forest node that is neither a leaf (both children -1) nor an inner node
    with both children later in its own tree and a feature below width."""
    tree = np.repeat(np.arange(len(nodes)), nodes)
    local = np.arange(len(tree)) - (np.cumsum(nodes) - nodes)[tree]  # node id in its tree
    size = nodes[tree]
    left, right, feature = arrays["left"], arrays["right"], arrays["feature"]
    leaf = (left == -1) & (right == -1)
    inner = (left > local) & (left < size) & (right > local) & (right < size)
    bad = ~(leaf | inner)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"rf checkpoint: left/right of tree {tree[i]} node {local[i]} are "
                         f"{left[i]}/{right[i]}, not both -1 or both later nodes of the tree")
    bad = inner & ((feature < 0) | (feature >= width))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"rf checkpoint: feature of tree {tree[i]} node {local[i]} is "
                         f"{feature[i]}, not a column of the {width} features")
