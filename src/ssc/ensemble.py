"""Majority-vote ensembling over CNN and classical members.

A member has a kind and a batched predict returning (classes, positive
probabilities), run PREDICT_ROWS rows at a time; predict(enc, i) is that
predict on a set of one. KINDS below
is the one registry of member kinds. The two paper-faithful six-member
rosters are 2x char_aux + 2x char_cnn + 2x word_aux (CNN ensemble) and
2x svm + 2x rf + 2x nb (classical ensemble); "free" mode allows arbitrary
compositions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import baselines, models
from .baselines import NbModel, RfModel, SvmModel, Tree
from .encoding import EncodedSet
from .features import is_token
# Nothing here saves; bench/tracing.py still wraps save_checkpoint by this module's name.
from .nn import ModelCheckpoint, load_checkpoint, save_checkpoint


@dataclass(frozen=True)
class Kind:
    """One member kind: its ensemble, checkpoint tag and encoded inputs."""

    ensemble: str       # "ensemble_cnn" | "ensemble_ml"
    tag: str            # the "kind" entry of its checkpoint metadata
    word: bool = False  # reads the word-embedding matrix
    char: bool = False  # reads the character indices


KINDS = {
    "char_aux": Kind("ensemble_cnn", "char_aux", char=True),
    "char_cnn": Kind("ensemble_cnn", "char_cnn", char=True),
    "word_aux": Kind("ensemble_cnn", "word_aux", word=True),
    "svm": Kind("ensemble_ml", "SVM1"),
    "rf": Kind("ensemble_ml", "RF1"),
    "nb": Kind("ensemble_ml", "NB1"),
}
CNN_KINDS = tuple(k for k, spec in KINDS.items() if spec.ensemble == "ensemble_cnn")
ML_KINDS = tuple(k for k, spec in KINDS.items() if spec.ensemble == "ensemble_ml")
# Each ensemble's strict composition: two members of each of its kinds.
COMPOSITIONS = {"ensemble_cnn": Counter(dict.fromkeys(CNN_KINDS, 2)),
                "ensemble_ml": Counter(dict.fromkeys(ML_KINDS, 2))}
TAG_KINDS = {spec.tag: kind for kind, spec in KINDS.items()}


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
    """Wraps a classical model plus the TF-IDF vectorizer it was fit with."""

    kind: str  # "svm" | "rf" | "nb"
    model: NbModel | SvmModel | RfModel
    vocab: dict[str, int] | None = None
    idf: np.ndarray | None = None

    def predict_batch(self, enc: EncodedSet) -> tuple[np.ndarray, np.ndarray]:
        """Features are built per block of rows, so their size is bounded."""
        def predict(rows: EncodedSet):
            if self.kind == "nb":
                return baselines.nb_predict(self.model, rows.tokens)
            predict_x = {"svm": baselines.svm_predict, "rf": baselines.rf_predict}[self.kind]
            return predict_x(self.model, baselines.bow_features(rows, self.vocab, self.idf))

        return models.predict_in_blocks(predict, enc)


@dataclass(frozen=True)
class EnsembleSpec:
    """members: (kind, ref) pairs; ref is a Member or a checkpoint path.

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
            if composition not in COMPOSITIONS.values():
                raise ValueError(
                    f"strict ensembles need 2x{'/2x'.join(CNN_KINDS)} or "
                    f"2x{'/2x'.join(ML_KINDS)}; got {dict(composition)}"
                )


def load_member(kind: str, ref) -> Member:
    """Materialize a member from a Member, a loaded checkpoint or a checkpoint path."""
    if isinstance(ref, Member):
        return ref
    cp = ref if isinstance(ref, ModelCheckpoint) else load_checkpoint(ref)
    tag = cp.metadata.get("kind", "")
    if TAG_KINDS.get(tag) != kind:
        raise EnsembleError(f"checkpoint kind tag {tag!r} does not match {kind!r}")
    if kind in CNN_KINDS:
        return CnnMember(models.model_from_checkpoint(cp))
    return _baseline_from_checkpoint(kind, cp)


def resolve_members(spec: EnsembleSpec) -> list[Member]:
    out = []
    for i, (kind, ref) in enumerate(spec.members):
        try:
            member = load_member(kind, ref)
        except Exception as e:
            raise EnsembleError(f"member {i} ({kind}): failed to load: {e}") from e
        if member.kind != kind:
            raise EnsembleError(f"member {i}: declared kind {kind!r} but loaded {member.kind!r}")
        out.append(member)
    return out


def ensemble_vote_batch(members: Sequence[Member], enc: EncodedSet) -> np.ndarray:
    """Majority-vote classes for every example, from per-member batch votes."""
    predictions = [member.predict_batch(enc) for member in members]
    return vote(np.stack([c for c, _ in predictions]), np.stack([p for _, p in predictions]))


# ---------------------------------------------------------------------------
# Baseline member serialization (shared checkpoint container)
# ---------------------------------------------------------------------------

_TREE_ARRAYS = tuple(f.name for f in fields(Tree))


def baseline_checkpoint(member: BowMember) -> ModelCheckpoint:
    """A classical member as a checkpoint with its model-kind tag (NB1/SVM1/RF1).

    The vocabulary is one space-joined metadata entry, so a term that is
    empty or holds whitespace is refused: it would not split back.
    """
    m = member.model
    terms = m.vocab if member.kind == "nb" else member.vocab
    bad = next((t for t in terms if not is_token(t)), None)
    if bad is not None:
        raise ValueError(f"refusing to serialize the vocabulary term {bad!r}: "
                         "a term must be one non-empty token without whitespace")
    arrays: dict[str, np.ndarray] = {}
    metadata = {"kind": KINDS[member.kind].tag, "vocab": " ".join(terms)}
    if member.kind == "nb":
        arrays["log_prior"] = m.log_prior
        arrays["log_likelihood"] = m.log_likelihood
    else:
        arrays["idf"] = member.idf
        if member.kind == "svm":
            if not m.calibrated:
                raise ValueError("refusing to serialize an uncalibrated SVM")
            arrays["weights"] = m.weights
            arrays["bias"] = np.array([m.bias])
            arrays["platt"] = np.array([m.platt_a, m.platt_b])
        else:
            metadata["n_trees"] = str(len(m.trees))
            metadata["rf_seed"] = str(m.seed)
            for t, tree in enumerate(m.trees):
                for name in _TREE_ARRAYS:
                    arrays[f"tree{t}_{name}"] = getattr(tree, name)
    return ModelCheckpoint(epoch=0, arrays=arrays, metadata=metadata)


def _baseline_from_checkpoint(kind: str, cp: ModelCheckpoint) -> BowMember:
    if any(a.dtype == np.float32 for a in cp.arrays.values()):
        raise EnsembleError(f"{kind} checkpoint holds float32 arrays (an ECNN1 file); "
                            "classical members load only from exact ECNN2 checkpoints")
    terms = cp.metadata.get("vocab", "").split()
    vocab = {t: i for i, t in enumerate(terms)}
    a = cp.arrays
    if kind == "nb":
        return BowMember(kind, NbModel(vocab, a["log_prior"], a["log_likelihood"]))
    if kind == "svm":
        model = SvmModel(weights=a["weights"], bias=float(a["bias"][0]),
                         platt_a=float(a["platt"][0]), platt_b=float(a["platt"][1]))
        return BowMember(kind, model, vocab, a["idf"])
    trees = [Tree(**{name: a[f"tree{t}_{name}"] for name in _TREE_ARRAYS})
             for t in range(int(cp.metadata["n_trees"]))]
    model = RfModel(trees, seed=int(cp.metadata.get("rf_seed", "0")))
    return BowMember(kind, model, vocab, a["idf"])
