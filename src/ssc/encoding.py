"""Bridge from datasets to the numeric arrays the models consume; the member kinds and rosters.

A FeatureContext holds the feature resources as the plain containers that
their loaders return, each checked once when read: a frozenset and two
dicts from features, and the word -> vector dict from embeddings (or None).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import features
from .corpus import Dataset
from .embeddings import encode_words
from .features import TokenSeq
from .nn import default_dtype


@dataclass(frozen=True)
class Kind:
    """A KINDS entry: its ensemble and encoded inputs. A checkpoint's "kind" entry is its name."""

    ensemble: str       # "ensemble_cnn" | "ensemble_ml"
    word: bool = False  # reads the word ids and vectors
    char: bool = False  # reads the character indices
    aux: bool = False   # a CNN whose output layer also reads the aux vector
    tfidf: bool = False  # a classical kind that reads the TF-IDF rows; without it, the tokens


KINDS = {
    "char_aux": Kind("ensemble_cnn", char=True, aux=True),
    "char_cnn": Kind("ensemble_cnn", char=True),
    "word_aux": Kind("ensemble_cnn", word=True, aux=True),
    "svm": Kind("ensemble_ml", tfidf=True),
    "rf": Kind("ensemble_ml", tfidf=True),
    "nb": Kind("ensemble_ml"),
}
CNN_KINDS = tuple(k for k, spec in KINDS.items() if spec.ensemble == "ensemble_cnn")
ML_KINDS = tuple(k for k, spec in KINDS.items() if spec.ensemble == "ensemble_ml")
# Each ensemble's strict composition: two members of each of its kinds.
COMPOSITIONS = {"ensemble_cnn": Counter(dict.fromkeys(CNN_KINDS, 2)),
                "ensemble_ml": Counter(dict.fromkeys(ML_KINDS, 2))}


@dataclass
class EncodedSet:
    """Parallel arrays for a dataset: word ids, char indices, aux, labels.

    word is (N, 40) ids into vectors, the (U, dim) word rows that a subset
    shares; char is (N, 280), aux (N, 154), labels (N,); all but aux may be
    None. tokens keeps the (expanded) token sequences for the baselines.
    """

    aux: np.ndarray
    word: np.ndarray | None = None
    vectors: np.ndarray | None = None
    char: np.ndarray | None = None
    labels: np.ndarray | None = None
    tokens: list[TokenSeq] | None = None

    def __len__(self) -> int:
        return self.aux.shape[0]

    def subset(self, idx) -> "EncodedSet":
        idx = np.asarray(idx)
        return EncodedSet(
            aux=self.aux[idx],
            word=None if self.word is None else self.word[idx],
            vectors=self.vectors,
            char=None if self.char is None else self.char[idx],
            labels=None if self.labels is None else self.labels[idx],
            tokens=None if self.tokens is None else [self.tokens[i] for i in idx],
        )


@dataclass(frozen=True)
class FeatureContext:
    """Everything needed to turn raw text into model inputs; an absent resource file reads as empty."""

    abuse: frozenset[str]
    slang: frozenset[str]
    clusters: dict[str, int]
    synonyms: dict[str, tuple[str, ...]]
    table: dict[str, np.ndarray] | None = None  # word -> vector, as load_embeddings returns


def encode_dataset(
    dataset: Dataset,
    ctx: FeatureContext,
    with_word: bool = True,
    with_char: bool = True,
) -> EncodedSet:
    """Tokenize and vectorize every item of a dataset.

    The auxiliary vector is computed from the raw tokens; synonym expansion
    applies to the token stream fed to the word model and the bag-of-words
    baselines. The character path encodes the raw text. Requires an
    embedding table when with_word is set. Float arrays take the default
    dtype (SSC_PRECISION).
    """
    dtype = default_dtype()
    n = len(dataset)
    aux = np.zeros((n, features.AUX_DIM), dtype=dtype)
    if with_word and ctx.table is None:
        raise ValueError("word encoding requires an embedding table")
    char = np.zeros((n, features.MAX_CHARS), dtype=np.int64) if with_char else None
    labels = np.zeros(n, dtype=np.int64) if dataset.all_labeled else None
    token_seqs: list[TokenSeq] = []

    for i, tweet in enumerate(dataset):
        tokens = features.tokenize(tweet.text)
        aux[i] = features.aux_vector(tokens, ctx.abuse, ctx.slang, ctx.clusters)
        token_seqs.append(features.expand_synonyms(tokens, ctx.synonyms))
        if char is not None:
            char[i] = features.encode_chars(tweet.text)
        if labels is not None:
            labels[i] = tweet.label

    word, vectors = encode_words(token_seqs, ctx.table, dtype) if with_word else (None, None)
    return EncodedSet(aux=aux, word=word, vectors=vectors, char=char, labels=labels,
                      tokens=token_seqs)
