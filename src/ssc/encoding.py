"""Bridge from datasets to the numeric arrays the models consume."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import features
from .corpus import Dataset
from .embeddings import MAX_TOKENS, EmbeddingTable, embed_words
from .features import ClusterMap, Lexicon, SynonymMap, TokenSeq
from .nn import default_dtype


@dataclass
class EncodedSet:
    """Parallel arrays for a dataset: word matrices, char indices, aux, labels.

    word is (N, 40, dim) or None, char is (N, 280) or None, aux is
    (N, 154), labels is (N,) or None. tokens keeps the (expanded) token
    sequences for the bag-of-words baselines.
    """

    aux: np.ndarray
    word: np.ndarray | None = None
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
            char=None if self.char is None else self.char[idx],
            labels=None if self.labels is None else self.labels[idx],
            tokens=None if self.tokens is None else [self.tokens[i] for i in idx],
        )


@dataclass(frozen=True)
class FeatureContext:
    """Everything needed to turn raw text into model inputs."""

    abuse: Lexicon
    slang: Lexicon
    clusters: ClusterMap
    synonyms: SynonymMap | None = None
    table: EmbeddingTable | None = None
    max_append: int = 10


def encode_dataset(
    dataset: Dataset,
    ctx: FeatureContext,
    with_word: bool = True,
    with_char: bool = True,
    dtype=None,
) -> EncodedSet:
    """Tokenize and vectorize every item of a dataset.

    The auxiliary vector is computed from the raw tokens; synonym expansion
    (when a synonym map is present) applies to the token stream fed to the
    word model and the bag-of-words baselines. The character path encodes
    the raw text. Requires an embedding table when with_word is set.
    """
    dtype = dtype or default_dtype()
    n = len(dataset)
    aux = np.zeros((n, features.AUX_DIM), dtype=dtype)
    word = None
    if with_word:
        if ctx.table is None:
            raise ValueError("word encoding requires an embedding table")
        word = np.zeros((n, MAX_TOKENS, ctx.table.dim), dtype=dtype)
    char = np.zeros((n, features.MAX_CHARS), dtype=np.int64) if with_char else None
    labels = np.zeros(n, dtype=np.int64) if dataset.all_labeled else None
    token_seqs: list[TokenSeq] = []

    for i, tweet in enumerate(dataset):
        tokens = features.tokenize(tweet.text)
        aux[i] = features.build_aux_vector(tokens, ctx.abuse, ctx.slang, ctx.clusters)
        if ctx.synonyms is not None:
            tokens = features.expand_synonyms(tokens, ctx.synonyms, ctx.max_append)
        token_seqs.append(tokens)
        if word is not None:
            word[i] = embed_words(tokens, ctx.table, dtype=dtype)
        if char is not None:
            char[i] = features.encode_chars(tweet.text)
        if labels is not None:
            labels[i] = tweet.label

    return EncodedSet(aux=aux, word=word, char=char, labels=labels, tokens=token_seqs)
