"""Pretrained word-embedding tables and the word ids of encoded texts.

A text's first MAX_TOKENS tokens become ids of rows in one matrix per set:
a token's table vector, or a deterministic pseudo-random vector for a
token the table lacks; row 0 is zeros and pads after the last token.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .corpus import read_lines
from .features import TokenSeq, is_token

MAX_TOKENS = 40


class EmbeddingError(ValueError):
    """Malformed embedding file."""


@dataclass
class EmbeddingTable:
    """term -> dense vector, all of length dim."""

    dim: int
    vectors: dict[str, np.ndarray]

    def __post_init__(self):
        if not self.vectors:
            raise EmbeddingError("embedding table must not be empty")
        for term, vec in self.vectors.items():
            if vec.shape != (self.dim,):
                raise EmbeddingError(f"vector for {term!r} has length {vec.shape}, expected {self.dim}")

    def __contains__(self, term: str) -> bool:
        return term in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)


def load_embeddings(path) -> EmbeddingTable:
    """Load a whitespace-separated text embedding file.

    An optional header line ``V D`` (two integers) is accepted; data lines are
    ``word v1 ... vD``. The width D is the header's, or else the first data
    line's. A line of another width or with no components, a duplicate word
    and a non-numeric or non-finite (nan, inf, 1e999) component are refused
    with their line numbers.
    """
    vectors: dict[str, np.ndarray] = {}
    declared_count = dim = width_from = None

    def parse(line: str, lineno: int) -> None:
        nonlocal declared_count, dim, width_from
        parts = line.split()
        if not parts:
            return
        if lineno == 1 and len(parts) == 2 and all(p.isascii() and p.isdigit() for p in parts):
            declared_count, dim = int(parts[0]), int(parts[1])
            width_from = "the header"
            return
        word, comps = parts[0], parts[1:]
        if not comps:
            raise ValueError(f"no components for {word!r}")
        if dim is None:
            dim, width_from = len(comps), f"line {lineno}"
        if len(comps) != dim:
            raise ValueError(f"{len(comps)} components for {word!r}, "
                             f"expected {dim} as set by {width_from}")
        if word in vectors:
            raise ValueError(f"duplicate word {word!r}")
        try:
            vec = np.array([float(c) for c in comps])
        except ValueError:
            raise ValueError(f"non-numeric component for {word!r}") from None
        finite = np.isfinite(vec)
        if not finite.all():
            raise ValueError(f"non-finite component {comps[np.argmin(finite)]!r} for {word!r}")
        vectors[word] = vec
    read_lines(path, "embeddings", parse, EmbeddingError)
    if declared_count is not None and declared_count != len(vectors):
        raise EmbeddingError(
            f"header declares {declared_count} words but file contains {len(vectors)}"
        )
    return EmbeddingTable(dim, vectors)


def save_embeddings(table: EmbeddingTable, path) -> None:
    """Write a table, with its ``V D`` header, in the format load_embeddings reads.

    A word is the first whitespace-separated field of its line, so a word
    that is empty or holds whitespace is refused: it would not read back.
    Nor would a non-finite component, which is refused too.
    """
    bad = next((w for w in table.vectors if not is_token(w)), None)
    if bad is not None:
        raise EmbeddingError(f"refusing to save the word {bad!r}: "
                             "a word must be one non-empty token without whitespace")
    bad = next((w for w, vec in table.vectors.items() if not np.isfinite(vec).all()), None)
    if bad is not None:
        raise EmbeddingError(f"refusing to save the vector of {bad!r}: "
                             "its components must be finite")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(table.vectors)} {table.dim}\n")
        for word, vec in table.vectors.items():
            fh.write(word + " " + " ".join(repr(float(v)) for v in vec) + "\n")


def oov_vector(token: str, dim: int) -> np.ndarray:
    """Deterministic pseudo-random vector for an out-of-vocabulary token.

    Seeded from a content hash of the token so the same token maps to the
    same vector across runs and processes; scaled to unit max-norm.
    """
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    vec = rng.uniform(-1.0, 1.0, dim)
    peak = np.abs(vec).max()
    return vec / peak if peak > 0 else vec


def encode_words(texts: list[TokenSeq], table: EmbeddingTable,
                 dtype) -> tuple[np.ndarray, np.ndarray]:
    """(N, MAX_TOKENS) ids of the texts' first tokens, and the (U, dim) rows they index."""
    ids = np.zeros((len(texts), MAX_TOKENS), dtype=np.int32)
    rows: dict[str, int] = {}
    for i, tokens in enumerate(texts):
        row_ids = [rows.setdefault(tok, len(rows) + 1) for tok in tokens[:MAX_TOKENS]]
        ids[i, :len(row_ids)] = row_ids
    vectors = [np.zeros(table.dim)]
    vectors += [table.vectors[w] if w in table else oov_vector(w, table.dim) for w in rows]
    return ids, np.array(vectors, dtype=dtype)
