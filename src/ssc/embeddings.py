"""Pretrained word-embedding tables and the word ids of encoded texts.

An embedding table is a plain dict of word -> 1-D vector, in file order,
every vector of one length; load_embeddings checks this once where the file
is read, and save_embeddings where one is written. A text's first
MAX_TOKENS tokens become ids of rows in one matrix per set: a token's table
vector, or a deterministic pseudo-random vector for a token the table
lacks; row 0 is zeros and pads after the last token.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .corpus import read_lines
from .features import TokenSeq, is_token

MAX_TOKENS = 40


class EmbeddingError(ValueError):
    """Malformed embedding file."""


def load_embeddings(path) -> dict[str, np.ndarray]:
    """Load a whitespace-separated text embedding file as word -> vector, in file order.

    An optional header line ``V D`` (two integers) is accepted; data lines are
    ``word v1 ... vD``. The width D is the header's, or else the first data
    line's. A line of another width or with no components, a duplicate word
    and a non-numeric or non-finite (nan, inf, 1e999) component are refused
    with their line numbers; a file with no word, or with another word count
    than its header declares, is refused naming the file.
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
    if not vectors:
        raise EmbeddingError(f"malformed embeddings file {path}: it holds no word")
    if declared_count is not None and declared_count != len(vectors):
        raise EmbeddingError(f"malformed embeddings file {path}: header declares "
                             f"{declared_count} words but file contains {len(vectors)}")
    return vectors


def save_embeddings(vectors: dict[str, np.ndarray], path) -> None:
    """Write word -> vector, with its ``V D`` header, in the format load_embeddings reads.

    Whatever would not read back is refused: an empty mapping, vectors that
    are not all 1-D of one non-zero length, a word that is empty or holds
    whitespace (a word is the first whitespace-separated field of its line)
    and a non-finite component.
    """
    if not vectors:
        raise EmbeddingError("refusing to save an empty table: a file with no word does not load")
    first = next(iter(vectors.values()))
    shape = first.shape if first.ndim == 1 and len(first) else None
    bad = next((w for w, vec in vectors.items() if vec.shape != shape), None)
    if bad is not None:
        raise EmbeddingError(f"refusing to save the vector of {bad!r}: its shape is "
                             f"{vectors[bad].shape}, and all must be 1-D of one non-zero length")
    bad = next((w for w in vectors if not is_token(w)), None)
    if bad is not None:
        raise EmbeddingError(f"refusing to save the word {bad!r}: "
                             "a word must be one non-empty token without whitespace")
    bad = next((w for w, vec in vectors.items() if not np.isfinite(vec).all()), None)
    if bad is not None:
        raise EmbeddingError(f"refusing to save the vector of {bad!r}: "
                             "its components must be finite")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(vectors)} {len(first)}\n")
        for word, vec in vectors.items():
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


def encode_words(texts: list[TokenSeq], vectors: dict[str, np.ndarray],
                 dtype) -> tuple[np.ndarray, np.ndarray]:
    """(N, MAX_TOKENS) ids of the texts' first tokens, and the (U, dim) rows they index."""
    ids = np.zeros((len(texts), MAX_TOKENS), dtype=np.int32)
    rows: dict[str, int] = {}
    for i, tokens in enumerate(texts):
        row_ids = [rows.setdefault(tok, len(rows) + 1) for tok in tokens[:MAX_TOKENS]]
        ids[i, :len(row_ids)] = row_ids
    dim = len(next(iter(vectors.values())))
    matrix = [np.zeros(dim)]
    matrix += [vectors[w] if w in vectors else oov_vector(w, dim) for w in rows]
    return ids, np.array(matrix, dtype=dtype)
