"""Tokenization, lexicon/cluster features, auxiliary vectors, char encoding.

The engineered auxiliary vector has a fixed 154-entry layout:
[abuse_presence, abuse_count, slang_presence, slang_count, cluster_hot[0..150)].
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import read_lines

URL_TOKEN = "<url>"
USER_TOKEN = "<user>"
_PLACEHOLDERS = frozenset((URL_TOKEN, USER_TOKEN))

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
_COMMENT_RE = re.compile(r"#(?:\s|$)")
_STRIP_CHARS = string.punctuation

N_CLUSTERS = 150
AUX_DIM = 4 + N_CLUSTERS

# Characters with their own index: letters, digits, 32 punctuation marks and
# the space. Index 0 is padding, index 1 is "unknown"; charset chars start at 2.
CHARSET = "abcdefghijklmnopqrstuvwxyz0123456789-,;.!?:'\"/\\|_@#$%^&*~`+=<>()[]{} "
PAD_INDEX = 0
UNKNOWN_INDEX = 1
CHARSET_SIZE = len(CHARSET) + 2
MAX_CHARS = 280
_CHAR_INDEX = {c: i + 2 for i, c in enumerate(CHARSET)}

MAX_APPEND = 10  # synonyms appended to one token sequence at most

TokenSeq = list[str]


def tokenize(text: str) -> TokenSeq:
    """Lowercase and split a text into tokens.

    URLs become ``<url>``, @-mentions become ``<user>``, the split is on
    whitespace, and leading/trailing punctuation is stripped from each token
    except that hashtags keep their leading ``#``. Tokens that strip to
    nothing are dropped; an empty input yields an empty list.
    """
    text = text.lower()
    text = _URL_RE.sub(f" {URL_TOKEN} ", text)
    text = _MENTION_RE.sub(f" {USER_TOKEN} ", text)
    tokens: TokenSeq = []
    for raw in text.split():
        if raw in _PLACEHOLDERS:
            tokens.append(raw)
            continue
        if raw.startswith("#"):
            body = raw[1:].strip(_STRIP_CHARS)
            if body:
                tokens.append("#" + body)
            continue
        tok = raw.strip(_STRIP_CHARS)
        if tok:
            tokens.append(tok)
    return tokens


def is_token(text: str) -> bool:
    """True iff text is non-empty and holds no whitespace, as every tokenize() output is."""
    return text.split() == [text]


def _skipped(line: str) -> bool:
    """True for a blank line or a comment: ``#`` then whitespace or the line end.

    ``#420`` is a term, not a comment, since tokenize keeps hashtags.
    """
    return not line or _COMMENT_RE.match(line) is not None


def _term(text: str) -> str:
    """text, refused unless tokenize gives back just its lowercase: else it could never match."""
    if tokenize(text) != [text.lower()]:
        raise ValueError(f"term {text!r} can never match, since tokenize gives {tokenize(text)}; "
                         "a term that is empty or holds whitespace, edge punctuation, a URL or "
                         "a mention is not one token")
    return text


@dataclass(frozen=True)
class Lexicon:
    """A set of lowercase terms, optionally length-filtered at load time."""

    terms: frozenset[str]

    @classmethod
    def from_terms(cls, terms: Iterable[str], min_length: int = 1) -> "Lexicon":
        return cls(frozenset(t.lower() for t in terms if len(t) >= min_length))

    def __contains__(self, term: str) -> bool:
        return term in self.terms

    def __len__(self) -> int:
        return len(self.terms)


def load_lexicon(path, min_length: int = 1) -> Lexicon:
    """Load a one-term-per-line lexicon; a term is one token, ``# ...`` lines are comments.

    min_length drops shorter terms at load time (the drug-slang lexicon is
    loaded with min_length=6, i.e. terms longer than five characters).
    """
    def parse(line: str, lineno: int) -> str | None:
        line = line.strip()
        return None if _skipped(line) else _term(line)
    return Lexicon.from_terms(read_lines(path, "lexicon", parse), min_length=min_length)


@dataclass(frozen=True)
class ClusterMap:
    """term -> cluster id in [0, 150)."""

    assignments: dict[str, int]

    def __post_init__(self):
        for term, cid in self.assignments.items():
            if not 0 <= cid < N_CLUSTERS:
                raise ValueError(f"cluster id {cid} for {term!r} outside [0, {N_CLUSTERS})")

    def get(self, term: str) -> int | None:
        return self.assignments.get(term)


def load_cluster_map(path) -> ClusterMap:
    """Load ``term<TAB>cluster_id`` lines; a term is one token, ``# ...`` lines are comments."""
    def parse(line: str, lineno: int) -> tuple[str, int] | None:
        if _skipped(line):
            return None
        parts = line.split("\t")
        if len(parts) != 2 or not re.fullmatch(r"-?[0-9]+", parts[1]):
            raise ValueError("expected term<TAB>cluster_id")
        cid = int(parts[1])
        if not 0 <= cid < N_CLUSTERS:
            raise ValueError(f"cluster id {cid} outside [0, {N_CLUSTERS})")
        return _term(parts[0]).lower(), cid
    return ClusterMap(dict(read_lines(path, "cluster map", parse)))


@dataclass(frozen=True)
class SynonymMap:
    """term -> synonyms; self-mappings are dropped at construction.

    A synonym is appended to a token sequence, so it must be one token.
    """

    entries: dict[str, tuple[str, ...]]

    @classmethod
    def from_entries(cls, entries: dict[str, Sequence[str]]) -> "SynonymMap":
        cleaned = {}
        for term, syns in entries.items():
            bad = next((s for s in syns if not is_token(s)), None)
            if bad is not None:
                raise ValueError(f"synonym {bad!r} of {term!r} is not a single token")
            term = term.lower()
            kept = tuple(dict.fromkeys(s.lower() for s in syns if s.lower() != term))
            if kept:
                cleaned[term] = kept
        return cls(cleaned)

    def get(self, term: str) -> tuple[str, ...]:
        return self.entries.get(term, ())


def load_synonym_map(path) -> SynonymMap:
    """Load ``term<TAB>syn1,syn2,...`` lines; ``# ...`` lines are comments.

    The term and each synonym are single tokens.
    """
    def parse(line: str, lineno: int) -> tuple[str, list[str]] | None:
        if _skipped(line):
            return None
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError("expected term<TAB>syn1,syn2,...")
        term = _term(parts[0])
        syns = [s for s in parts[1].split(",") if s]
        bad = next((s for s in syns if not is_token(s)), None)
        if bad is not None:
            raise ValueError(f"synonym {bad!r} is empty or holds whitespace; "
                             "synonyms are single tokens")
        return term, syns
    return SynonymMap.from_entries(dict(read_lines(path, "synonym map", parse)))


def expand_synonyms(tokens: TokenSeq, synonyms: SynonymMap) -> TokenSeq:
    """Append synonyms of known tokens to the sequence.

    Original tokens come first; synonyms follow in first-occurrence order,
    skipping anything already present (original token or earlier synonym),
    with at most MAX_APPEND appended.
    """
    seen = set(tokens)
    appended: TokenSeq = []
    for tok in tokens:
        for syn in synonyms.get(tok):
            if len(appended) >= MAX_APPEND:
                return tokens + appended
            if syn not in seen:
                seen.add(syn)
                appended.append(syn)
    return tokens + appended


def lexicon_features(tokens: TokenSeq, abuse: Lexicon, slang: Lexicon) -> np.ndarray:
    """[abuse presence, abuse count, slang presence, slang count].

    Counts are raw token-hit multiplicities; presence is 1 iff count > 0.
    """
    abuse_count = sum(1 for t in tokens if t in abuse)
    slang_count = sum(1 for t in tokens if t in slang)
    return np.array(
        [float(abuse_count > 0), float(abuse_count), float(slang_count > 0), float(slang_count)]
    )


def cluster_features(tokens: TokenSeq, clusters: ClusterMap) -> np.ndarray:
    """150-entry multi-hot presence vector over word clusters."""
    vec = np.zeros(N_CLUSTERS)
    for tok in tokens:
        cid = clusters.get(tok)
        if cid is not None:
            vec[cid] = 1.0
    return vec


def build_aux_vector(
    tokens: TokenSeq, abuse: Lexicon, slang: Lexicon, clusters: ClusterMap
) -> np.ndarray:
    """Fixed-layout 154-entry auxiliary feature vector."""
    vec = np.concatenate([lexicon_features(tokens, abuse, slang),
                          cluster_features(tokens, clusters)])
    assert vec.shape == (AUX_DIM,)
    return vec


def encode_chars(text: str) -> np.ndarray:
    """Encode a text as 280 charset indices.

    The text is lowercased, mapped char-by-char (unknown chars get index 1),
    truncated to 280 characters, and right-padded with index 0.
    """
    out = np.zeros(MAX_CHARS, dtype=np.int64)
    for i, ch in enumerate(text.lower()[:MAX_CHARS]):
        out[i] = _CHAR_INDEX.get(ch, UNKNOWN_INDEX)
    return out
