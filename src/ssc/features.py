"""Tokenization, the feature resources, the auxiliary vector, synonym expansion, char encoding.

The resources are plain containers, checked once where their files are
read: a lexicon is a frozenset of lowercased terms, a cluster map a dict
term -> cluster id, a synonym map a dict term -> synonyms. A term set twice
in one map file is refused. The auxiliary vector has a fixed 154-entry layout:
[abuse_presence, abuse_count, slang_presence, slang_count, cluster_hot[0..150)].
"""

from __future__ import annotations

import re
import string

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


def _set_once(first_line: dict[str, int], term: str, lineno: int) -> str:
    """term, refused when an earlier line of the same map set it: else the last line would win."""
    if first_line.setdefault(term, lineno) != lineno:
        raise ValueError(f"term {term!r} is set again (first set on line {first_line[term]})")
    return term


def load_lexicon(path, min_length: int = 1) -> frozenset[str]:
    """The lowercased terms of a one-term-per-line lexicon; ``# ...`` lines are comments.

    min_length drops shorter terms at load time (the drug-slang lexicon is
    loaded with min_length=6, i.e. terms longer than five characters). A term
    is one token; a repeated term is harmless, since a lexicon is a set.
    """
    def parse(line: str, lineno: int) -> str | None:
        line = line.strip()
        return None if _skipped(line) else _term(line)
    return frozenset(t.lower() for t in read_lines(path, "lexicon", parse) if len(t) >= min_length)


def load_cluster_map(path) -> dict[str, int]:
    """term -> cluster id in [0, 150), from ``term<TAB>cluster_id`` lines.

    A term is one token, set on one line only (up to case); ``# ...`` lines are comments.
    """
    first_line: dict[str, int] = {}

    def parse(line: str, lineno: int) -> tuple[str, int] | None:
        if _skipped(line):
            return None
        parts = line.split("\t")
        if len(parts) != 2 or not re.fullmatch(r"-?[0-9]+", parts[1]):
            raise ValueError("expected term<TAB>cluster_id")
        cid = int(parts[1])
        if not 0 <= cid < N_CLUSTERS:
            raise ValueError(f"cluster id {cid} outside [0, {N_CLUSTERS})")
        return _set_once(first_line, _term(parts[0]).lower(), lineno), cid
    return dict(read_lines(path, "cluster map", parse))


def load_synonym_map(path) -> dict[str, tuple[str, ...]]:
    """term -> its synonyms, from ``term<TAB>syn1,syn2,...`` lines; ``# ...`` lines are comments.

    The term and each synonym are single tokens, and a term is set on one
    line only (up to case). Both are lowercased; a synonym equal to its term
    or to an earlier synonym is dropped, and so is a term with none left.
    """
    first_line: dict[str, int] = {}

    def parse(line: str, lineno: int) -> tuple[str, tuple[str, ...]] | None:
        if _skipped(line):
            return None
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError("expected term<TAB>syn1,syn2,...")
        term = _term(parts[0]).lower()
        syns = [s for s in parts[1].split(",") if s]
        bad = next((s for s in syns if not is_token(s)), None)
        if bad is not None:
            raise ValueError(f"synonym {bad!r} is empty or holds whitespace; "
                             "synonyms are single tokens")
        syns = tuple(dict.fromkeys(s.lower() for s in syns if s.lower() != term))
        return _set_once(first_line, term, lineno), syns
    return {term: syns for term, syns in read_lines(path, "synonym map", parse) if syns}


def expand_synonyms(tokens: TokenSeq, synonyms: dict[str, tuple[str, ...]]) -> TokenSeq:
    """Append synonyms of known tokens to the sequence.

    Original tokens come first; synonyms follow in first-occurrence order,
    skipping anything already present (original token or earlier synonym),
    with at most MAX_APPEND appended.
    """
    seen = set(tokens)
    appended: TokenSeq = []
    for tok in tokens:
        for syn in synonyms.get(tok, ()):
            if len(appended) >= MAX_APPEND:
                return tokens + appended
            if syn not in seen:
                seen.add(syn)
                appended.append(syn)
    return tokens + appended


def aux_vector(tokens: TokenSeq, abuse: frozenset[str], slang: frozenset[str],
               clusters: dict[str, int]) -> np.ndarray:
    """The 154-entry auxiliary vector of a token sequence, in one pass.

    [abuse presence, abuse count, slang presence, slang count] counts raw
    token hits, presence being 1 iff the count is positive; cluster_hot[c]
    is 1 iff some token is in cluster c.
    """
    vec = np.zeros(AUX_DIM)
    abuse_count = slang_count = 0
    for tok in tokens:
        abuse_count += tok in abuse
        slang_count += tok in slang
        cid = clusters.get(tok)
        if cid is not None:
            vec[4 + cid] = 1.0
    vec[:4] = (abuse_count > 0, abuse_count, slang_count > 0, slang_count)
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
