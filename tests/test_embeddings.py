import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import embed_words, fixture_context
from ssc import embeddings, nn, synth
from ssc.embeddings import (
    EmbeddingError,
    encode_words,
    load_embeddings,
    oov_vector,
    save_embeddings,
)
from ssc.encoding import encode_dataset
from ssc.features import is_token

FIXTURE = "cat 0.1 0.2 0.3 0.4\ndog -1.0 0.0 0.5 2.0\nfish 1 2 3 4\n"


def test_load_fixture(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text(FIXTURE)
    table = load_embeddings(p)
    assert list(table) == ["cat", "dog", "fish"]
    assert all(vec.shape == (4,) for vec in table.values())
    assert np.allclose(table["dog"], [-1.0, 0.0, 0.5, 2.0])


def test_header_accepted(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("3 4\n" + FIXTURE)
    assert len(load_embeddings(p)) == 3


def test_header_dim_mismatch(tmp_path):
    # The header sets the width, so the first data line is the one at fault.
    p = tmp_path / "emb.txt"
    p.write_text("3 5\n" + FIXTURE)
    with pytest.raises(EmbeddingError, match="line 2: 4 components.*expected 5.*the header"):
        load_embeddings(p)


@pytest.mark.parametrize("text, declared, found", [("7 4\n" + FIXTURE, 7, 3),
                                                  ("3 2\ncat 1 2\n", 3, 1)])
def test_header_count_mismatch_names_the_file(tmp_path, text, declared, found):
    p = tmp_path / "emb.txt"
    p.write_text(text)
    with pytest.raises(EmbeddingError) as exc:
        load_embeddings(p)
    assert str(exc.value) == (f"malformed embeddings file {p}: header declares {declared} "
                              f"words but file contains {found}")


def test_non_ascii_digit_header_names_line_number(tmp_path):
    # Not a "V D" header, so line 1 is read as a (too short) data line.
    p = tmp_path / "emb.txt"
    p.write_text("3 \u00b2\n" + FIXTURE, encoding="utf-8")
    with pytest.raises(EmbeddingError, match="line 1"):
        load_embeddings(p)


def test_short_line_names_line_number(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("cat 0.1 0.2 0.3 0.4\ndog 1 2 3\n")
    with pytest.raises(EmbeddingError, match="line 2: 3 components.*expected 4.*line 1"):
        load_embeddings(p)


@pytest.mark.parametrize("text, lineno", [("cat\ndog 1 2\n", 1), ("cat 1 2\n\ndog\n", 3),
                                          ("2 2\ncat\ndog 1 2\n", 2)])
def test_word_without_components_names_line_number(tmp_path, text, lineno):
    p = tmp_path / "emb.txt"
    p.write_text(text)
    with pytest.raises(EmbeddingError, match=f"line {lineno}: no components for"):
        load_embeddings(p)


def test_duplicate_word(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("cat 1 2 3 4\ncat 5 6 7 8\n")
    with pytest.raises(EmbeddingError, match="duplicate"):
        load_embeddings(p)


def test_non_numeric_component(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("cat 1 2 x 4\n")
    with pytest.raises(EmbeddingError, match="non-numeric"):
        load_embeddings(p)


@pytest.mark.parametrize("component", ["nan", "inf", "-inf", "1e999", "NaN"])
def test_non_finite_component_names_line_and_word(tmp_path, component):
    # A nan or inf would load and only stop a word model at its first non-finite loss.
    p = tmp_path / "emb.txt"
    p.write_text(f"cat 1 2 3\nweed 0.1 {component} 0.3\n")
    with pytest.raises(EmbeddingError,
                       match=f"line 2: non-finite component '{component}' for 'weed'"):
        load_embeddings(p)


@pytest.mark.parametrize("text", ["", "\n\n", "0 5\n", "3 2\n"])
def test_file_with_no_word_refused_naming_the_file(tmp_path, text):
    p = tmp_path / "emb.txt"
    p.write_text(text)
    with pytest.raises(EmbeddingError) as exc:
        load_embeddings(p)
    assert str(exc.value) == f"malformed embeddings file {p}: it holds no word"


def test_save_refuses_an_empty_table(tmp_path):
    p = tmp_path / "emb.txt"
    with pytest.raises(EmbeddingError, match="empty table"):
        save_embeddings({}, p)
    assert not p.exists()


@pytest.mark.parametrize("vectors, word", [
    ({"ok": np.array([1.0, 2.0]), "weed": np.array([1.0, 2.0, 3.0])}, "weed"),
    ({"ok": np.array([1.0, 2.0]), "weed": np.array([[1.0, 2.0]])}, "weed"),
    ({"ok": np.array([[1.0, 2.0]]), "weed": np.array([[1.0, 2.0]])}, "ok"),
    ({"ok": np.array(1.0)}, "ok"),
    ({"ok": np.array([])}, "ok"),
])
def test_save_refuses_vectors_not_all_1d_of_one_length(tmp_path, vectors, word):
    # Each would write a file that load_embeddings refuses.
    p = tmp_path / "emb.txt"
    with pytest.raises(EmbeddingError, match=f"vector of '{word}': its shape is"):
        save_embeddings(vectors, p)
    assert not p.exists()


def test_save_load_round_trip(tmp_path):
    table = {"a": np.array([0.25, -1.5, 3.0]), "b": np.array([1e-8, 2.0, -0.125])}
    p = tmp_path / "emb.txt"
    save_embeddings(table, p)
    loaded = load_embeddings(p)
    assert list(loaded) == list(table)
    for word in table:
        assert np.array_equal(loaded[word], table[word])


# Any word save_embeddings accepts, any width, any finite components; the
# file is read back with its header and, its first line dropped, without.
@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 6), header=st.booleans(), data=st.data())
def test_save_load_round_trip_property(dim, header, data):
    words = data.draw(st.lists(st.text(st.characters(codec="utf-8"), min_size=1, max_size=6)
                               .filter(is_token), min_size=1, max_size=6, unique=True))
    components = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=dim, max_size=dim)
    table = {w: np.array(data.draw(components)) for w in words}
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "emb.txt"
        save_embeddings(table, p)
        if not header:
            lines = p.read_text(encoding="utf-8").split("\n")
            p.write_text("\n".join(lines[1:]), encoding="utf-8")
        loaded = load_embeddings(p)
    assert list(loaded) == words
    for word in words:
        assert loaded[word].shape == (dim,) and np.array_equal(loaded[word], table[word])


@pytest.mark.parametrize("word", ["a\xa0b", "a b", "a\tb", "", "\u2028"])
def test_save_refuses_word_that_would_not_read_back(tmp_path, word):
    table = {"ok": np.array([1.0, 2.0]), word: np.array([3.0, 4.0])}
    p = tmp_path / "emb.txt"
    with pytest.raises(EmbeddingError, match=re.escape(f"word {word!r}")):
        save_embeddings(table, p)
    assert not p.exists()


@pytest.mark.parametrize("component", [np.nan, np.inf, -np.inf])
def test_save_refuses_non_finite_component(tmp_path, component):
    table = {"ok": np.array([1.0, 2.0]), "weed": np.array([3.0, component])}
    p = tmp_path / "emb.txt"
    with pytest.raises(EmbeddingError, match="vector of 'weed'"):
        save_embeddings(table, p)
    assert not p.exists()


class TestEmbedWords:
    """A text's word rows, gathered from the ids and vectors encode_words returns."""

    TABLE = {"cat": np.array([0.1, 0.2, 0.3, 0.4]), "dog": np.array([-1.0, 0.0, 0.5, 2.0])}

    def embed(self, tokens, dtype=np.float64):
        ids, vectors = encode_words([tokens], self.TABLE, dtype)
        return vectors[ids[0]]

    def test_empty_tokens_all_zero(self):
        out = self.embed([])
        assert out.shape == (40, 4) and not out.any()

    def test_known_token_exact_lookup(self):
        out = self.embed(["cat"])
        assert np.allclose(out[0], [0.1, 0.2, 0.3, 0.4])
        assert not out[1:].any()

    def test_truncation_keeps_first_40(self):
        tokens = [f"w{i}" for i in range(50)]
        out = self.embed(tokens)
        assert out.shape == (40, 4)
        # row 39 is token w39, and w40+ are dropped
        assert np.allclose(out[39], oov_vector("w39", 4))

    def test_oov_deterministic(self):
        a = self.embed(["unseen"])
        b = self.embed(["unseen"])
        assert np.array_equal(a, b)

    def test_oov_unit_max_norm(self):
        vec = oov_vector("whatever", 16)
        assert np.isclose(np.abs(vec).max(), 1.0)

    def test_oov_distinct_tokens_differ(self):
        assert not np.array_equal(oov_vector("aa", 8), oov_vector("ab", 8))

    def test_oov_content_hash_not_process_hash(self):
        # Stable across processes: derived from sha256 of the token bytes.
        import hashlib
        seed = int.from_bytes(hashlib.sha256(b"token").digest()[:8], "little")
        rng = np.random.default_rng(seed)
        expect = rng.uniform(-1.0, 1.0, 6)
        expect /= np.abs(expect).max()
        assert np.allclose(oov_vector("token", 6), expect)

    def test_output_dtype(self):
        out = self.embed(["cat"], dtype=np.float32)
        assert out.dtype == np.float32


class TestWordIds:
    TABLE = TestEmbedWords.TABLE
    # Table tokens, an OOV token, a repeated token, more than 40 tokens, none.
    TEXTS = [["cat", "dog"], ["unseen", "cat"], ["dog", "dog", "dog"],
             [f"w{i % 45}" for i in range(50)], []]

    def test_gathered_batch_equals_oracle(self):
        dtype = nn.default_dtype()
        ids, vectors = encode_words(self.TEXTS, self.TABLE, dtype)
        got = nn.embedding_lookup(vectors, ids).data
        expected = np.stack([embed_words(t, self.TABLE, dtype) for t in self.TEXTS])
        assert got.dtype == dtype and got.tobytes() == expected.tobytes()

    def test_one_row_per_distinct_token_after_the_padding_row(self):
        ids, vectors = encode_words(self.TEXTS, self.TABLE, np.float64)
        distinct = {t for text in self.TEXTS for t in text[:40]}
        assert vectors.shape == (1 + len(distinct), 4) and not vectors[0].any()
        assert ids.shape == (5, 40) and np.issubdtype(ids.dtype, np.integer)
        assert len(set(ids[2, :3])) == 1 and not ids[2, 3:].any()
        assert sorted(np.unique(ids[ids > 0])) == list(range(1, len(vectors)))

    def test_each_distinct_oov_vector_computed_once(self, monkeypatch):
        calls = []

        def counting(token, dim):
            calls.append(token)
            return oov_vector(token, dim)

        monkeypatch.setattr(embeddings, "oov_vector", counting)
        encode_words(self.TEXTS + self.TEXTS, self.TABLE, np.float64)
        assert sorted(calls) == sorted({"unseen"} | {f"w{i}" for i in range(40)})

    def test_encoded_set_gathers_oracle_rows(self):
        ds = synth.generate_dataset(15, 15, seed=4)
        ctx = fixture_context(6)
        enc = encode_dataset(ds, ctx, with_char=False)
        dtype = nn.default_dtype()
        expected = np.stack([embed_words(t, ctx.table, dtype) for t in enc.tokens])
        assert enc.vectors.dtype == dtype
        assert enc.vectors[enc.word].tobytes() == expected.tobytes()

    def test_subset_copies_ids_and_shares_vectors(self):
        ds = synth.generate_dataset(5, 5, seed=4)
        enc = encode_dataset(ds, fixture_context(6), with_char=False)
        sub = enc.subset([3, 0])
        assert sub.vectors is enc.vectors
        assert np.array_equal(sub.word, enc.word[[3, 0]])
        assert not np.shares_memory(sub.word, enc.word)
