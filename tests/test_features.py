import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import aux_vector_oracle, fixture_context
from ssc import synth
from ssc.encoding import encode_dataset
from ssc.features import (
    AUX_DIM,
    CHARSET_SIZE,
    MAX_APPEND,
    MAX_CHARS,
    aux_vector,
    encode_chars,
    expand_synonyms,
    load_cluster_map,
    load_lexicon,
    load_synonym_map,
    tokenize,
)
from ssc.nn import default_dtype

ABUSE = frozenset(["high", "overdose", "snorting"])
SLANG = frozenset(["zooted", "blitzed"])
CLUSTERS = {"weed": 7, "oxy": 7, "heroin": 12}
# Lexicon and cluster words, hashtags among them, and words in neither.
AUX_WORDS = ["high", "overdose", "zooted", "blitzed", "weed", "oxy", "#420", "#weed", "a", "b"]


def _write(tmp_path, text, name="terms.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestTokenize:
    def test_lowercase_and_punct_strip(self):
        assert tokenize("Love This!") == ["love", "this"]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_url_mention_hashtag(self):
        # Each rule applied by hand: URL token, user token, hashtag kept.
        assert tokenize("high af http://t.co/x @bob #weed") == [
            "high", "af", "<url>", "<user>", "#weed"]

    def test_www_url(self):
        assert tokenize("see www.example.com now") == ["see", "<url>", "now"]

    def test_interior_punctuation_kept(self):
        assert tokenize("don't stop") == ["don't", "stop"]

    def test_pure_punctuation_dropped(self):
        assert tokenize("!!! ... ???") == []

    def test_hashtag_only_hash_dropped(self):
        assert tokenize("# #!") == []

    @given(st.text(max_size=120))
    def test_idempotent_on_joined_output(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

    @given(st.text(max_size=120))
    def test_no_empty_tokens(self, text):
        assert all(tokenize(text))


class TestLexicon:
    def test_load_skips_comments_and_blanks(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("# comment\nhigh\n\nOverdose\n")
        lex = load_lexicon(p)
        assert "high" in lex and "overdose" in lex and len(lex) == 2

    def test_hashtag_term_is_not_a_comment(self, tmp_path):
        # tokenize keeps hashtags, so "#420" is a term; "#" then space or nothing is a comment.
        assert tokenize("smoking #420 today") == ["smoking", "#420", "today"]
        p = tmp_path / "lex.txt"
        p.write_text("# header\n#420\n#\n#\tnote\nzooted\n")
        assert load_lexicon(p) == {"#420", "zooted"}

    @pytest.mark.parametrize("term", ["no cap", "no\tcap", "blunt\u00a0wrap"])
    def test_term_with_whitespace_named_with_line(self, tmp_path, term):
        # No token holds whitespace, so such a term could never match.
        p = tmp_path / "lex.txt"
        p.write_text(f"high\n{term}\n", encoding="utf-8")
        with pytest.raises(ValueError,
                           match=r"lexicon file .*lex\.txt:\nline 2: term .* holds whitespace"):
            load_lexicon(p)

    def test_short_slang_excluded_at_load(self, tmp_path):
        # "coke" (4 chars) must not survive the longer-than-five filter.
        p = tmp_path / "slang.txt"
        p.write_text("coke\nzooted\nblitzed\n")
        lex = load_lexicon(p, min_length=6)
        assert "coke" not in lex and "zooted" in lex

    def test_short_slang_contributes_nothing(self, tmp_path):
        slang = load_lexicon(_write(tmp_path, "coke\nzooted\n"), min_length=6)
        assert aux_vector(["coke", "zooted"], frozenset(), slang, {})[:4].tolist() == [0, 0, 1, 1]

    def test_repeated_term_is_harmless(self, tmp_path):
        assert load_lexicon(_write(tmp_path, "high\nHigh\nhigh\n")) == {"high"}


# Each term file's loader and its line with the term at {}.
TERM_FILES = {
    "lexicon": (load_lexicon, "{}"),
    "cluster map": (load_cluster_map, "{}\t3"),
    "synonym map": (load_synonym_map, "{}\tbud"),
}


# tokenize gives "coke", "weed", "<user>" and "<url>" for these, so none could match.
@pytest.mark.parametrize("term", ["coke.", '"weed"', "@plug", "www.x.com"])
@pytest.mark.parametrize("name", sorted(TERM_FILES))
def test_term_tokenize_never_gives_refused_with_line(tmp_path, name, term):
    load, line = TERM_FILES[name]
    p = tmp_path / "terms.txt"
    p.write_text(line.format("high") + "\n" + line.format(term) + "\n")
    with pytest.raises(ValueError, match=re.escape(
            f"line 2: term {term!r} can never match, since tokenize gives {tokenize(term)}")):
        load(p)


@pytest.mark.parametrize("name", ["cluster map", "synonym map"])
@pytest.mark.parametrize("again", ["weed", "Weed"])
def test_map_term_set_again_refused_with_both_lines(tmp_path, name, again):
    # Else the last line would win silently, a case variant too, since terms are lowercased.
    load, line = TERM_FILES[name]
    p = _write(tmp_path, "\n".join([line.format("weed"), line.format("high"),
                                    line.format(again).replace("3", "7").replace("bud", "herb")]))
    with pytest.raises(ValueError, match=re.escape(
            f"malformed {name} file {p}:\n"
            "line 3: term 'weed' is set again (first set on line 1)")):
        load(p)


@pytest.mark.parametrize("name", sorted(TERM_FILES))
def test_hashtag_and_placeholder_terms_load(tmp_path, name):
    load, line = TERM_FILES[name]
    p = tmp_path / "terms.txt"
    p.write_text(line.format("#420") + "\n" + line.format("<url>") + "\n")
    assert set(load(p)) == {"#420", "<url>"}


class TestAuxVector:
    def test_two_abuse_hits_no_slang(self):
        # Counted by hand on the lexicons above: two abuse terms, no slang.
        assert aux_vector(["high", "and", "overdose"], ABUSE, SLANG, CLUSTERS)[:4].tolist() == [
            1.0, 2.0, 0.0, 0.0]

    def test_counts_with_multiplicity(self):
        vec = aux_vector(["high", "and", "high", "overdose"], ABUSE, SLANG, CLUSTERS)
        assert vec[:4].tolist() == [1.0, 3.0, 0.0, 0.0]

    def test_zero_hit_tokens_all_zeros(self):
        vec = aux_vector(["plain", "words"], ABUSE, SLANG, CLUSTERS)
        assert vec.shape == (AUX_DIM,) and vec.dtype == np.float64 and vec.sum() == 0

    def test_layout_slang_count_at_index_3(self):
        vec = aux_vector(["zooted", "zooted"], ABUSE, SLANG, CLUSTERS)
        assert vec[2] == 1.0 and vec[3] == 2.0

    def test_single_cluster_hit_sets_exactly_one(self):
        vec = aux_vector(["heroin"], ABUSE, SLANG, CLUSTERS)
        assert vec[4 + 12] == 1.0 and vec.sum() == 1.0

    def test_cluster_presence_not_count(self):
        # Two tokens in cluster 7: presence keeps the entry at 1, where a count would read 2.
        assert sum(1 for t in ["weed", "oxy"] if CLUSTERS.get(t) == 7) == 2
        assert aux_vector(["weed", "oxy"], ABUSE, SLANG, CLUSTERS)[4 + 7] == 1.0

    def test_hashtag_terms_from_files_count(self, tmp_path):
        vec = aux_vector(tokenize("smoking #420 today #420"),
                         load_lexicon(_write(tmp_path, "# abuse terms\n#420\n", "lex.txt")),
                         SLANG, load_cluster_map(_write(tmp_path, "# clusters\n#420\t9\n", "c.tsv")))
        assert vec[:4].tolist() == [1.0, 2.0, 0.0, 0.0]
        assert vec[4 + 9] == 1.0 and vec[4:].sum() == 1.0

    @given(tokens=st.lists(st.sampled_from(AUX_WORDS), max_size=30),
           abuse=st.frozensets(st.sampled_from(AUX_WORDS)),
           slang=st.frozensets(st.sampled_from(AUX_WORDS)),
           clusters=st.dictionaries(st.sampled_from(AUX_WORDS), st.sampled_from([0, 7, 149])))
    def test_equals_three_step_oracle_bit_for_bit(self, tokens, abuse, slang, clusters):
        # Few cluster ids, so several tokens share one; a word may sit in both lexicons.
        got = aux_vector(tokens, abuse, slang, clusters)
        want = aux_vector_oracle(tokens, abuse, slang, clusters)
        assert got.shape == (AUX_DIM,) and got[0] == (got[1] > 0) and got[2] == (got[3] > 0)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_encoded_synth_corpus_equals_stacked_oracle_rows(self):
        ctx = fixture_context(8)
        ds = synth.generate_dataset(150, 150, seed=4)
        want = np.stack([aux_vector_oracle(tokenize(t.text), ctx.abuse, ctx.slang, ctx.clusters)
                         for t in ds]).astype(default_dtype())
        assert want[:, 1].any() and want[:, 3].any() and want[:, 4:].any()
        aux = encode_dataset(ds, ctx, with_word=False, with_char=False).aux
        assert aux.dtype == want.dtype and aux.tobytes() == want.tobytes()


class TestClusterMap:
    def test_load_cluster_map(self, tmp_path):
        cm = load_cluster_map(_write(tmp_path, "weed\t3\nOXY\t149\n", "c.tsv"))
        assert cm == {"weed": 3, "oxy": 149}

    def test_load_keeps_hashtag_term(self, tmp_path):
        p = _write(tmp_path, "# term<TAB>cluster\n#420\t3\n", "c.tsv")
        assert load_cluster_map(p) == {"#420": 3}

    @pytest.mark.parametrize("term", ["no cap", " weed", ""])
    def test_load_rejects_term_that_is_not_one_token(self, tmp_path, term):
        p = _write(tmp_path, f"weed\t3\n{term}\t4\n", "c.tsv")
        with pytest.raises(ValueError,
                           match=r"cluster map file .*c\.tsv:\nline 2: term .* holds whitespace"):
            load_cluster_map(p)

    @pytest.mark.parametrize("cid", ["150", "-1"])
    def test_load_rejects_out_of_range_id_with_line(self, tmp_path, cid):
        p = _write(tmp_path, f"weed\t3\noxy\t{cid}\n", "c.tsv")
        with pytest.raises(ValueError, match=re.escape(f"line 2: cluster id {cid} outside [0, 150)")):
            load_cluster_map(p)

    @pytest.mark.parametrize("cid", ["\u00b2", "--5"])
    def test_load_rejects_non_integer_id_with_line(self, tmp_path, cid):
        p = _write(tmp_path, f"weed\t3\noxy\t{cid}\n", "c.tsv")
        with pytest.raises(ValueError, match="line 2: expected term<TAB>cluster_id"):
            load_cluster_map(p)


class TestSynonyms:
    SYN = {"happy": ("glad",), "sad": ("down", "glad")}

    def test_basic_append(self):
        assert expand_synonyms(["happy"], self.SYN) == ["happy", "glad"]

    def test_empty_map_identity(self):
        assert expand_synonyms(["a", "b"], {}) == ["a", "b"]

    def test_shared_synonym_appended_once(self):
        # Set-membership oracle: "glad" reachable from two tokens.
        reachable = {s for t in ["happy", "sad"] for s in self.SYN.get(t, ())}
        assert "glad" in reachable
        out = expand_synonyms(["happy", "sad"], self.SYN)
        assert out.count("glad") == 1

    def test_max_append_respected(self, tmp_path):
        syns = [f"s{i}" for i in range(2 * MAX_APPEND)]
        syn = load_synonym_map(_write(tmp_path, "a\t" + ",".join(syns) + "\n"))
        assert expand_synonyms(["a"], syn) == ["a"] + syns[:MAX_APPEND]

    def test_existing_token_not_reappended(self):
        assert expand_synonyms(["a", "b"], {"a": ("b",)}) == ["a", "b"]

    def test_load_synonym_file(self, tmp_path):
        syn = load_synonym_map(_write(tmp_path, "happy\tglad,cheerful\n"))
        assert syn == {"happy": ("glad", "cheerful")}

    def test_self_mapping_dropped(self, tmp_path):
        assert load_synonym_map(_write(tmp_path, "a\ta,b\n")) == {"a": ("b",)}

    def test_term_left_with_no_synonym_is_left_out(self, tmp_path):
        assert load_synonym_map(_write(tmp_path, "a\tA,a\nb\tc\n")) == {"b": ("c",)}

    def test_repeated_synonym_kept_once_after_lowercasing(self, tmp_path):
        syn = load_synonym_map(_write(tmp_path, "Weed\tbud,Herb,BUD,herb,,\n"))
        assert syn == {"weed": ("bud", "herb")}
        assert expand_synonyms(["weed"], syn) == ["weed", "bud", "herb"]

    def test_load_keeps_hashtag_term(self, tmp_path):
        p = _write(tmp_path, "# term<TAB>synonyms\n#420\tweed\n")
        assert load_synonym_map(p) == {"#420": ("weed",)}

    @pytest.mark.parametrize("term", ["blunt wrap", " weed", ""])
    def test_term_that_is_not_one_token_named_with_line(self, tmp_path, term):
        p = _write(tmp_path, f"happy\tglad\n{term}\tbud\n")
        with pytest.raises(ValueError, match="line 2: term .* holds whitespace"):
            load_synonym_map(p)

    @pytest.mark.parametrize("syns", ["mary jane,bud", "bud, herb", " ", "bud,\u00a0"])
    def test_synonym_with_whitespace_named_with_line(self, tmp_path, syns):
        # Such a synonym becomes a vocabulary term that no checkpoint can store.
        p = _write(tmp_path, f"happy\tglad\nweed\t{syns}\n")
        with pytest.raises(ValueError, match="line 2: synonym .* holds whitespace"):
            load_synonym_map(p)

    def test_synonym_holding_a_tab_refused_with_line(self, tmp_path):
        p = _write(tmp_path, "happy\tglad\nweed\tbud,a\tb\n")
        with pytest.raises(ValueError, match="line 2: expected term<TAB>syn1,syn2,..."):
            load_synonym_map(p)


class TestEncodeChars:
    def test_single_char(self):
        out = encode_chars("a")
        assert out[0] == 2 and (out[1:] == 0).all()

    def test_truncation_at_280(self):
        out = encode_chars("ab" * 200)
        assert out.shape == (MAX_CHARS,)
        assert (out != 0).all()

    def test_case_insensitive(self):
        assert (encode_chars("AbC!") == encode_chars("abc!")).all()

    def test_unknown_maps_to_one(self):
        assert encode_chars("é")[0] == 1

    @given(st.text(max_size=400))
    def test_shape_and_range(self, text):
        out = encode_chars(text)
        assert out.shape == (MAX_CHARS,)
        assert (out >= 0).all() and (out < CHARSET_SIZE).all()
