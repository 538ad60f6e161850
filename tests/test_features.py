import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ssc.features import (
    AUX_DIM,
    CHARSET_SIZE,
    MAX_APPEND,
    MAX_CHARS,
    ClusterMap,
    Lexicon,
    SynonymMap,
    build_aux_vector,
    cluster_features,
    encode_chars,
    expand_synonyms,
    lexicon_features,
    load_cluster_map,
    load_lexicon,
    load_synonym_map,
    tokenize,
)

ABUSE = Lexicon.from_terms(["high", "overdose", "snorting"])
SLANG = Lexicon.from_terms(["zooted", "blitzed", "coke"], min_length=6)
CLUSTERS = ClusterMap({"weed": 7, "oxy": 7, "heroin": 12})


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
        assert load_lexicon(p).terms == {"#420", "zooted"}

    @pytest.mark.parametrize("term", ["no cap", "no\tcap", "blunt\u00a0wrap"])
    def test_term_with_whitespace_named_with_line(self, tmp_path, term):
        # No token holds whitespace, so such a term could never match.
        p = tmp_path / "lex.txt"
        p.write_text(f"high\n{term}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="lexicon file line 2: term .* holds whitespace"):
            load_lexicon(p)

    def test_short_slang_excluded_at_load(self, tmp_path):
        # "coke" (4 chars) must not survive the longer-than-five filter.
        p = tmp_path / "slang.txt"
        p.write_text("coke\nzooted\nblitzed\n")
        lex = load_lexicon(p, min_length=6)
        assert "coke" not in lex and "zooted" in lex

    def test_short_slang_contributes_nothing(self):
        feats = lexicon_features(["coke", "zooted"], Lexicon(frozenset()), SLANG)
        assert feats.tolist() == [0.0, 0.0, 1.0, 1.0]


class TestLexiconFeatures:
    def test_two_abuse_hits_no_slang(self):
        # Counted by hand on the fixture lexicon: two abuse terms, no slang.
        feats = lexicon_features(["high", "and", "overdose"], ABUSE, SLANG)
        assert feats.tolist() == [1.0, 2.0, 0.0, 0.0]

    def test_counts_with_multiplicity(self):
        feats = lexicon_features(["high", "and", "high", "overdose"], ABUSE, SLANG)
        assert feats.tolist() == [1.0, 3.0, 0.0, 0.0]

    def test_zero_case(self):
        assert lexicon_features(["nothing", "here"], ABUSE, SLANG).tolist() == [0, 0, 0, 0]

    @given(st.lists(st.sampled_from(["high", "zooted", "x", "y"]), max_size=20))
    def test_presence_equals_count_positive(self, tokens):
        a, ac, s, sc = lexicon_features(tokens, ABUSE, SLANG)
        assert a == float(ac > 0) and s == float(sc > 0)


class TestClusterFeatures:
    def test_no_hits_all_zero(self):
        assert cluster_features(["nothing"], CLUSTERS).sum() == 0

    def test_single_hit_sets_exactly_one(self):
        vec = cluster_features(["weed"], CLUSTERS)
        assert vec[7] == 1.0 and vec.sum() == 1.0

    def test_presence_not_count(self):
        # Two tokens in cluster 7: presence semantics keep the entry at 1,
        # unlike a counting oracle which would read 2.
        count = sum(1 for t in ["weed", "oxy"] if CLUSTERS.get(t) == 7)
        assert count == 2
        assert cluster_features(["weed", "oxy"], CLUSTERS)[7] == 1.0

    def test_out_of_range_id_rejected(self):
        with pytest.raises(ValueError):
            ClusterMap({"x": 150})

    def test_load_cluster_map(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("weed\t3\nOXY\t149\n")
        cm = load_cluster_map(p)
        assert cm.get("weed") == 3 and cm.get("oxy") == 149

    def test_load_keeps_hashtag_term(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("# term<TAB>cluster\n#420\t3\n")
        assert load_cluster_map(p).assignments == {"#420": 3}

    @pytest.mark.parametrize("term", ["no cap", " weed", ""])
    def test_load_rejects_term_that_is_not_one_token(self, tmp_path, term):
        p = tmp_path / "c.tsv"
        p.write_text(f"weed\t3\n{term}\t4\n")
        with pytest.raises(ValueError, match="cluster file line 2: term .* holds whitespace"):
            load_cluster_map(p)

    def test_load_rejects_bad_id(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("weed\t150\n")
        with pytest.raises(ValueError, match="line 1"):
            load_cluster_map(p)

    @pytest.mark.parametrize("cid", ["\u00b2", "--5"])
    def test_load_rejects_non_integer_id_with_line(self, tmp_path, cid):
        p = tmp_path / "c.tsv"
        p.write_text(f"weed\t3\noxy\t{cid}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: expected term<TAB>cluster_id"):
            load_cluster_map(p)


class TestAuxVector:
    def test_zero_hit_tokens_all_zeros(self):
        vec = build_aux_vector(["plain", "words"], ABUSE, SLANG, CLUSTERS)
        assert vec.shape == (AUX_DIM,) and vec.sum() == 0

    def test_layout_slang_count_at_index_3(self):
        vec = build_aux_vector(["zooted", "zooted"], ABUSE, SLANG, CLUSTERS)
        assert vec[2] == 1.0 and vec[3] == 2.0

    def test_cluster_block_offset(self):
        vec = build_aux_vector(["heroin"], ABUSE, SLANG, CLUSTERS)
        assert vec[4 + 12] == 1.0

    def test_hashtag_terms_from_files_count(self, tmp_path):
        (tmp_path / "lex.txt").write_text("# abuse terms\n#420\n")
        (tmp_path / "c.tsv").write_text("# clusters\n#420\t9\n")
        vec = build_aux_vector(tokenize("smoking #420 today #420"),
                               load_lexicon(tmp_path / "lex.txt"), SLANG,
                               load_cluster_map(tmp_path / "c.tsv"))
        assert vec[:4].tolist() == [1.0, 2.0, 0.0, 0.0]
        assert vec[4 + 9] == 1.0 and vec[4:].sum() == 1.0

    @given(st.lists(st.sampled_from(["high", "zooted", "weed", "a", "b"]), max_size=30))
    def test_length_always_154(self, tokens):
        assert build_aux_vector(tokens, ABUSE, SLANG, CLUSTERS).shape == (AUX_DIM,)


class TestSynonyms:
    SYN = SynonymMap.from_entries({"happy": ["glad"], "sad": ["down", "glad"]})

    def test_basic_append(self):
        assert expand_synonyms(["happy"], self.SYN) == ["happy", "glad"]

    def test_empty_map_identity(self):
        empty = SynonymMap({})
        assert expand_synonyms(["a", "b"], empty) == ["a", "b"]

    def test_shared_synonym_appended_once(self):
        # Set-membership oracle: "glad" reachable from two tokens.
        reachable = {s for t in ["happy", "sad"] for s in self.SYN.get(t)}
        assert "glad" in reachable
        out = expand_synonyms(["happy", "sad"], self.SYN)
        assert out.count("glad") == 1

    def test_max_append_respected(self):
        syn = SynonymMap.from_entries({"a": [f"s{i}" for i in range(2 * MAX_APPEND)]})
        out = expand_synonyms(["a"], syn)
        assert out == ["a"] + [f"s{i}" for i in range(MAX_APPEND)]

    def test_existing_token_not_reappended(self):
        syn = SynonymMap.from_entries({"a": ["b"]})
        assert expand_synonyms(["a", "b"], syn) == ["a", "b"]

    def test_self_mapping_dropped(self):
        syn = SynonymMap.from_entries({"a": ["a", "b"]})
        assert syn.get("a") == ("b",)

    def test_load_synonym_file(self, tmp_path):
        p = tmp_path / "syn.tsv"
        p.write_text("happy\tglad,cheerful\n")
        syn = load_synonym_map(p)
        assert syn.get("happy") == ("glad", "cheerful")

    def test_load_keeps_hashtag_term(self, tmp_path):
        p = tmp_path / "syn.tsv"
        p.write_text("# term<TAB>synonyms\n#420\tweed\n")
        assert load_synonym_map(p).entries == {"#420": ("weed",)}

    @pytest.mark.parametrize("term", ["blunt wrap", " weed", ""])
    def test_term_that_is_not_one_token_named_with_line(self, tmp_path, term):
        p = tmp_path / "syn.tsv"
        p.write_text(f"happy\tglad\n{term}\tbud\n")
        with pytest.raises(ValueError, match="line 2: term .* holds whitespace"):
            load_synonym_map(p)

    @pytest.mark.parametrize("syns", ["mary jane,bud", "bud, herb", " ", "bud,\u00a0"])
    def test_synonym_with_whitespace_named_with_line(self, tmp_path, syns):
        # Such a synonym becomes a vocabulary term that no checkpoint can store.
        p = tmp_path / "syn.tsv"
        p.write_text(f"happy\tglad\nweed\t{syns}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: synonym .* holds whitespace"):
            load_synonym_map(p)

    @pytest.mark.parametrize("syn", ["mary jane", "", " ", "a\tb"])
    def test_from_entries_rejects_what_is_not_one_token(self, syn):
        with pytest.raises(ValueError, match="not a single token"):
            SynonymMap.from_entries({"weed": ["bud", syn]})


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
