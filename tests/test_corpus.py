import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssc.config import ConfigFileError, load_config
from ssc.corpus import (
    MAX_BAD_LINES,
    AnnotationSet,
    CorpusError,
    Dataset,
    FoldPlan,
    ScenarioPlan,
    Tweet,
    aggregate_labels,
    dedupe,
    fold_datasets,
    load_annotations,
    load_dataset,
    load_fold_plan,
    make_folds,
    make_scenario,
    read_lines,
    save_dataset,
    save_fold_plan,
)
from ssc.embeddings import EmbeddingError, load_embeddings
from ssc.features import load_cluster_map, load_lexicon, load_synonym_map


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def labeled_pool(n_pos, n_neg):
    items = [Tweet(f"p{i}", f"positive text {i}", 1) for i in range(n_pos)]
    items += [Tweet(f"n{i}", f"negative text {i}", 0) for i in range(n_neg)]
    return Dataset(items)


class TestLoadDataset:
    def test_two_well_formed_rows(self, tmp_path):
        p = write(tmp_path, "d.tsv", "a\t1\thello world\nb\t0\tbye now\n")
        ds = load_dataset(p)
        assert len(ds) == 2
        assert ds[0].label == 1 and ds[1].label == 0
        assert ds[0].text == "hello world"

    def test_unlabeled_sentinel(self, tmp_path):
        p = write(tmp_path, "d.tsv", "a\t-\tsome text\n")
        assert load_dataset(p)[0].label is None

    def test_invalid_label_names_line(self, tmp_path):
        p = write(tmp_path, "d.tsv", "a\t1\tok\nb\t2\tbad label\n")
        with pytest.raises(CorpusError, match="line 2"):
            load_dataset(p)

    def test_wrong_column_count_names_line(self, tmp_path):
        p = write(tmp_path, "d.tsv", "a\t1\tok\njust one field\n")
        with pytest.raises(CorpusError, match="line 2"):
            load_dataset(p)

    def test_duplicate_id_names_line(self, tmp_path):
        p = write(tmp_path, "d.tsv", "a\t1\tfirst\na\t0\tsecond\n")
        with pytest.raises(CorpusError, match="line 2.*duplicate"):
            load_dataset(p)

    def test_all_errors_collected(self, tmp_path):
        p = write(tmp_path, "d.tsv", "a\t9\tx\nbroken\n")
        with pytest.raises(CorpusError) as exc:
            load_dataset(p)
        assert "line 1" in str(exc.value) and "line 2" in str(exc.value)

    def test_text_may_contain_tabs(self, tmp_path):
        p = write(tmp_path, "d.tsv", "a\t1\tleft\tright\n")
        assert load_dataset(p)[0].text == "left\tright"

    def test_round_trip(self, tmp_path):
        ds = Dataset([Tweet("a", "hello", 1), Tweet("b", "unlabeled one"),
                      Tweet("c", "negative", 0)])
        p = tmp_path / "out.tsv"
        save_dataset(ds, p)
        assert load_dataset(p) == ds

    # Any valid ids, texts and labels: a text may hold tabs, neither may break a line.
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.text(st.characters(codec="utf-8", exclude_characters="\t\n\r"), min_size=1),
        st.text(st.characters(codec="utf-8", exclude_characters="\n\r"), min_size=1),
        st.sampled_from([None, 0, 1])), max_size=8, unique_by=lambda item: item[0]))
    def test_round_trip_property(self, items):
        ds = Dataset(Tweet(*item) for item in items)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.tsv"
            save_dataset(ds, path)
            assert load_dataset(path) == ds


class TestTweetInvariants:
    def test_empty_id_rejected(self):
        with pytest.raises(CorpusError):
            Tweet("", "text")

    def test_empty_text_rejected(self):
        with pytest.raises(CorpusError):
            Tweet("a", "")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(CorpusError):
            Dataset([Tweet("a", "one"), Tweet("a", "two")])

    @pytest.mark.parametrize("sep", ["\t", "\n", "\r"])
    def test_id_with_separator_rejected(self, sep):
        # Every file format is tab- and line-separated, so such an id could
        # be saved but not read back.
        with pytest.raises(CorpusError, match="id must not contain"):
            Tweet(f"a{sep}b", "text")


class TestAggregate:
    def test_two_of_three_majority(self):
        ann = AnnotationSet({"t": (("a", 1), ("b", 1), ("c", 0))})
        assert aggregate_labels(ann).labels == {"t": 1}

    def test_unanimous_negative(self):
        ann = AnnotationSet({"t": (("a", 0), ("b", 0), ("c", 0))})
        assert aggregate_labels(ann).labels == {"t": 0}

    def test_two_annotations_rejected(self):
        ann = AnnotationSet({"t": (("a", 1), ("b", 0))})
        result = aggregate_labels(ann)
        assert "t" in result.rejected and not result.labels

    def test_even_count_rejected(self):
        ann = AnnotationSet({"t": (("a", 1), ("b", 1), ("c", 0), ("d", 0))})
        assert "t" in aggregate_labels(ann).rejected

    @given(st.lists(st.sampled_from([0, 1]), min_size=3, max_size=9).filter(
        lambda v: len(v) % 2 == 1))
    def test_permutation_invariance(self, labels):
        base = AnnotationSet({"t": tuple((f"a{i}", l) for i, l in enumerate(labels))})
        flipped = AnnotationSet({"t": tuple((f"a{i}", l) for i, l in
                                            enumerate(reversed(labels)))})
        assert aggregate_labels(base).labels == aggregate_labels(flipped).labels

    def test_load_annotations(self, tmp_path):
        p = write(tmp_path, "ann.tsv", "t1\tw1\t1\nt1\tw2\t0\nt1\tw3\t1\n")
        ann = load_annotations(p)
        assert ann.entries["t1"] == (("w1", 1), ("w2", 0), ("w3", 1))

    def test_load_annotations_duplicate_annotator(self, tmp_path):
        p = write(tmp_path, "ann.tsv", "t1\tw1\t1\nt1\tw1\t0\n")
        with pytest.raises(CorpusError, match="line 2"):
            load_annotations(p)


class TestDedupe:
    def test_identical_text_removed(self):
        ds = Dataset([Tweet("a", "same text", 1), Tweet("b", "same text", 0)])
        out, removed = dedupe(ds)
        assert removed == 1 and out[0].id == "a"

    def test_case_and_whitespace_insensitive(self):
        ds = Dataset([Tweet("a", "Same  Text"), Tweet("b", "same text ")])
        out, removed = dedupe(ds)
        assert removed == 1

    def test_all_unique_unchanged(self):
        ds = labeled_pool(3, 3)
        out, removed = dedupe(ds)
        assert removed == 0 and out == ds

    def test_idempotent(self):
        ds = Dataset([Tweet("a", "x y"), Tweet("b", "X  Y"), Tweet("c", "z")])
        once, _ = dedupe(ds)
        twice, removed = dedupe(once)
        assert removed == 0 and twice == once


class TestScenarioPlan:
    def test_ratio_must_sum_to_100(self):
        with pytest.raises(CorpusError):
            ScenarioPlan((60, 50), 100, 10)

    def test_counts_must_be_whole(self):
        with pytest.raises(CorpusError):
            ScenarioPlan((30, 70), 101, 10)

    def test_class_counts(self):
        plan = ScenarioPlan((20, 80), 2150, 430)
        assert plan.class_counts(2150) == (430, 1720)
        assert plan.class_counts(430) == (86, 344)


class TestMakeScenario:
    def test_20_80_grid_row(self):
        # 2150 x 0.20 = 430 positives, 2150 x 0.80 = 1720 negatives.
        pool = labeled_pool(1000, 2200)
        plan = ScenarioPlan((20, 80), 2150, 430, seed=1)
        train, test = make_scenario(pool, plan)
        assert len(train) == 2150 and len(test) == 430
        assert sum(t.label for t in train) == 430
        assert sum(t.label for t in test) == 86

    def test_50_50_grid_row(self):
        pool = labeled_pool(2200, 2200)
        plan = ScenarioPlan((50, 50), 3450, 690, seed=2)
        train, _ = make_scenario(pool, plan)
        assert sum(t.label for t in train) == 1725

    def test_shortfall_error(self):
        pool = labeled_pool(100, 1000)
        plan = ScenarioPlan((50, 50), 380, 20, seed=0)
        with pytest.raises(CorpusError, match="positives: need 200"):
            make_scenario(pool, plan)

    def test_train_test_disjoint(self):
        pool = labeled_pool(50, 50)
        plan = ScenarioPlan((50, 50), 40, 20, seed=3)
        train, test = make_scenario(pool, plan)
        assert not {t.id for t in train} & {t.id for t in test}

    def test_deterministic_under_seed(self):
        pool = labeled_pool(60, 60)
        plan = ScenarioPlan((50, 50), 40, 20, seed=9)
        a = make_scenario(pool, plan)
        b = make_scenario(pool, plan)
        assert a[0] == b[0] and a[1] == b[1]

    def test_different_seed_differs(self):
        pool = labeled_pool(200, 200)
        a = make_scenario(pool, ScenarioPlan((50, 50), 100, 20, seed=0))
        b = make_scenario(pool, ScenarioPlan((50, 50), 100, 20, seed=1))
        assert {t.id for t in a[0]} != {t.id for t in b[0]}


class TestMakeFolds:
    def test_six_disjoint_test_blocks(self):
        # 6 blocks of 690 over a 50:50 pool of 4140, checked by set oracle.
        pool = labeled_pool(2100, 2100)
        plan = ScenarioPlan((50, 50), 3450, 690, seed=4)
        folds = make_folds(pool, plan, k=6)
        seen = set()
        for _, test_ids in folds.folds:
            assert len(test_ids) == 690
            block = set(test_ids)
            assert not block & seen
            seen |= block
        assert len(seen) == 6 * 690

    def test_union_of_test_blocks_has_no_duplicates(self):
        pool = labeled_pool(100, 100)
        plan = ScenarioPlan((50, 50), 100, 20, seed=5)
        folds = make_folds(pool, plan, k=6)
        all_ids = [i for _, test in folds.folds for i in test]
        assert len(all_ids) == len(set(all_ids))

    def test_k1_equals_make_scenario(self):
        pool = labeled_pool(80, 80)
        plan = ScenarioPlan((50, 50), 60, 20, seed=6)
        folds = make_folds(pool, plan, k=1)
        train, test = make_scenario(pool, plan)
        assert folds.folds[0] == (tuple(t.id for t in train),
                                  tuple(t.id for t in test))

    def test_fold_class_ratio_exact(self):
        pool = labeled_pool(300, 700)
        plan = ScenarioPlan((30, 70), 500, 100, seed=7)
        folds = make_folds(pool, plan, k=3)
        index = pool.by_id()
        for train_ids, test_ids in folds.folds:
            assert sum(index[i].label for i in train_ids) == 150
            assert sum(index[i].label for i in test_ids) == 30

    def test_insufficient_pool(self):
        pool = labeled_pool(50, 50)
        plan = ScenarioPlan((50, 50), 100, 20, seed=8)
        with pytest.raises(CorpusError, match="insufficient"):
            make_folds(pool, plan, k=6)

    def test_round_trip_file(self, tmp_path):
        pool = labeled_pool(60, 60)
        plan = ScenarioPlan((50, 50), 40, 20, seed=10)
        folds = make_folds(pool, plan, k=3)
        p = tmp_path / "plan.folds"
        save_fold_plan(folds, p)
        loaded = load_fold_plan(p)
        assert loaded.folds == folds.folds

    # Ids may hold any encodable character but the file's separators.
    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 4), per_block=st.integers(1, 3), seed=st.integers(0, 2**16),
           ids=st.lists(st.text(st.characters(codec="utf-8", exclude_characters="\t\n\r"),
                                min_size=1),
                        min_size=24, max_size=40, unique=True))
    def test_round_trip_file_property(self, k, per_block, seed, ids):
        half = len(ids) // 2
        pool = Dataset([Tweet(i, "text", int(n < half)) for n, i in enumerate(ids)])
        plan = ScenarioPlan((50, 50), 2 * per_block, 2 * per_block, seed=seed)
        folds = make_folds(pool, plan, k=k)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "plan.folds"
            save_fold_plan(folds, path)
            assert load_fold_plan(path) == folds

    def test_non_ascii_digit_fold_index_named_with_line(self, tmp_path):
        p = write(tmp_path, "plan.folds", "0\ttrain\ta\n\u00b2\ttest\tb\n")
        with pytest.raises(CorpusError, match="line 2: invalid fold index"):
            load_fold_plan(p)

    def test_fold_datasets_resolves_ids(self):
        pool = labeled_pool(60, 60)
        plan = ScenarioPlan((50, 50), 40, 20, seed=11)
        folds = make_folds(pool, plan, k=2)
        train, test = fold_datasets(pool, folds, 0)
        assert len(train) == 40 and len(test) == 20

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(CorpusError):
            FoldPlan(2, ((("a",), ("b",)), (("a",), ("b",))))


# Every line-oriented reader: its exception type, a good first line and a bad line.
READERS = {
    "dataset": (load_dataset, CorpusError, "a\t1\tfine text", "b\t9\tbad label"),
    "annotation": (load_annotations, CorpusError, "a\tw1\t1", "a\tw2\t7"),
    "fold plan": (load_fold_plan, CorpusError, "0\ttrain\ta", "x\ttest\tb"),
    "config": (load_config, ConfigFileError, "[paths]", "dataset"),
    "lexicon": (load_lexicon, ValueError, "high", "coke."),
    "cluster map": (load_cluster_map, ValueError, "weed\t3", "oxy\t150"),
    "synonym map": (load_synonym_map, ValueError, "happy\tglad", "weed\tmary jane"),
    "embeddings": (load_embeddings, EmbeddingError, "cat 1 2", "dog"),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_every_bad_line_refused_once_with_the_path(tmp_path, name):
    # The good first line follows a UTF-8 byte-order mark, and the last line
    # is the good one with a byte that is not UTF-8.
    load, error, good, bad = READERS[name]
    p = tmp_path / "input.txt"
    p.write_bytes(b"\xef\xbb\xbf" + f"{good}\n{bad}\n{bad}\n".encode() + good.encode() + b"\xff\n")
    with pytest.raises(error) as exc:
        load(p)
    assert type(exc.value) is error
    lines = str(exc.value).splitlines()
    assert lines[0] == f"malformed {name} file {p}:"
    assert [line.split(":")[0] for line in lines[1:]] == ["line 2", "line 3", "line 4"]
    assert lines[3] == f"line 4: not valid UTF-8 (byte 0xff at character {len(good) + 1})"


def test_byte_order_mark_dropped_from_the_first_line(tmp_path):
    p = tmp_path / "lexicon.txt"
    p.write_bytes("high\nzooted\n".encode("utf-8-sig"))
    assert read_lines(p, "lexicon", lambda line, lineno: line) == ["high", "zooted"]
    assert load_lexicon(p).terms == {"high", "zooted"}


@pytest.mark.parametrize("name", sorted(READERS))
def test_bad_lines_listed_up_to_the_cap(tmp_path, name):
    load, error, good, bad = READERS[name]
    p = write(tmp_path, "input.txt", good + "\n" + (bad + "\n") * (MAX_BAD_LINES + 5))
    with pytest.raises(error) as exc:
        load(p)
    lines = str(exc.value).splitlines()
    assert lines[0] == f"malformed {name} file {p}:"
    assert [line.split(":")[0] for line in lines[1:-1]] == \
        [f"line {n}" for n in range(2, MAX_BAD_LINES + 2)]
    assert lines[-1] == "... and 5 more bad lines"
