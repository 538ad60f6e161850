import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import vote_oracle
from ssc.agreement import cohen_kappa, krippendorff_alpha
from ssc.ensemble import EnsembleSpec, vote
from ssc.metrics import MetricsReport, compute_metrics, mean_report


def vote_one(votes, probs):
    """vote() on one example, given as (members, 1) column arrays."""
    return int(vote(np.array(votes)[:, None], np.array(probs, dtype=np.float64)[:, None])[0])


class TestMajorityVote:
    def test_tie_resolved_by_mean_probability(self):
        votes = [1, 1, 1, 0, 0, 0]
        assert vote_one(votes, [0.9, 0.8, 0.7, 0.4, 0.4, 0.5]) == 1  # mean 0.62
        assert vote_one(votes, [0.5, 0.5, 0.5, 0.1, 0.1, 0.1]) == 0

    def test_exact_half_mean_is_negative(self):
        assert vote_one([1, 0], [0.5, 0.5]) == 0

    def test_strict_majority_ignores_probs(self):
        assert vote_one([1, 1, 1, 1, 0, 0], [0.0] * 6) == 1
        assert vote_one([0, 0, 0, 0, 1, 1], [1.0] * 6) == 0

    @given(st.lists(st.tuples(st.sampled_from([0, 1]),
                              st.floats(0, 1, allow_nan=False)),
                    min_size=1, max_size=9))
    def test_permutation_invariant(self, pairs):
        votes = [v for v, _ in pairs]
        probs = [p for _, p in pairs]
        base = vote_one(votes, probs)
        assert vote_one(list(reversed(votes)), list(reversed(probs))) == base

    def test_flipping_one_vote_of_5_1_majority(self):
        local = np.random.default_rng(0)
        for _ in range(50):
            probs = local.random(6).tolist()
            votes = [1, 1, 1, 1, 1, 0]
            base = vote_one(votes, probs)
            flipped = votes.copy()
            flipped[5] = 1
            assert vote_one(flipped, probs) == base == 1

    def test_exhaustive_patterns_with_random_probs(self):
        local = np.random.default_rng(1)
        for votes in itertools.product([0, 1], repeat=6):
            probs = local.random(6)
            got = vote_one(list(votes), probs.tolist())
            positives = sum(votes)
            if positives > 3:
                assert got == 1
            elif positives < 3:
                assert got == 0
            else:
                assert got == (1 if probs.mean() > 0.5 else 0)

    def test_array_vote_matches_per_example_rule(self):
        local = np.random.default_rng(2)
        classes = local.integers(0, 2, size=(6, 400))
        probs = local.random((6, 400))
        probs[:, :50] = 0.5  # exact-half means on some ties
        got = vote(classes, probs)
        assert got.dtype == np.int64
        expected = [vote_oracle(classes[:, i].tolist(), probs[:, i].tolist())
                    for i in range(400)]
        assert got.tolist() == expected
        assert (classes.sum(axis=0) == 3).sum() > 50  # ties were exercised

    def test_eight_member_tie_same_alone_and_in_a_batch(self):
        # Four votes each way; the probabilities add up to exactly 4.0 in
        # member order, so the mean is 0.5 and the tie goes negative. A
        # summation order that depended on the array shape gave 1 alone.
        probs = np.array([0.46755281437145607, 0.37787766502738684, 0.5201910001960112,
                          0.49611649614419223, 0.6066324553166257, 0.4078366075502192,
                          0.5804716931479511, 0.5433212682461579])
        votes = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        alone = vote(votes[:, None], probs[:, None])
        tiled = vote(np.tile(votes[:, None], (1, 2)), np.tile(probs[:, None], (1, 2)))
        assert alone.tolist() == [0] and tiled.tolist() == [0, 0]

    def test_each_column_votes_as_it_would_alone(self):
        # Near-ties: the last member's probability brings each column's sum
        # to within rounding of M/2, where the order of the additions decides.
        local = np.random.default_rng(3)
        for m in range(2, 13):
            classes = np.zeros((m, 300), dtype=np.int64)
            for col in classes.T:
                col[local.permutation(m)[:m // 2]] = 1
            probs = local.uniform(0.3, 0.7, size=(m, 300))
            probs[-1] = np.clip(m / 2 - probs[:-1].sum(axis=0), 0.0, 1.0)
            got = vote(classes, probs)
            alone = [vote(classes[:, i:i + 1], probs[:, i:i + 1])[0] for i in range(300)]
            assert got.tolist() == alone, m

class TestEnsembleSpec:
    def test_strict_requires_known_composition(self):
        members = tuple(("char_aux", None) for _ in range(6))
        with pytest.raises(ValueError):
            EnsembleSpec(members, mode="strict")

    def test_strict_accepts_cnn_composition(self):
        members = tuple((k, None) for k in
                        ("char_aux", "char_aux", "char_cnn", "char_cnn",
                         "word_aux", "word_aux"))
        spec = EnsembleSpec(members, mode="strict")
        assert len(spec.members) == 6

    def test_strict_accepts_ml_composition(self):
        members = tuple((k, None) for k in ("svm", "svm", "rf", "rf", "nb", "nb"))
        EnsembleSpec(members, mode="strict")

    def test_free_mode_allows_anything(self):
        EnsembleSpec((("nb", None),), mode="free")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EnsembleSpec((), mode="free")


class TestComputeMetrics:
    def test_worked_example(self):
        # TP=3 FP=1 FN=2 TN=4: acc 7/10, P 3/4, R 3/5, F1 = 2PR/(P+R).
        report = MetricsReport.from_counts(3, 1, 2, 4)
        assert np.isclose(report.accuracy, 0.7)
        assert np.isclose(report.precision_p, 0.75)
        assert np.isclose(report.recall_p, 0.6)
        assert np.isclose(report.f1_p, 2 * 0.75 * 0.6 / 1.35)
        assert np.isclose(report.f1_p, 0.6667, atol=5e-5)

    def test_perfect_prediction(self):
        report = compute_metrics([1, 0, 1], [1, 0, 1])
        for m in ("accuracy", "precision_p", "recall_p", "f1_p"):
            assert report.value(m) == 1.0

    def test_zero_division_rules(self):
        report = compute_metrics([0, 0, 0], [1, 1, 0])
        assert report.precision_p == 0.0
        assert report.recall_p == 0.0
        assert report.f1_p == 0.0

    def test_counts_recorded(self):
        report = compute_metrics([1, 1, 0, 0], [1, 0, 1, 0])
        assert (report.tp, report.fp, report.fn, report.tn) == (1, 1, 1, 1)

    def test_int_arrays_match_pairwise_count(self):
        local = np.random.default_rng(17)
        for _ in range(50):
            n = int(local.integers(1, 40))
            pred, gold = local.integers(0, 2, size=n), local.integers(0, 2, size=n)
            pairs = list(zip(pred.tolist(), gold.tolist()))
            want = tuple(pairs.count(pair) for pair in ((1, 1), (1, 0), (0, 1), (0, 0)))
            report = compute_metrics(pred, gold)
            counts = (report.tp, report.fp, report.fn, report.tn)
            assert counts == want and all(type(c) is int for c in counts)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_metrics([1], [1, 0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([], [])

    def test_csv_row_shape(self):
        row = MetricsReport.from_counts(3, 1, 2, 4).csv_row("50:50", "nb")
        fields = row.split(",")
        assert fields[0] == "50:50" and fields[1] == "nb"
        assert len(fields) == 10


class TestMeanReport:
    def test_mean_is_unweighted_arithmetic(self):
        a = MetricsReport.from_counts(8, 0, 2, 10)  # acc 0.9... check below
        b = MetricsReport.from_counts(6, 4, 4, 6)
        mean = mean_report([a, b])
        assert np.isclose(mean.accuracy, (a.accuracy + b.accuracy) / 2)
        assert np.isclose(mean.f1_p, (a.f1_p + b.f1_p) / 2)

    def test_two_fold_mean(self):
        # acc 0.8 and 0.6 -> mean 0.7 by plain arithmetic.
        a = MetricsReport.from_counts(4, 1, 1, 4)
        b = MetricsReport.from_counts(3, 2, 2, 3)
        assert np.isclose(mean_report([a, b]).accuracy, 0.7)

    def test_mean_permutation_invariant(self):
        reports = [MetricsReport.from_counts(3, 1, 2, 4),
                   MetricsReport.from_counts(5, 0, 0, 5),
                   MetricsReport.from_counts(2, 2, 2, 4)]
        assert mean_report(reports) == mean_report(list(reversed(reports)))


def alpha_pairwise_oracle(entries):
    """Brute-force pairwise formulation over all pairable values."""
    units = [[label for _, label in anns] for anns in entries.values()
             if len(anns) >= 2]
    if not units:
        return None
    n = sum(len(u) for u in units)
    d_o = 0.0
    for unit in units:
        m = len(unit)
        disagreements = sum(1 for a in unit for b in unit if a != b)
        d_o += disagreements / (m - 1)
    d_o /= n
    values = [v for unit in units for v in unit]
    d_e = sum(1 for a in values for b in values if a != b) / (n * (n - 1))
    if d_e == 0:
        return 1.0
    return 1.0 - d_o / d_e


def random_annotations(rng, n_items=50, annotators=3):
    entries = {}
    for i in range(n_items):
        anns = []
        for a in range(annotators):
            if rng.random() < 0.25:  # randomly missing label
                continue
            anns.append((f"a{a}", int(rng.integers(0, 2))))
        if anns:
            entries[f"item{i}"] = tuple(anns)
    return entries


class TestKrippendorffAlpha:
    def test_perfect_agreement_exactly_one(self):
        ann = {f"i{k}": (("a", 1), ("b", 1), ("c", 1)) if k % 2 else (("a", 0), ("b", 0))
               for k in range(6)}
        assert krippendorff_alpha(ann) == 1.0

    def test_worked_two_item_case_vs_oracle(self):
        entries = {"i1": (("a", 1), ("b", 1)), "i2": (("a", 1), ("b", 0))}
        expected = alpha_pairwise_oracle(entries)
        assert abs(krippendorff_alpha(entries) - expected) < 1e-12

    def test_100_random_sets_match_oracle(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 100:
            entries = random_annotations(rng)
            expected = alpha_pairwise_oracle(entries)
            got = krippendorff_alpha(entries)
            if expected is None:
                assert got is None
            else:
                assert abs(got - expected) < 1e-12
            checked += 1

    def test_single_annotation_items_excluded(self):
        entries = {"solo": (("a", 1),),
                   "i1": (("a", 1), ("b", 1)), "i2": (("a", 0), ("b", 0))}
        assert krippendorff_alpha(entries) == 1.0

    def test_not_computable(self):
        assert krippendorff_alpha({"solo": (("a", 1),)}) is None

    def test_random_annotations_near_zero(self):
        rng = np.random.default_rng(29)
        entries = {f"i{k}": tuple((f"a{a}", int(rng.integers(0, 2)))
                                  for a in range(3))
                   for k in range(3000)}
        alpha = krippendorff_alpha(entries)
        assert abs(alpha) < 0.05

    def test_relabel_invariance(self):
        rng = np.random.default_rng(31)
        entries = random_annotations(rng)
        swapped = {k: tuple((a, 1 - l) for a, l in v) for k, v in entries.items()}
        a1 = krippendorff_alpha(entries)
        a2 = krippendorff_alpha(swapped)
        assert a1 == pytest.approx(a2, abs=1e-12)


class TestCohenKappa:
    def test_identical_lists(self):
        assert cohen_kappa([1, 0, 1], [1, 0, 1]) == 1.0

    def test_worked_example(self):
        # p_o = 0.75, p_e = 0.5*0.25 + 0.5*0.75 = 0.5, kappa = 0.5.
        assert cohen_kappa([1, 1, 0, 0], [1, 0, 0, 0]) == pytest.approx(0.5)

    def test_independent_raters_near_zero(self):
        rng = np.random.default_rng(37)
        a = rng.integers(0, 2, size=20000)
        b = rng.integers(0, 2, size=20000)
        assert abs(cohen_kappa(a.tolist(), b.tolist())) < 0.05

    def test_degenerate_marginals(self):
        assert cohen_kappa([1, 1], [1, 1]) == 1.0
        assert cohen_kappa([1, 1, 1], [1, 1, 0]) != 1.0

    def test_relabel_invariance(self):
        rng = np.random.default_rng(41)
        a = rng.integers(0, 2, size=100).tolist()
        b = rng.integers(0, 2, size=100).tolist()
        swapped = cohen_kappa([1 - x for x in a], [1 - x for x in b])
        assert cohen_kappa(a, b) == pytest.approx(swapped, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cohen_kappa([1], [1, 0])
