import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    nb_predict_oracle,
    rf_predict_oracle,
    svm_predict_oracle,
    tfidf_row_oracle,
    tree_vote_oracle,
)
from ssc import synth
from ssc.baselines import (
    SvmModel,
    bow_features,
    calibrate_svm,
    dense_matrix,
    fit_tfidf,
    gini,
    nb_predict,
    platt_fit,
    platt_probability,
    prefilter,
    rf_predict,
    svm_objective,
    svm_predict,
    train_nb,
    train_rf,
    train_svm,
    tree_vote,
    vectorize,
)
from ssc.corpus import Dataset, Tweet
from ssc.encoding import encode_dataset
from ssc.ensemble import BowMember
from ssc.features import AUX_DIM
from ssc.models import PREDICT_ROWS

class TestTfidf:
    def test_idf_for_ubiquitous_token_is_one(self):
        # df = N gives idf = log((N+1)/(N+1)) + 1 = 1.
        docs = [["common", "a"], ["common", "b"], ["common", "c"]]
        vocab, idf = fit_tfidf(docs)
        assert np.isclose(idf[vocab["common"]], 1.0)

    def test_vocabulary_numbered_in_first_occurrence_order(self):
        # Each interpreter hashes strings with its own seed, so the order
        # must be the same in two children started with different seeds.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import ssc

        ssc_file = Path(ssc.__file__).resolve()
        code = ("import ssc; from ssc.baselines import fit_tfidf; print(ssc.__file__); "
                "print(list(fit_tfidf([['b', 'a', 'c', 'd'], ['e', 'a']])[0]))")
        for seed in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = os.pathsep.join(
                [str(ssc_file.parents[1])]
                + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
            result = subprocess.run([sys.executable, "-c", code],
                                    env=env, capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            child_file, terms = result.stdout.splitlines()
            assert Path(child_file).resolve() == ssc_file
            assert terms == "['b', 'a', 'c', 'd', 'e']", f"PYTHONHASHSEED={seed}"

    def test_rare_token_weighted_up(self):
        docs = [["common", "rare"], ["common"], ["common"]]
        vocab, idf = fit_tfidf(docs)
        assert idf[vocab["rare"]] > idf[vocab["common"]]

    def test_empty_tokens_only_aux(self):
        vocab, idf = fit_tfidf([["a"], ["b"]])
        aux = np.arange(AUX_DIM, dtype=float)
        assert not vectorize([], vocab, idf)
        assert np.array_equal(dense_matrix([{}], aux[None], len(vocab)),
                              np.concatenate([np.zeros(len(vocab)), aux])[None])

    def test_unseen_token_ignored(self):
        vocab, idf = fit_tfidf([["a"], ["b"]])
        assert not vectorize(["zzz"], vocab, idf)

    def test_sparse_part_l2_normalized(self):
        vocab, idf = fit_tfidf([["a", "b"], ["a"], ["b"]])
        weights = vectorize(["a", "b", "b"], vocab, idf)
        norm = math.sqrt(sum(v * v for v in weights.values()))
        assert np.isclose(norm, 1.0)

    def test_aux_not_normalized(self):
        vocab, idf = fit_tfidf([["a"]])
        aux = np.full(AUX_DIM, 7.0)
        dense = dense_matrix([vectorize(["a"], vocab, idf)], aux[None], len(vocab))[0]
        assert (dense[len(vocab):] == 7.0).all()


def nb_posterior_oracle(docs, labels, query):
    """Exact-fraction Bayes enumeration, independent of the log-space path."""
    vocab = sorted({t for d in docs for t in d})
    v = len(vocab)
    n = len(docs)
    posterior = []
    for cls in (0, 1):
        class_docs = [d for d, l in zip(docs, labels) if l == cls]
        prior = Fraction(len(class_docs), n)
        total = sum(len(d) for d in class_docs)
        likelihood = prior
        for tok in query:
            if tok not in vocab:
                continue
            count = sum(d.count(tok) for d in class_docs)
            likelihood *= Fraction(count + 1, total + v)
        posterior.append(likelihood)
    total = posterior[0] + posterior[1]
    return float(posterior[1] / total)


class TestNaiveBayes:
    def test_symmetric_two_doc_corpus(self):
        model = train_nb([["a"], ["b"]], [1, 0])
        cls, p = nb_predict(model, [["a"]])
        assert cls[0] == 1 and p[0] > 0.5
        _, p_both = nb_predict(model, [["a", "b"]])
        assert np.isclose(p_both, 0.5)

    def test_prior_only_for_unknown_tokens(self):
        model = train_nb([["a"], ["a"], ["b"]], [1, 1, 0])
        _, p = nb_predict(model, [["zzz"]])
        assert np.isclose(p[0], 2 / 3)

    def test_matches_exact_enumeration(self):
        local = np.random.default_rng(31)
        vocab = ["a", "b", "c", "d", "e"]
        for _ in range(30):
            n_docs = int(local.integers(2, 7))
            docs = [[vocab[j] for j in local.integers(0, 5, size=local.integers(1, 6))]
                    for _ in range(n_docs)]
            labels = local.integers(0, 2, size=n_docs).tolist()
            if len(set(labels)) < 2:
                labels[0] = 1 - labels[0]
            model = train_nb(docs, labels)
            query = [vocab[j] for j in local.integers(0, 5, size=4)]
            _, p = nb_predict(model, [query])
            assert abs(p[0] - nb_posterior_oracle(docs, labels, query)) <= 1e-12

    def test_likelihoods_form_distribution(self):
        model = train_nb([["a", "b"], ["c"]], [1, 0])
        sums = np.exp(model.log_likelihood).sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-9

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_nb([["a"], ["b"]], [1, 1])

    def test_bootstrap_differentiates_members(self):
        docs = [[w] for w in "abcdefgh"]
        labels = [1, 0] * 4
        a = train_nb(docs, labels, bootstrap_seed=1)
        b = train_nb(docs, labels, bootstrap_seed=2)
        assert not np.array_equal(a.log_likelihood, b.log_likelihood) or a.vocab != b.vocab


class TestSvm:
    def test_separable_pair(self):
        x = np.array([[1.0, 0.5], [-1.0, -0.5]])
        y = [1, 0]
        model = train_svm(x, y, lam=1e-2, epochs=50, seed=0)
        assert model.score(x[0]) > 0 and model.score(x[1]) < 0

    def test_objective_final_leq_initial(self):
        local = np.random.default_rng(4)
        x = np.vstack([local.normal(1.0, 1.0, size=(40, 5)),
                       local.normal(-1.0, 1.0, size=(40, 5))])
        y = [1] * 40 + [0] * 40
        lam = 1e-3
        initial = svm_objective(SvmModel(weights=np.zeros(5)), x, y, lam)
        model = train_svm(x, y, lam=lam, epochs=5, seed=0)
        assert svm_objective(model, x, y, lam) <= initial

    def test_deterministic_under_seed(self):
        local = np.random.default_rng(5)
        x = local.normal(size=(30, 4))
        y = (x[:, 0] > 0).astype(int)
        a = train_svm(x, y, seed=3)
        b = train_svm(x, y, seed=3)
        assert np.array_equal(a.weights, b.weights)

    def test_scale_invariance_at_matched_lambda(self):
        # Scaling inputs by c = 2 (exact in floats) with lambda' = c^2 lambda
        # reproduces every decision sign on the training points.
        local = np.random.default_rng(6)
        x = local.normal(size=(50, 6))
        y = (x @ local.normal(size=6) > 0).astype(int)
        lam = 1e-3
        base = train_svm(x, y, lam=lam, epochs=3, seed=1)
        scaled = train_svm(2.0 * x, y, lam=4.0 * lam, epochs=3, seed=1)
        s_base = np.sign(x @ base.weights)
        s_scaled = np.sign((2.0 * x) @ scaled.weights)
        assert np.array_equal(s_base, s_scaled)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_svm(np.ones((3, 2)), [1, 1, 1])

    def test_predict_requires_calibration(self):
        model = SvmModel(weights=np.ones(2))
        with pytest.raises(ValueError, match="calibrat"):
            svm_predict(model, np.ones((1, 2)))


class TestPlatt:
    def test_symmetric_scores_give_zero_intercept(self):
        scores = [-1.0] * 50 + [1.0] * 50
        labels = [0] * 50 + [1] * 50
        a, b = platt_fit(scores, labels)
        assert abs(b) < 1e-6
        assert a < 0  # higher score -> higher positive probability

    def test_monotone_in_score(self):
        local = np.random.default_rng(7)
        for trial in range(10):
            scores = local.normal(size=60)
            labels = (scores + local.normal(scale=0.5, size=60) > 0).astype(int)
            if labels.min() == labels.max():
                continue
            a, b = platt_fit(scores, labels)
            assert a < 0
            grid = np.linspace(-3, 3, 7)
            probs = [platt_probability(s, a, b) for s in grid]
            assert all(p1 <= p2 + 1e-12 for p1, p2 in zip(probs, probs[1:]))

    def test_constant_scores_give_smoothed_base_rate(self):
        scores = [0.5] * 10
        labels = [1] * 7 + [0] * 3
        a, b = platt_fit(scores, labels)
        p = platt_probability(0.5, a, b)
        expected = (7 * (8 / 9) + 3 * (1 / 5)) / 10  # mean smoothed target
        assert abs(p - expected) < 1e-6

    def test_probabilities_in_open_interval(self):
        local = np.random.default_rng(8)
        scores = local.normal(size=40)
        labels = (scores > 0).astype(int)
        a, b = platt_fit(scores, labels)
        for s in np.linspace(-10, 10, 21):
            p = platt_probability(s, a, b)
            assert 0.0 < p < 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            platt_fit([1.0, 2.0], [1, 1])

    def test_gradient_descends_newton_matches_numeric_optimum(self):
        # The fitted (A, B) should beat small perturbations on the NLL.
        local = np.random.default_rng(9)
        scores = local.normal(size=80)
        labels = (scores + local.normal(scale=0.8, size=80) > 0).astype(int)
        a, b = platt_fit(scores, labels)
        n_pos = labels.sum()
        n_neg = len(labels) - n_pos
        target = np.where(labels == 1, (n_pos + 1) / (n_pos + 2), 1 / (n_neg + 2))

        def nll(aa, bb):
            z = aa * scores + bb
            return float(np.sum(np.logaddexp(0, z) - (1 - target) * z))

        base = nll(a, b)
        for da, db in ((1e-4, 0), (-1e-4, 0), (0, 1e-4), (0, -1e-4)):
            assert nll(a + da, b + db) >= base - 1e-9


class TestRandomForest:
    def test_gini_cases(self):
        assert gini(np.array([5.0, 0.0])) == 0.0
        assert gini(np.array([4.0, 4.0])) == 0.5

    def test_memorizes_consistent_data(self):
        local = np.random.default_rng(10)
        x = local.normal(size=(40, 6))
        y = (x[:, 2] * x[:, 4] > 0).astype(int)
        model = train_rf(x, y, trees=1, max_depth=None, seed=0, bootstrap=False)
        pred = [rf_predict(model, row[None])[0][0] for row in x]
        assert (np.array(pred) == y).all()

    def test_prediction_invariant_to_tree_order(self):
        local = np.random.default_rng(11)
        x = local.normal(size=(30, 4))
        y = (x[:, 0] > 0).astype(int)
        model = train_rf(x, y, trees=9, max_depth=4, seed=1)
        probe = local.normal(size=4)
        before = rf_predict(model, probe[None])
        model.trees.reverse()
        after = rf_predict(model, probe[None])
        assert np.array_equal(after[0], before[0]) and np.array_equal(after[1], before[1])

    def test_majority_equals_explicit_tally(self):
        local = np.random.default_rng(12)
        x = local.normal(size=(30, 4))
        y = (x[:, 1] > 0).astype(int)
        model = train_rf(x, y, trees=7, max_depth=3, seed=2)
        probe = local.normal(size=4)
        votes = [tree_vote(t, probe[None])[0] for t in model.trees]
        cls, p = rf_predict(model, probe[None])
        assert p[0] == sum(votes) / 7
        assert cls[0] == int(sum(votes) > 3.5)

    def test_node_counts_match_routed_bootstrap_sample(self):
        # Every node's class counts are those of the tree's bootstrap draw
        # routed down from the root by the stored splits.
        local = np.random.default_rng(16)
        x = local.normal(size=(60, 5))
        y = (x[:, 0] + 0.5 * local.normal(size=60) > 0).astype(int)
        model = train_rf(x, y, trees=4, max_depth=5, seed=3)
        for i, tree in enumerate(model.trees):
            pick = np.random.default_rng([3, i]).integers(0, 60, size=60)
            counts = np.zeros_like(tree.counts)
            for row, label in zip(x[pick], y[pick]):
                node = 0
                counts[node, label] += 1
                while tree.left[node] != -1:
                    go_left = row[tree.feature[node]] <= tree.threshold[node]
                    node = tree.left[node] if go_left else tree.right[node]
                    counts[node, label] += 1
            assert len(tree.feature) > 1
            assert np.array_equal(counts, tree.counts)

    def test_deterministic_under_seed(self):
        local = np.random.default_rng(13)
        x = local.normal(size=(25, 3))
        y = (x[:, 0] > 0).astype(int)
        a = train_rf(x, y, trees=5, seed=7)
        b = train_rf(x, y, trees=5, seed=7)
        for ta, tb in zip(a.trees, b.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            train_rf(np.zeros((0, 3)), [])


def make_calibrated_svm():
    local = np.random.default_rng(14)
    x = np.vstack([local.normal(2.0, 0.7, size=(60, 3)),
                   local.normal(-2.0, 0.7, size=(60, 3))])
    y = [1] * 60 + [0] * 60
    model = train_svm(x, y, lam=1e-3, epochs=20, seed=0)
    return calibrate_svm(model, x, y)


class TestBatchedMatchesPerExampleOracle:
    """Features and predictions on a synthetic corpus, against one-example oracles.

    The held-out set is longer than PREDICT_ROWS, so members predict it in
    more than one block.
    """

    @pytest.fixture(scope="class")
    def fitted(self):
        ctx = synth.feature_context(embed_dim=8, seed=0)
        enc = encode_dataset(synth.generate_dataset(220, 220, seed=5), ctx,
                             with_word=False, with_char=False)
        train, test = enc.subset(np.arange(140)), enc.subset(np.arange(140, len(enc)))
        vocab, idf = fit_tfidf(train.tokens)
        x, y = bow_features(train, vocab, idf), train.labels
        members = {
            "svm": BowMember("svm", calibrate_svm(train_svm(x, y, epochs=3, seed=1), x, y),
                             vocab, idf),
            "rf": BowMember("rf", train_rf(x, y, trees=7, max_depth=8, seed=2), vocab, idf),
            "nb": BowMember("nb", train_nb(train.tokens, y.tolist(), bootstrap_seed=3)),
        }
        return members, vocab, idf, test

    def test_features_equal_oracle_rows(self, fitted):
        _, vocab, idf, test = fitted
        oracle = np.stack([tfidf_row_oracle(t, vocab, idf, a)
                           for t, a in zip(test.tokens, test.aux)])
        assert np.array_equal(bow_features(test, vocab, idf), oracle)

    @pytest.mark.parametrize("kind", ["svm", "rf", "nb"])
    def test_member_predictions_match_oracle(self, fitted, kind):
        members, vocab, idf, test = fitted
        assert len(test) > PREDICT_ROWS
        member = members[kind]
        if kind == "nb":
            want = [nb_predict_oracle(member.model, t) for t in test.tokens]
        else:
            oracle = svm_predict_oracle if kind == "svm" else rf_predict_oracle
            want = [oracle(member.model, tfidf_row_oracle(t, vocab, idf, a))
                    for t, a in zip(test.tokens, test.aux)]
        classes, probs = member.predict_batch(test)
        assert classes.dtype == np.int64 and probs.dtype == np.float64
        assert np.array_equal(classes, [c for c, _ in want])
        if kind == "rf":
            assert np.array_equal(probs, [p for _, p in want])
        else:
            assert np.abs(probs - [p for _, p in want]).max() <= 1e-12

    def test_tree_votes_match_per_row_walk(self, fitted):
        members, vocab, idf, test = fitted
        x = bow_features(test, vocab, idf)
        for tree in members["rf"].model.trees:
            assert np.array_equal(tree_vote(tree, x), [tree_vote_oracle(tree, r) for r in x])


class TestPrefilter:
    DATASET = Dataset([Tweet(f"t{i}", f"text number {i}") for i in range(40)])

    def features(self):
        local = np.random.default_rng(15)
        return np.stack([local.normal(scale=2.0, size=3) for _ in self.DATASET])

    def test_threshold_one_empty(self):
        model = make_calibrated_svm()
        result = prefilter(self.DATASET, model, self.features(), threshold=1.0,
                           sample_n=5)
        assert len(result.sample) == 0 and result.warned

    def test_threshold_zero_samples_everything(self):
        model = make_calibrated_svm()
        result = prefilter(self.DATASET, model, self.features(), threshold=0.0,
                           sample_n=10, seed=1)
        assert len(result.sample) == 10
        assert result.n_qualified == len(self.DATASET)

    def test_every_returned_item_above_threshold(self):
        model = make_calibrated_svm()
        x = self.features()
        result = prefilter(self.DATASET, model, x, threshold=0.8)
        assert len(result.sample) == result.n_qualified
        row = {t.id: i for i, t in enumerate(self.DATASET)}
        for tweet in result.sample:
            cls, p_pos = svm_predict(model, x[row[tweet.id]][None])
            assert (p_pos[0] if cls[0] == 1 else 1 - p_pos[0]) > 0.8

    def test_subset_of_input(self):
        model = make_calibrated_svm()
        result = prefilter(self.DATASET, model, self.features(), threshold=0.5,
                           sample_n=7, seed=2)
        ids = {t.id for t in self.DATASET}
        assert all(t.id in ids for t in result.sample)
        assert len(result.sample) <= 7

    def test_uncalibrated_model_rejected(self):
        with pytest.raises(ValueError):
            prefilter(self.DATASET, SvmModel(weights=np.ones(3)), self.features())

    def test_misaligned_features_rejected(self):
        with pytest.raises(ValueError, match="feature rows"):
            prefilter(self.DATASET, make_calibrated_svm(), self.features()[:-1])

    def test_deterministic_sampling(self):
        model = make_calibrated_svm()
        a = prefilter(self.DATASET, model, self.features(), 0.0, 5, seed=9)
        b = prefilter(self.DATASET, model, self.features(), 0.0, 5, seed=9)
        assert [t.id for t in a.sample] == [t.id for t in b.sample]
