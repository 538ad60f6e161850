import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    best_split_oracle,
    block_split_oracle,
    dense,
    fixture_context,
    forest_oracle,
    gini,
    nb_predict_oracle,
    nb_train_oracle,
    rf_predict_oracle,
    sparse,
    svm_decay_oracle,
    svm_objective,
    svm_predict_oracle,
    tfidf_row_oracle,
    tree_vote_oracle,
)
from ssc import synth
from ssc.baselines import (
    RfModel,
    SvmModel,
    Tree,
    _best_split,
    bow_features,
    dense_matrix,
    fit_tfidf,
    nb_predict,
    platt_fit,
    platt_probability,
    prefilter,
    rf_predict,
    svm_predict,
    train_nb,
    train_rf,
    train_svm,
    vectorize,
)
from ssc.corpus import Dataset, Tweet
from ssc.encoding import EncodedSet, encode_dataset
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


# Mostly zeros, negatives included.
SPARSE_VALUES = [0.0, 0.0, 0.0, 1.0, -2.5, 0.125, 3e-7, -1e5]


@st.composite
def rows_and_operands(draw):
    """A dense (N, D) matrix of SPARSE_VALUES and a weight vector."""
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=8))
    x = draw(hnp.arrays(np.float64, shape, elements=st.sampled_from(SPARSE_VALUES)))
    w = draw(hnp.arrays(np.float64, shape[1], elements=st.floats(-10, 10)))
    return x, w


@example((np.array([[0.0, -2.5, 0.0], [0.0, 0.0, 0.0], [1.0, 3e-7, 0.0]]),
          np.array([0.5, -2.0, 4.0])))
@given(rows_and_operands())
def test_sparse_rows_equal_their_dense_matrix(case):
    # Empty rows and all-zero columns included.
    x, w = case
    rows = sparse(x)
    assert rows.shape == x.shape and len(rows) == len(x)
    assert dense(rows).tobytes() == x.tobytes()
    back = sparse(dense(rows))
    for field in ("indptr", "indices", "data"):
        assert getattr(back, field).tobytes() == getattr(rows, field).tobytes()
    assert (rows.data != 0).all()
    for i in range(len(x)):
        assert (np.diff(rows.indices[rows.indptr[i]:rows.indptr[i + 1]]) > 0).all()
    in_column_order = [float(sum(x[i, j] * w[j] for j in np.flatnonzero(x[i])))
                       for i in range(len(x))]
    assert rows.matvec(w).tolist() == in_column_order
    assert np.allclose(rows.matvec(w), x @ w, rtol=1e-12, atol=1e-9)
    assert dense(rows.transpose()).tobytes() == np.ascontiguousarray(x.T).tobytes()


def dense_features(enc, vocab, idf):
    """The dense reference: dense_matrix of each text's vectorize."""
    return dense_matrix([vectorize(t, vocab, idf) for t in enc.tokens], enc.aux, len(vocab))


def widen(dataset, seed):
    """Each text with 20-59 Zipf-drawn filler tokens appended, so the
    vocabulary grows far past the aux width."""
    local = np.random.default_rng(seed)
    return Dataset(Tweet(t.id, t.text + " " + " ".join(
        f"zq{r}" for r in local.zipf(1.2, size=local.integers(20, 60))), t.label)
        for t in dataset)


class TestBowFeatures:
    """bow_features builds all rows in one batch; they must equal the dense
    reference bit for bit."""

    def assert_equals_dense(self, enc, vocab, idf):
        x = bow_features(enc, vocab, idf)
        assert x.shape == (len(enc), len(vocab) + AUX_DIM)
        assert x.data.dtype == np.float64 and (x.data != 0).all()
        assert dense(x).tobytes() == dense_features(enc, vocab, idf).tobytes()
        return x

    def test_widened_texts(self):
        # The last 40 texts are held out of the fit, so they hold unknown tokens.
        wide = widen(synth.generate_dataset(60, 60, seed=9), seed=41)
        enc = encode_dataset(wide, fixture_context(8), with_word=False, with_char=False)
        vocab, idf = fit_tfidf(enc.tokens[:80])
        assert len(vocab) > 5 * AUX_DIM
        self.assert_equals_dense(enc, vocab, idf)

    def test_repeated_unknown_and_no_tokens_and_zero_aux(self):
        vocab, idf = fit_tfidf([["a", "b"], ["b", "c", "c"], ["a"]])
        tokens = [["c", "a", "c", "c", "b", "a"], ["zzz", "yyy"], [], ["b", "b", "b"]]
        aux = np.zeros((4, AUX_DIM), dtype=np.float32)
        aux[0, [0, 5]] = [2.0, -1.5]
        aux[3, -1] = 0.25
        x = self.assert_equals_dense(EncodedSet(aux=aux, tokens=tokens), vocab, idf)
        assert np.diff(x.indptr).tolist() == [5, 0, 0, 2]


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


@st.composite
def nb_corpora(draw):
    """Documents over a small alphabet, empty ones and repeated tokens included;
    one 0/1 label each; and a bootstrap seed or None."""
    docs = draw(st.lists(st.lists(st.sampled_from("abcde"), max_size=6), min_size=1, max_size=12))
    labels = draw(st.lists(st.integers(0, 1), min_size=len(docs), max_size=len(docs)))
    return docs, labels, draw(st.none() | st.integers(0, 2**32 - 1))


@example(([[], ["b", "a"], []], [0, 1, 1], None))  # empty documents
@example(([[], ["b", "a"], [], ["a"]], [0, 1, 1, 0], 5))
@example(([["a"], ["a"], ["a"]], [0, 1, 0], None))  # a one-token corpus
@example(([["a"], ["a"], ["a"]], [0, 1, 0], 1))
@example(([["c", "c", "a", "c"], ["a", "a"], ["b", "c"]], [1, 0, 1], None))  # repeated tokens
@example(([["c", "c", "a", "c"], ["a", "a"], ["b", "c"]], [1, 0, 1], 2))
@example(([[], []], [0, 1], None))  # no token at all: no likelihood sums to 1
@given(nb_corpora())
def test_nb_fit_equals_loop_oracle(case):
    docs, labels, seed = case
    try:
        vocab, log_prior, log_likelihood = nb_train_oracle(docs, labels, seed)
    except ValueError as e:
        with pytest.raises(ValueError, match=str(e)):
            train_nb(docs, labels, bootstrap_seed=seed)
        return
    if not vocab:
        with pytest.raises(ValueError, match="must sum to 1"):
            train_nb(docs, labels, bootstrap_seed=seed)
        return
    model = train_nb(docs, labels, bootstrap_seed=seed)
    assert list(model.vocab.items()) == list(vocab.items())
    for got, want in ((model.log_prior, log_prior), (model.log_likelihood, log_likelihood)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestSvm:
    def test_separable_pair(self):
        x = sparse([[1.0, 0.5], [-1.0, -0.5]])
        y = [1, 0]
        model = train_svm(x, y, lam=1e-2, epochs=50, seed=0)
        s = model.score(x)
        assert s[0] > 0 and s[1] < 0

    def test_objective_final_leq_initial(self):
        local = np.random.default_rng(4)
        x = np.vstack([local.normal(1.0, 1.0, size=(40, 5)),
                       local.normal(-1.0, 1.0, size=(40, 5))])
        y = [1] * 40 + [0] * 40
        lam = 1e-3
        initial = svm_objective(SvmModel(np.zeros(5), 0.0, 0.0), x, y, lam)
        model = train_svm(sparse(x), y, lam=lam, epochs=5, seed=0)
        assert svm_objective(model, x, y, lam) <= initial

    def test_deterministic_under_seed(self):
        local = np.random.default_rng(5)
        x = local.normal(size=(30, 4))
        y = (x[:, 0] > 0).astype(int)
        a = train_svm(sparse(x), y, seed=3)
        b = train_svm(sparse(x), y, seed=3)
        assert np.array_equal(a.weights, b.weights)

    def test_scale_invariance_at_matched_lambda(self):
        # Scaling inputs by c = 2 (exact in floats) with lambda' = c^2 lambda
        # reproduces every decision sign on the training points.
        local = np.random.default_rng(6)
        x = local.normal(size=(50, 6))
        y = (x @ local.normal(size=6) > 0).astype(int)
        lam = 1e-3
        base = train_svm(sparse(x), y, lam=lam, epochs=3, seed=1)
        scaled = train_svm(sparse(2.0 * x), y, lam=4.0 * lam, epochs=3, seed=1)
        s_base = np.sign(x @ base.weights)
        s_scaled = np.sign((2.0 * x) @ scaled.weights)
        assert np.array_equal(s_base, s_scaled)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_svm(sparse(np.ones((3, 2))), [1, 1, 1])

    def test_platt_parameters_fitted_on_the_training_scores(self):
        local = np.random.default_rng(8)
        x = local.normal(size=(40, 4))
        y = (x[:, 1] + local.normal(scale=0.5, size=40) > 0).astype(int)
        model = train_svm(sparse(x), y, epochs=3, seed=2)
        a, b = platt_fit(model.score(sparse(x)), y)  # the sum calibrate_svm takes, in its order
        assert (model.platt_a, model.platt_b) == (a, b)

    @pytest.mark.parametrize("widened", [False, True])
    def test_closed_form_equals_decay_oracle(self, widened):
        # Fixed folds rather than random floats: a margin within an ulp of
        # the threshold would let rounding alone flip one step's decision.
        # One flipped decision moves the weights by a whole row / (lam * t),
        # far past the 1e-12 bound.
        dataset = synth.generate_dataset(100, 100, seed=12)
        if widened:
            dataset = widen(dataset, seed=43)
        enc = encode_dataset(dataset, fixture_context(8), with_word=False, with_char=False)
        x = bow_features(enc, *fit_tfidf(enc.tokens))
        for seed in range(3):
            model = train_svm(x, enc.labels, seed=seed)
            want = svm_decay_oracle(x, enc.labels, seed=seed)
            assert np.abs(model.weights - want).max() <= 1e-12 * np.abs(want).max()
            assert np.array_equal(np.sign(x.matvec(model.weights)), np.sign(x.matvec(want)))


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
    def test_best_split_impurity_is_weighted_gini_of_children(self):
        # Column 1 holds repeated values (tied sorted entries) and decides most
        # labels; column 3 duplicates it, so two candidates tie on impurity.
        local = np.random.default_rng(12)
        x = local.normal(size=(40, 4))
        x[:, 1] = local.integers(0, 4, size=40)
        x[:, 3] = x[:, 1]
        labels = (x[:, 1] >= 2).astype(np.int64)
        labels[[0, 5, 9]] ^= 1
        rows = local.choice(40, size=30, replace=False)
        y = labels[rows]
        candidates = [0, 3, 2, 1]

        f, thr, impurity = sparse_split(x, rows, y, candidates)

        def weighted_gini(f, thr):
            left = x[rows, f] <= thr
            return sum(side.sum() * gini(np.bincount(y[side], minlength=2))
                       for side in (left, ~left)) / len(y)

        assert impurity == pytest.approx(weighted_gini(f, thr), abs=1e-12)
        splits = [(weighted_gini(c, (a + b) / 2), c, (a + b) / 2) for c in candidates
                  for a, b in zip(np.unique(x[rows, c]), np.unique(x[rows, c])[1:])]
        best = min(s[0] for s in splits)
        assert impurity == pytest.approx(best, abs=1e-12)
        assert (f, thr) == next((c, t) for s, c, t in splits if s <= best + 1e-12)
        assert f == 3  # the tie keeps the earlier candidate

    def test_memorizes_consistent_data(self):
        # A tree whose depth limit it cannot reach classifies every row of its
        # own bootstrap draw: each split of n rows leaves both sides at least
        # one, so no path from n rows is n splits deep.
        local = np.random.default_rng(10)
        x = local.normal(size=(40, 6))
        y = (x[:, 2] * x[:, 4] > 0).astype(int)
        model = train_rf(sparse(x), y, trees=1, max_depth=len(x), seed=0)
        pick = np.unique(np.random.default_rng([0, 0]).integers(0, 40, size=40))
        pred = [rf_predict(model, sparse(row[None]))[0][0] for row in x[pick]]
        assert (np.array(pred) == y[pick]).all()

    def test_prediction_invariant_to_tree_order(self):
        local = np.random.default_rng(11)
        x = local.normal(size=(30, 4))
        y = (x[:, 0] > 0).astype(int)
        model = train_rf(sparse(x), y, trees=9, max_depth=4, seed=1)
        probe = sparse(local.normal(size=(1, 4)))
        before = rf_predict(model, probe)
        model.trees.reverse()
        after = rf_predict(model, probe)
        assert np.array_equal(after[0], before[0]) and np.array_equal(after[1], before[1])

    def test_majority_equals_explicit_tally(self):
        local = np.random.default_rng(12)
        x = local.normal(size=(30, 4))
        y = (x[:, 1] > 0).astype(int)
        model = train_rf(sparse(x), y, trees=7, max_depth=3, seed=2)
        probe = sparse(local.normal(size=(1, 4)))
        votes = [rf_predict(RfModel([t]), probe)[0][0] for t in model.trees]
        cls, p = rf_predict(model, probe)
        assert p[0] == sum(votes) / 7
        assert cls[0] == int(sum(votes) > 3.5)

    def test_node_counts_match_routed_bootstrap_sample(self):
        # Every node's class counts are those of the tree's bootstrap draw
        # routed down from the root by the stored splits.
        local = np.random.default_rng(16)
        x = local.normal(size=(60, 5))
        y = (x[:, 0] + 0.5 * local.normal(size=60) > 0).astype(int)
        model = train_rf(sparse(x), y, trees=4, max_depth=5, seed=3)
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
        a = train_rf(sparse(x), y, trees=5, seed=7)
        b = train_rf(sparse(x), y, trees=5, seed=7)
        for ta, tb in zip(a.trees, b.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            train_rf(sparse(np.zeros((0, 3))), [])

    def test_zero_trees_rejected(self):
        # A forest of no trees has no vote, and its checkpoint would hold no node field.
        with pytest.raises(ValueError, match="at least one tree"):
            train_rf(sparse(np.zeros((4, 2))), [0, 1, 0, 1], trees=0)
        with pytest.raises(ValueError, match="at least one tree"):
            rf_predict(RfModel([]), sparse(np.zeros((4, 2))))

    @pytest.mark.parametrize("feature", [2, 3, -1])
    def test_split_outside_the_rows_refused(self, feature):
        # Unchecked, row 0's key at column 2 would be row 1's at column 0, a stored 1.0.
        tree = Tree(feature=np.array([feature, -1, -1]), threshold=np.array([0.5, 0.0, 0.0]),
                    left=np.array([1, -1, -1]), right=np.array([2, -1, -1]),
                    counts=np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match=f"feature {feature}, outside rows 2 wide"):
            rf_predict(RfModel([tree]), sparse([[0.0, 0.0], [1.0, 0.0]]))


@st.composite
def forest_cases(draw):
    """Training rows of SPARSE_VALUES with labels, a forest's tree count and
    seed, and probe codes of the same width: code c >= 0 stands for
    SPARSE_VALUES[c], c < 0 for entry -c - 1, cyclically, of the forest's
    split thresholds followed by 0.0."""
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    x = draw(hnp.arrays(np.float64, (n, d), elements=st.sampled_from(SPARSE_VALUES)))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    codes = draw(hnp.arrays(np.int64, (draw(st.integers(0, 6)), d),
                            elements=st.integers(-6, len(SPARSE_VALUES) - 1)))
    return x, y, draw(st.integers(1, 4)), draw(st.integers(0, 2**16)), codes


# A split of negatives only, so that an implicit zero goes right; a probe
# value equal to a threshold (code -1), an empty row, no row at all.
@example((np.array([[-1e5], [-2.5]] * 4), np.array([0, 1] * 4), 1, 0,
          np.array([[0], [-1], [4], [7]])))
@example((np.array([[-1e5], [-2.5]] * 4), np.array([0, 1] * 4), 1, 0,
          np.zeros((0, 1), dtype=np.int64)))
# Only the last column splits; the last probe row's one entry, equal to the
# threshold, is the last stored one, next to the sentinel; the row before is empty.
@example((np.array([[0.0, -2.5, 1.0], [0.0, -2.5, 0.0]] * 4), np.array([1, 0] * 4), 3, 1,
          np.array([[0, 4, 3], [0, 0, 0], [0, 0, -1]])))
@given(forest_cases())
def test_forest_walk_equals_per_row_oracle(case):
    x, y, trees, seed, codes = case
    model = train_rf(sparse(x), y, trees=trees, max_depth=4, seed=seed)
    thresholds = np.concatenate([t.threshold[t.left != -1] for t in model.trees] + [[0.0]])
    probe = np.where(codes >= 0, np.take(SPARSE_VALUES, np.maximum(codes, 0)),
                     thresholds[(-codes - 1) % len(thresholds)])
    rows = sparse(probe)
    classes, p_pos = rf_predict(model, rows)
    want = [rf_predict_oracle(model, r) for r in dense(rows)]
    assert classes.dtype == np.int64 and p_pos.dtype == np.float64
    assert classes.tolist() == [c for c, _ in want]
    assert p_pos.tolist() == [p for _, p in want]


def sparse_split(x, rows, y, ids, best=None):
    """_best_split over the CSR rows of a dense x."""
    return _best_split(sparse(x).transpose(), rows, y, ids, best)


def split_in_blocks(x, rows, y, ids, size):
    """_best_split over consecutive slices of ids, carrying the best split."""
    xt = sparse(x).transpose()
    best = None
    for start in range(0, len(ids), size):
        best = _best_split(xt, rows, y, ids[start:start + size], best)
    return best


class TestBlockSplitSearch:
    """_best_split scores its candidate columns as one block over their nonzeros;
    each result must equal, bit for bit, the one-column-at-a-time oracle's on
    the dense rows, also with every value shifted down by one, so that the
    run of zeros is no longer the smallest value of a column."""

    def assert_matches_oracle(self, x, rows, y, ids, size=None):
        """The split on x, after checking it and the split on x - 1 against the oracle."""
        got = split_in_blocks(x, rows, y, ids, size or len(ids))
        assert got == best_split_oracle(x, rows, y, ids)
        shifted = x - 1.0
        assert split_in_blocks(shifted, rows, y, ids, size or len(ids)) == \
            best_split_oracle(shifted, rows, y, ids)
        return got

    def test_integer_columns_with_ties(self):
        local = np.random.default_rng(20)
        for _ in range(30):
            x = local.integers(0, 4, size=(30, 12)).astype(np.float64)
            rows = local.integers(0, 30, size=25)
            y = local.integers(0, 2, size=25)
            ids = local.permutation(12)[:local.integers(1, 13)]
            self.assert_matches_oracle(x, rows, y, ids)

    def test_tie_inside_a_column_keeps_its_first_boundary(self):
        # Both boundaries of column 0 leave one pure side and score exactly 1/3.
        x = np.array([[0.0], [0.0], [1.0], [1.0], [2.0], [2.0]])
        y = np.array([0, 0, 1, 1, 0, 0])
        assert self.assert_matches_oracle(x, np.arange(6), y, [0]) == (0, 0.5, 1 / 3)

    def test_candidates_constant_at_the_node(self):
        x = np.zeros((6, 4))
        x[:, 2] = 7.0
        x[4:, 1] = 1.0  # varies, but not on the node's rows
        rows, y = np.array([0, 1, 2, 3, 1]), np.array([0, 1, 0, 1, 1])
        assert self.assert_matches_oracle(x, rows, y, [0, 1, 2, 3]) is None
        carried = (5, 0.5, 0.25)
        assert sparse_split(x, rows, y, [0, 1, 2, 3], carried) is carried

    @pytest.mark.parametrize("values,labels", [
        ((0.0, 1.0), (0, 1)), ((1.0, 0.0), (0, 1)), ((0.0, 1.0), (1, 1)),
        ((0.5, 0.5), (0, 1)),
    ])
    def test_two_rows(self, values, labels):
        x = np.array([[values[0], 3.0], [values[1], 3.0]])
        self.assert_matches_oracle(x, np.arange(2), np.array(labels), [1, 0])

    def test_duplicated_columns_keep_the_earlier(self):
        local = np.random.default_rng(21)
        x = local.normal(size=(20, 5))
        x[:, 4] = x[:, 1]
        y = (x[:, 1] > 0.3).astype(np.int64)
        assert self.assert_matches_oracle(x, np.arange(20), y, [4, 0, 1])[0] == 4
        assert self.assert_matches_oracle(x, np.arange(20), y, [1, 4, 0])[0] == 1

    def test_scores_within_1e_15_keep_the_earlier(self):
        # On 4 rows with 2 positives, column 0 splits off one positive and
        # column 1 one negative: both weighted Ginis are 1/3 exactly, but the
        # float scores differ by one ulp (column 1's is the lower).
        x = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([1, 1, 0, 0])
        s0 = best_split_oracle(x, np.arange(4), y, [0])[2]
        s1 = best_split_oracle(x, np.arange(4), y, [1])[2]
        assert 0 < s0 - s1 < 1e-15
        assert self.assert_matches_oracle(x, np.arange(4), y, [0, 1])[0] == 0
        assert self.assert_matches_oracle(x, np.arange(4), y, [1, 0])[0] == 1

    def test_scores_apart_by_more_than_1e_15_take_the_lower(self):
        # Column 2 separates the classes (impurity 0); column 0 does not.
        x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
        y = np.array([1, 1, 0, 0])
        f, _, impurity = self.assert_matches_oracle(x, np.arange(4), y, [0, 1, 2])
        assert (f, impurity) == (2, 0.0)

    def test_best_split_in_a_later_block(self):
        local = np.random.default_rng(22)
        x = local.normal(size=(40, 30))
        labels = (x[:, 17] > 0.1).astype(np.int64)  # column 17 alone splits the classes
        ids = local.permutation(30)
        rows = local.integers(0, 40, size=40)
        got = self.assert_matches_oracle(x, rows, labels[rows], ids, size=7)
        assert got[0] == 17 and got[2] == 0.0 and list(ids).index(17) >= 7

    def test_forest_equals_oracle_forest_on_sparse_rows(self):
        # TF-IDF-like rows: 0.5 % nonzero, so nodes often see only constant
        # candidates and search the other columns.
        local = np.random.default_rng(23)
        x = local.random((80, 600)) * (local.random((80, 600)) < 0.005)
        x /= np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)
        y = ((x[:, :40].sum(axis=1) > 0) ^ (local.random(80) < 0.1)).astype(np.int64)
        forest = train_rf(sparse(x), y, trees=3, max_depth=10, seed=4)

        fallback_calls = []

        def block_split(*args):
            if len(args) == 5:  # the dense grower passes the carried split only when falling back
                fallback_calls.append(len(args[3]))
            return block_split_oracle(*args)

        reference = forest_oracle(x, y, trees=3, max_depth=10, seed=4, split=block_split)
        assert fallback_calls
        assert len(forest.trees) == len(reference)
        for got, want in zip(forest.trees, reference):
            for field in ("feature", "threshold", "left", "right", "counts"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_forest_on_mixed_sign_columns_equals_oracle_forest(self):
        # Aux-like dense columns beside sparse ones, with negative values, so a
        # column's run of zeros falls inside its sorted values.
        local = np.random.default_rng(24)
        x = local.random((60, 90)) * (local.random((60, 90)) < 0.05)
        x[:, :6] = local.integers(-2, 3, size=(60, 6))
        y = ((x[:, 0] > 0) ^ (local.random(60) < 0.2)).astype(np.int64)
        forest = train_rf(sparse(x), y, trees=4, max_depth=8, seed=5)
        for got, want in zip(forest.trees, forest_oracle(x, y, trees=4, max_depth=8, seed=5,
                                                         split=best_split_oracle)):
            for field in ("feature", "threshold", "left", "right", "counts"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


class TestLabelChecks:
    """The forest, SVM and Naive Bayes trainers refuse labels that are not one 0/1 per row.

    The forest and SVM take np.eye(4) as four feature rows, Naive Bayes its
    rows as four documents.
    """

    @staticmethod
    def four_rows(train):
        return np.eye(4) if train is train_nb else sparse(np.eye(4))

    @pytest.mark.parametrize("train", [train_rf, train_svm, train_nb])
    def test_more_labels_than_rows(self, train):
        with pytest.raises(ValueError, match="4 rows, 6 labels"):
            train(self.four_rows(train), [0, 1, 0, 1, 1, 1])

    @pytest.mark.parametrize("train", [train_rf, train_svm, train_nb])
    def test_fewer_labels_than_rows(self, train):
        with pytest.raises(ValueError, match="4 rows, 3 labels"):
            train(self.four_rows(train), [0, 1, 0])

    @pytest.mark.parametrize("train", [train_rf, train_svm, train_nb])
    def test_label_other_than_0_or_1(self, train):
        with pytest.raises(ValueError, match="must be 0 or 1, not 2"):
            train(self.four_rows(train), [0, 1, 2, 1])

    # Naive Bayes once counted a -1 label as the positive class.
    @pytest.mark.parametrize("train", [train_rf, train_svm, train_nb])
    def test_negative_label(self, train):
        with pytest.raises(ValueError, match="must be 0 or 1, not -1"):
            train(self.four_rows(train), [0, 1, -1, 1])


def make_calibrated_svm():
    local = np.random.default_rng(14)
    x = np.vstack([local.normal(2.0, 0.7, size=(60, 3)),
                   local.normal(-2.0, 0.7, size=(60, 3))])
    y = [1] * 60 + [0] * 60
    return train_svm(sparse(x), y, lam=1e-3, epochs=20, seed=0)


class TestBatchedMatchesPerExampleOracle:
    """Features and predictions on a synthetic corpus, against one-example oracles.

    The held-out set is longer than PREDICT_ROWS, the rows a CNN member
    forwards at a time, and each classical member predicts it in one call.
    """

    @pytest.fixture(scope="class")
    def fitted(self):
        ctx = fixture_context(8)
        enc = encode_dataset(synth.generate_dataset(220, 220, seed=5), ctx,
                             with_word=False, with_char=False)
        train, test = enc.subset(np.arange(140)), enc.subset(np.arange(140, len(enc)))
        vocab, idf = fit_tfidf(train.tokens)
        x, y = bow_features(train, vocab, idf), train.labels
        members = {
            "svm": BowMember("svm", train_svm(x, y, epochs=3, seed=1), vocab, idf),
            "rf": BowMember("rf", train_rf(x, y, trees=7, max_depth=8, seed=2), vocab, idf),
            "nb": BowMember("nb", train_nb(train.tokens, y.tolist(), bootstrap_seed=3)),
        }
        return members, vocab, idf, test

    def test_features_equal_oracle_rows(self, fitted):
        _, vocab, idf, test = fitted
        oracle = np.stack([tfidf_row_oracle(t, vocab, idf, a)
                           for t, a in zip(test.tokens, test.aux)])
        assert np.array_equal(dense(bow_features(test, vocab, idf)), oracle)

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
            assert np.array_equal(rf_predict(RfModel([tree]), x)[0],
                                  [tree_vote_oracle(tree, r) for r in dense(x)])


class TestPrefilter:
    DATASET = Dataset([Tweet(f"t{i}", f"text number {i}") for i in range(40)])

    def predictions(self):
        """A calibrated SVM's (classes, p_pos) for the 40 items."""
        local = np.random.default_rng(15)
        x = np.stack([local.normal(scale=2.0, size=3) for _ in self.DATASET])
        return svm_predict(make_calibrated_svm(), sparse(x))

    def test_threshold_one_empty(self):
        result = prefilter(self.DATASET, *self.predictions(), threshold=1.0, sample_n=5)
        assert len(result.sample) == 0 and result.warned

    def test_threshold_zero_samples_everything(self):
        result = prefilter(self.DATASET, *self.predictions(), threshold=0.0,
                           sample_n=10, seed=1)
        assert len(result.sample) == 10
        assert result.n_qualified == len(self.DATASET)

    def test_every_returned_item_above_threshold(self):
        cls, p_pos = self.predictions()
        result = prefilter(self.DATASET, cls, p_pos, threshold=0.8)
        assert len(result.sample) == result.n_qualified
        row = {t.id: i for i, t in enumerate(self.DATASET)}
        for tweet in result.sample:
            i = row[tweet.id]
            assert (p_pos[i] if cls[i] == 1 else 1 - p_pos[i]) > 0.8

    def test_subset_of_input(self):
        result = prefilter(self.DATASET, *self.predictions(), threshold=0.5,
                           sample_n=7, seed=2)
        ids = {t.id for t in self.DATASET}
        assert all(t.id in ids for t in result.sample)
        assert len(result.sample) <= 7

    @pytest.mark.parametrize("threshold", [float("nan"), 1.5, -0.1])
    def test_threshold_outside_0_1_refused(self, threshold):
        # NaN compares false with every probability, -0.1 keeps everything and 1.5 nothing.
        with pytest.raises(ValueError, match=r"threshold must be in \[0, 1\]"):
            prefilter(self.DATASET, *self.predictions(), threshold=threshold)

    def test_deterministic_sampling(self):
        a = prefilter(self.DATASET, *self.predictions(), 0.0, 5, seed=9)
        b = prefilter(self.DATASET, *self.predictions(), 0.0, 5, seed=9)
        assert [t.id for t in a.sample] == [t.id for t in b.sample]
