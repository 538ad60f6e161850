"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. The end-to-end experiment (criterion 6) trains all twelve ensemble
members and is the slow part of the suite.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import central_difference, conv1d_oracle, max_relative_error, maxpool1d_oracle
from ssc import baselines, models, nn, synth
from ssc.agreement import cohen_kappa, krippendorff_alpha
from ssc.corpus import AnnotationSet, ScenarioPlan, make_folds, make_scenario, save_dataset
from ssc.config import load_config
from ssc.encoding import EncodedSet, encode_dataset
from ssc.ensemble import majority_vote
from ssc.experiment import run_experiment
from ssc.features import AUX_DIM
from ssc.metrics import MetricsReport
from ssc.models import CCnnConfig, TrainConfig, WCnnConfig, build_model

GRID_ROWS = [  # (ratio, n_train, n_test): the five standard scenario rows
    ((50, 50), 3450, 690),
    ((40, 60), 2850, 570),
    ((30, 70), 2450, 490),
    ((20, 80), 2150, 430),
    ((10, 90), 1900, 380),
]


@pytest.fixture(scope="module")
def synth_pool():
    return synth.generate_dataset(2700, 2300, seed=11)


def report(criterion, text):
    print(f"\n[PASS] criterion {criterion}: {text}")


# ---------------------------------------------------------------------------
# Criterion 1: gradient correctness, < 2 minutes, 64-bit, rel err < 1e-4
# ---------------------------------------------------------------------------

def _check_op_gradients(rng):
    """Randomized small-shape FD checks for every differentiable op."""
    configs = 0

    def project_and_check(build, arrays):
        nonlocal configs
        readout = rng.normal(size=4096)

        def forward(tensor_map):
            out = build(tensor_map)
            flat = nn.reshape(out, (-1,))
            w = nn.Tensor(readout[:flat.data.size, None])
            return nn.reshape(nn.dense(flat, w, nn.Tensor(np.zeros(1))), ())

        tensors = {k: nn.Tensor(v) for k, v in arrays.items()}
        for t in tensors.values():
            t.requires_grad = True
        forward(tensors).backward()
        for key, arr in arrays.items():
            numeric = central_difference(
                lambda: float(forward({k: nn.Tensor(v) for k, v in arrays.items()}).data),
                [arr], max_coords=8, rng=rng, kink_filter=True)[0]
            analytic = tensors[key].grad
            if analytic is None:
                analytic = np.zeros_like(arr)
            assert max_relative_error(analytic, numeric) < 1e-4, key
        configs += 1

    for _ in range(3):
        length = int(rng.integers(5, 10))
        k = int(rng.integers(1, 4))
        c, f = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        for padding in ("valid", "same"):
            project_and_check(
                lambda d, padding=padding: nn.conv1d(d["x"], d["k"], d["b"], padding),
                {"x": rng.normal(size=(length, c)), "k": rng.normal(size=(k, c, f)),
                 "b": rng.normal(size=(f,))})
    for _ in range(3):
        length = int(rng.integers(4, 10))
        pool = int(rng.integers(1, length + 1))
        project_and_check(lambda d, p=pool: nn.maxpool1d(d["x"], p, 2),
                          {"x": rng.normal(size=(length, 3))})
        project_and_check(lambda d: nn.global_maxpool(d["x"]),
                          {"x": rng.normal(size=(length, 2))})
    for _ in range(2):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        project_and_check(lambda d: nn.dense(d["x"], d["w"], d["b"]),
                          {"x": rng.normal(size=(n,)), "w": rng.normal(size=(n, m)),
                           "b": rng.normal(size=(m,))})
    for kind in ("relu", "tanh", "selu"):
        project_and_check(lambda d, kind=kind: nn.activation(d["x"], kind),
                          {"x": rng.normal(size=(5, 3))})
    # softmax cross-entropy checked directly on its scalar loss
    for _ in range(2):
        logits = rng.normal(size=(3, 2))
        gold = rng.integers(0, 2, size=3)
        t = nn.Tensor(logits.copy())
        t.requires_grad = True
        loss, _ = nn.softmax_xent(t, gold)
        loss.backward()
        arr = logits.copy()
        numeric = central_difference(
            lambda: float(nn.softmax_xent(arr, gold)[0].data), [arr])[0]
        assert max_relative_error(t.grad, numeric) < 1e-4
        configs += 1
    # trainable embedding lookup
    table = rng.normal(size=(11, 3))
    idx = rng.integers(0, 11, size=6)
    readout = rng.normal(size=18)

    def emb_forward(arr):
        t = nn.Tensor(arr)
        t.requires_grad = True
        flat = nn.reshape(nn.embedding_lookup(t, idx), (-1,))
        return t, nn.reshape(nn.dense(flat, nn.Tensor(readout[:, None]),
                                      nn.Tensor(np.zeros(1))), ())

    t, loss = emb_forward(table)
    loss.backward()
    numeric = central_difference(lambda: float(emb_forward(table)[1].data), [table])[0]
    assert max_relative_error(t.grad, numeric) < 1e-4
    configs += 1
    return configs


def _check_architecture_gradients(rng):
    """Sampled-coordinate FD checks through both full architectures
    (3-sample batches, 64-bit, default input shapes)."""
    wcnn = build_model("word_aux", wcnn=WCnnConfig(kernel_sizes=(3, 4, 5), filters=2,
                                                   dropout=0.0),
                       seed=1, dtype=np.float64)
    word_batch = EncodedSet(aux=rng.normal(size=(3, AUX_DIM)),
                            word=rng.normal(size=(3, 40, 400)))
    ccnn_full = build_model("char_aux", ccnn=CCnnConfig(kernel_sizes=(3, 4, 5, 7), filters=2,
                                                        dropout=0.0), seed=2, dtype=np.float64)
    ccnn_plain = build_model("char_cnn", ccnn=CCnnConfig(kernel_sizes=(3, 4, 5, 7), filters=2,
                                                         dropout=0.0),
                             seed=3, dtype=np.float64)
    char_batch = EncodedSet(aux=rng.normal(size=(3, AUX_DIM)),
                            char=rng.integers(0, 71, size=(3, 280)))
    gold = np.array([0, 1, 1])
    cases = [(wcnn, word_batch), (ccnn_full, char_batch), (ccnn_plain, char_batch)]
    for model, batch in cases:
        def loss_value():
            loss, _ = nn.softmax_xent(model.forward(batch), gold)
            return float(loss.data)

        loss, _ = nn.softmax_xent(model.forward(batch), gold)
        model.params.zero_grad()
        loss.backward()
        for name, p in model.params.items():
            numeric = central_difference(loss_value, [p.data], max_coords=4,
                                         rng=rng, kink_filter=True)[0]
            analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
            rel = max_relative_error(analytic, numeric)
            assert rel < 1e-4, f"{model.kind}/{name}: {rel}"
    return len(cases)


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    op_configs = _check_op_gradients(rng)
    arch_configs = _check_architecture_gradients(rng)
    elapsed = time.monotonic() - start
    assert op_configs + arch_configs >= 20
    assert elapsed < 120.0, f"gradient checks took {elapsed:.1f}s"
    report(1, f"{op_configs + arch_configs} configurations pass 64-bit "
              f"finite-difference checks (< 1e-4) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: oracle equivalence for conv/pooling and Naive Bayes
# ---------------------------------------------------------------------------

def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(1002)
    for _ in range(100):
        length = int(rng.integers(3, 14))
        k = int(rng.integers(1, min(6, length) + 1))
        c, f = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x = rng.normal(size=(length, c))
        kernel = rng.normal(size=(k, c, f))
        bias = rng.normal(size=(f,))
        padding = "same" if rng.random() < 0.5 else "valid"
        got = nn.conv1d(x, kernel, bias, padding=padding).data
        assert np.abs(got - conv1d_oracle(x, kernel, bias, padding)).max() < 1e-6
    for _ in range(100):
        length = int(rng.integers(2, 16))
        pool = int(rng.integers(1, length + 1))
        stride = int(rng.integers(1, 4))
        x = rng.normal(size=(length, int(rng.integers(1, 5))))
        assert np.array_equal(nn.maxpool1d(x, pool, stride).data,
                              maxpool1d_oracle(x, pool, stride))
    for _ in range(100):
        x = rng.normal(size=(int(rng.integers(1, 12)), int(rng.integers(1, 5))))
        assert np.array_equal(nn.global_maxpool(x).data, x.max(axis=0))

    vocab = ["a", "b", "c", "d", "e"]
    checked = 0
    while checked < 60:
        n_docs = int(rng.integers(2, 7))
        docs = [[vocab[j] for j in rng.integers(0, 5, size=rng.integers(1, 6))]
                for _ in range(n_docs)]
        labels = rng.integers(0, 2, size=n_docs).tolist()
        if len(set(labels)) < 2:
            continue
        model = baselines.train_nb(docs, labels)
        query = [vocab[j] for j in rng.integers(0, 5, size=int(rng.integers(0, 6)))]
        p = baselines.nb_predict(model, [query])[1][0]
        # exact-fraction enumeration of the joint likelihood
        v = len(set(t for d in docs for t in d))
        post = []
        for cls in (0, 1):
            class_docs = [d for d, l in zip(docs, labels) if l == cls]
            total = sum(len(d) for d in class_docs)
            acc = Fraction(len(class_docs), n_docs)
            for tok in query:
                if any(tok in d for d in docs):
                    count = sum(d.count(tok) for d in class_docs)
                    acc *= Fraction(count + 1, total + v)
            post.append(acc)
        expected = float(post[1] / (post[0] + post[1]))
        assert abs(p - expected) <= 1e-12
        checked += 1
    report(2, "conv/pool match brute-force oracles on 100 cases each; "
              "NB posteriors match exact enumeration within 1e-12")


# ---------------------------------------------------------------------------
# Criterion 3: metric exactness over all confusion matrices in [0,20]^4
# ---------------------------------------------------------------------------

def test_criterion_3_metric_exactness():
    count = 0
    for tp, fp, fn, tn in itertools.product(range(21), repeat=4):
        total = tp + fp + fn + tn
        if total == 0:
            with pytest.raises(ValueError):
                MetricsReport.from_counts(0, 0, 0, 0)
            continue
        got = MetricsReport.from_counts(tp, fp, fn, tn)
        accuracy = (tp + tn) / total
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        assert abs(got.accuracy - accuracy) <= 1e-12
        assert abs(got.precision_p - precision) <= 1e-12
        assert abs(got.recall_p - recall) <= 1e-12
        assert abs(got.f1_p - f1) <= 1e-12
        count += 1
    assert count == 21 ** 4 - 1
    report(3, f"compute_metrics equals the closed-form definitions on "
              f"{count + 1} confusion matrices (incl. zero-division rules)")


# ---------------------------------------------------------------------------
# Criterion 4: agreement statistics
# ---------------------------------------------------------------------------

def test_criterion_4_agreement():
    from test_ensemble_eval import alpha_pairwise_oracle, random_annotations

    rng = np.random.default_rng(1004)
    for _ in range(100):
        entries = random_annotations(rng, n_items=int(rng.integers(2, 51)))
        ann = AnnotationSet(entries)
        expected = alpha_pairwise_oracle(entries)
        got = krippendorff_alpha(ann)
        if expected is None:
            assert got is None
        else:
            assert abs(got - expected) < 1e-12

    perfect = AnnotationSet({f"i{k}": tuple((f"a{j}", k % 2) for j in range(3))
                             for k in range(10)})
    assert krippendorff_alpha(perfect) == 1.0
    assert cohen_kappa([1, 1, 0, 0], [1, 0, 0, 0]) == pytest.approx(0.5, abs=1e-12)
    report(4, "alpha matches the coincidence-matrix oracle on 100 random "
              "annotation sets; perfect agreement = 1.0; worked kappa = 0.5")


# ---------------------------------------------------------------------------
# Criterion 5: scenario fidelity on the standard grid
# ---------------------------------------------------------------------------

def test_criterion_5_scenario_fidelity(synth_pool):
    assert len(synth_pool) >= 5000
    assert sum(t.label for t in synth_pool) >= 2700
    for ratio, n_train, n_test in GRID_ROWS:
        plan = ScenarioPlan(ratio, n_train, n_test, seed=13)
        train, test = make_scenario(synth_pool, plan)
        tr_pos = sum(t.label for t in train)
        te_pos = sum(t.label for t in test)
        assert len(train) == n_train and len(test) == n_test
        assert tr_pos == n_train * ratio[0] // 100
        assert te_pos == n_test * ratio[0] // 100
        if ratio == (10, 90):
            assert (len(train), len(test)) == (1900, 380)
            assert (tr_pos, n_train - tr_pos) == (190, 1710)
        folds = make_folds(synth_pool, plan, k=6)
        seen = set()
        for _, test_ids in folds.folds:
            block = set(test_ids)
            assert len(block) == n_test and not block & seen
            seen |= block
    report(5, "all five grid rows reproduce exact counts; 6-fold test "
              "blocks are pairwise disjoint")


# ---------------------------------------------------------------------------
# Criterion 6: end-to-end synthetic experiment
# ---------------------------------------------------------------------------

def _member_column(per_fold_csv, model_prefix, column):
    values = []
    for line in per_fold_csv.strip().splitlines()[1:]:
        fields = line.split(",")
        if fields[1].startswith(model_prefix):
            values.append(float(fields[column]))
    return values


def test_criterion_6_end_to_end(synth_pool, tmp_path):
    start = time.monotonic()
    save_dataset(synth_pool, tmp_path / "corpus.tsv")
    synth.write_fixture_files(tmp_path / "fix", embed_dim=100, seed=0)
    (tmp_path / "exp.conf").write_text(f"""
[paths]
dataset = {tmp_path}/corpus.tsv
abuse_lexicon = {tmp_path}/fix/abuse_terms.txt
slang_lexicon = {tmp_path}/fix/drug_slang.txt
cluster_map = {tmp_path}/fix/clusters.tsv
synonym_map = {tmp_path}/fix/synonyms.tsv
embeddings = {tmp_path}/fix/embeddings.txt
output = {tmp_path}/out

[experiment]
scenarios = 50:50:2000:400,10:90:1900:380
folds = 1
seed = 7

[training]
epochs = 3
batch_size = 64
filters = 64
word_kernels = 3,4,5
char_kernels = 3,4,5
embedding_dim = 100
char_embed_dim = 64
""")
    cfg = load_config(tmp_path / "exp.conf")
    result = run_experiment(cfg, jobs=2, log=lambda msg: None)
    assert not result.failures
    rows = {(r.scenario, r.model): r.metrics for r in result.rows}

    balanced = (tmp_path / "out" / "per_fold" / "50-50.csv").read_text()
    member_f1, member_acc = {}, {}
    for kind in ("char_aux", "char_cnn", "word_aux", "svm", "rf", "nb"):
        member_f1[kind] = _member_column(balanced, kind + ".m", 5)
        member_acc[kind] = _member_column(balanced, kind + ".m", 2)
        assert all(f >= 0.90 for f in member_f1[kind]), (kind, member_f1[kind])

    cnn_kinds = ("char_aux", "char_cnn", "word_aux")
    ml_kinds = ("svm", "rf", "nb")
    cnn_members = [f for k in cnn_kinds for f in member_f1[k]]
    ml_members = [f for k in ml_kinds for f in member_f1[k]]
    assert rows[("50:50", "ensemble_cnn")].f1_p >= max(cnn_members) - 0.02
    assert rows[("50:50", "ensemble_ml")].f1_p >= max(ml_members) - 0.02
    # Measured (not a theorem): each ensemble at least matches its weakest
    # member's accuracy on this corpus.
    assert rows[("50:50", "ensemble_cnn")].accuracy >= min(
        a for k in cnn_kinds for a in member_acc[k])
    assert rows[("50:50", "ensemble_ml")].accuracy >= min(
        a for k in ml_kinds for a in member_acc[k])

    cnn_10_90 = rows[("10:90", "ensemble_cnn")].f1_p
    nb_10_90 = rows[("10:90", "nb")].f1_p
    assert cnn_10_90 > nb_10_90

    elapsed = time.monotonic() - start
    assert elapsed < 900.0, f"end-to-end run took {elapsed:.0f}s"
    report(6, f"50:50 members all reach F1 >= 0.90, ensembles within 0.02 of "
              f"their best member; 10:90 CNN ensemble ({cnn_10_90:.3f}) beats "
              f"NB ({nb_10_90:.3f}); ran in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 7: determinism & persistence
# ---------------------------------------------------------------------------

def test_criterion_7_determinism_and_persistence(tmp_path):
    ds = synth.generate_dataset(130, 130, seed=31)
    save_dataset(ds, tmp_path / "corpus.tsv")
    synth.write_fixture_files(tmp_path / "fix", embed_dim=12, seed=0)
    (tmp_path / "exp.conf").write_text(f"""
[paths]
dataset = {tmp_path}/corpus.tsv
abuse_lexicon = {tmp_path}/fix/abuse_terms.txt
slang_lexicon = {tmp_path}/fix/drug_slang.txt
cluster_map = {tmp_path}/fix/clusters.tsv
synonym_map = {tmp_path}/fix/synonyms.tsv
embeddings = {tmp_path}/fix/embeddings.txt

[experiment]
scenarios = 50:50:200:40
folds = 2
seed = 9

[training]
epochs = 2
batch_size = 32
filters = 4
word_kernels = 2,3
char_kernels = 2,3
embedding_dim = 12
char_embed_dim = 8

[baselines]
rf_trees = 10
rf_max_depth = 8
""")
    cfg = load_config(tmp_path / "exp.conf")
    from dataclasses import replace
    csvs = []
    for run in ("run1", "run2"):
        run_cfg = replace(cfg, output=str(tmp_path / run))
        result = run_experiment(run_cfg, jobs=1, log=lambda msg: None)
        assert not result.failures
        csvs.append((tmp_path / run / "report.csv").read_bytes())
    assert csvs[0] == csvs[1]

    # Checkpoint persistence: bit-exact round trip and exact predictions.
    ctx = synth.feature_context(embed_dim=12, seed=0)
    enc = encode_dataset(ds, ctx, with_word=False)
    model = build_model("char_aux", ccnn=CCnnConfig(kernel_sizes=(2, 3), filters=4, embed_dim=8),
                        seed=5)
    cps = models.train(model, enc, TrainConfig(epochs=2, batch_size=16, seed=5))
    best = models.select_best_epoch(cps)
    nn.save_checkpoint(best, tmp_path / "best.ckpt")
    loaded = nn.load_checkpoint(tmp_path / "best.ckpt")
    for name, arr in best.arrays.items():
        assert loaded.arrays[name].tobytes() == np.ascontiguousarray(
            arr, dtype="<f4").tobytes()
    reloaded = models.model_from_checkpoint(loaded)
    model.params.load_state_dict(best.arrays)
    rng = np.random.default_rng(77)
    probe = EncodedSet(aux=rng.normal(size=(100, AUX_DIM)).astype(np.float32),
                       char=rng.integers(0, 71, size=(100, 280)))
    a_cls, a_p = models.predict_batch(model, probe)
    b_cls, b_p = models.predict_batch(reloaded, probe)
    assert np.array_equal(a_cls, b_cls) and np.array_equal(a_p, b_p)
    report(7, "re-runs produce byte-identical CSV reports; checkpoints "
              "round-trip bit-exactly and reproduce 100 predictions")


# ---------------------------------------------------------------------------
# Criterion 8: ensemble votes
# ---------------------------------------------------------------------------

def test_criterion_8_ensemble_votes():
    rng = np.random.default_rng(1008)
    for votes in itertools.product([0, 1], repeat=6):
        probs = rng.random(6)
        got = majority_vote(list(votes), probs.tolist())
        positives = sum(votes)
        if positives > 3:
            assert got == 1
        elif positives < 3:
            assert got == 0
        else:
            assert got == (1 if probs.mean() > 0.5 else 0)
        # permutation invariance on the same pattern
        perm = rng.permutation(6)
        shuffled = majority_vote([votes[i] for i in perm],
                                 [probs[i] for i in perm])
        assert shuffled == got
    assert majority_vote([1, 0], [0.5, 0.5]) == 0
    report(8, "all 64 six-vote patterns verified with randomized "
              "probabilities, including the 3-3 tie rule")
