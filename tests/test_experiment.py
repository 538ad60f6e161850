"""run_experiment end to end on a tiny config: failure naming (and a clean rerun
removing an earlier failures.txt), fold plans, --jobs
determinism and its refusal below 1, one test-block predict per member,
per-fold rows that the saved checkpoints reproduce, ssc train and ssc evaluate
matching the fold units of every kind, and the checked-in golden run
(tests/golden)."""

import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import fixture_context
from ssc import baselines, ensemble, models, synth
from ssc.cli import main
from ssc.config import ExperimentConfig, load_config
from ssc.corpus import (
    Dataset,
    fold_datasets,
    load_dataset,
    load_fold_plan,
    make_folds,
    save_dataset,
)
from ssc.encoding import CNN_KINDS, KINDS, ML_KINDS
from ssc.ensemble import BowMember, CnnMember, ensemble_vote_batch, load_member
from ssc.experiment import _unit_seed, build_feature_context, roster_encoder, run_experiment
from ssc.metrics import compute_metrics


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    """Three CNN members and one NB member, one small scenario, 1 epoch."""
    root = tmp_path_factory.mktemp("tiny")
    save_dataset(synth.generate_dataset(130, 130, seed=41), root / "corpus.tsv")
    synth.write_fixture_files(root / "fix", embed_dim=8, seed=0)
    (root / "exp.conf").write_text(f"""
[paths]
dataset = {root}/corpus.tsv
abuse_lexicon = {root}/fix/abuse_terms.txt
slang_lexicon = {root}/fix/drug_slang.txt
cluster_map = {root}/fix/clusters.tsv
synonym_map = {root}/fix/synonyms.tsv
embeddings = {root}/fix/embeddings.txt

[experiment]
scenarios = 50:50:100:20
folds = 2
roster = char_aux:1,char_cnn:1,word_aux:1,nb:1
seed = 3

[training]
epochs = 1
batch_size = 16
filters = 2
word_kernels = 2,3
char_kernels = 2,3
char_embed_dim = 4
""")
    return load_config(root / "exp.conf"), root


def test_naive_bayes_roster_fits_no_tfidf(tiny_config, monkeypatch):
    cfg, root = tiny_config

    def fit_tfidf(docs):
        raise AssertionError("fit_tfidf called for a roster that reads no TF-IDF")

    monkeypatch.setattr(baselines, "fit_tfidf", fit_tfidf)
    out = root / "nb_only"
    result = run_experiment(replace(cfg, roster="nb:2", output=str(out)), jobs=1,
                            log=lambda msg: None)
    assert not result.failures
    assert {row.model for row in result.rows} == {"nb"}


def test_report_identical_at_one_and_two_jobs(tiny_config):
    cfg, root = tiny_config
    cfg = replace(cfg, roster=cfg.roster + ",svm:1,rf:1")
    outputs = []
    for jobs in (1, 2):
        out = root / f"jobs{jobs}"
        result = run_experiment(replace(cfg, output=str(out)), jobs=jobs, log=lambda msg: None)
        assert not result.failures
        outputs.append(out)
    # Units save from the jobs pool's threads, so every checkpoint is compared too.
    saved = sorted(str(p.relative_to(outputs[0])) for p in outputs[0].glob("checkpoints/**/*.ckpt"))
    assert len(saved) == 12  # six members, two folds
    for name in ("report.csv", "per_fold/50-50.csv", *saved):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()


@pytest.fixture(scope="module")
def six_kind_fold(tiny_config):
    """A one-member-per-kind experiment, and its fold 0's training and test texts as files."""
    cfg, root = tiny_config
    out = root / "six_kinds"
    cfg = replace(cfg, roster=",".join(f"{kind}:1" for kind in KINDS), output=str(out))
    assert not run_experiment(cfg, jobs=1, log=lambda msg: None).failures
    plan = load_fold_plan(out / "fold_plans" / "scenario_50-50.folds")
    train, test = fold_datasets(load_dataset(cfg.dataset), plan, 0)
    save_dataset(train, root / "fold0_train.tsv")
    save_dataset(test, root / "fold0_test.tsv")
    return cfg, root, out / "checkpoints" / "50-50"


@pytest.mark.parametrize("kind", list(KINDS))
def test_ssc_train_writes_the_checkpoint_of_the_fold_unit(six_kind_fold, tmp_path, capsys, kind):
    # Both train through one path: ssc train --seed s on the fold's training
    # texts gives the unit's bytes, where s is the unit seed, plus the salt 2
    # of a classical unit (a CNN shuffles from its seed + 1).
    cfg, root, ckpts = six_kind_fold
    i = list(KINDS).index(kind)
    seed = _unit_seed(cfg.seed, 0, i, 0) + (0 if kind in CNN_KINDS else 2)
    assert main(["train", "--config", str(root / "exp.conf"), "--kind", kind,
                 "--train-data", str(root / "fold0_train.tsv"),
                 "--output", str(tmp_path / "m.ckpt"), "--seed", str(seed)]) == 0, \
        capsys.readouterr().err
    assert (tmp_path / "m.ckpt").read_bytes() == (ckpts / f"{kind}.m0.f0.ckpt").read_bytes()


@pytest.mark.parametrize("kind", list(KINDS))
def test_ssc_evaluate_prints_the_one_member_ensemble_row(six_kind_fold, capsys, kind):
    cfg, root, ckpts = six_kind_fold
    common = ["--config", str(root / "exp.conf"), "--test-data", str(root / "fold0_test.tsv")]
    ckpt = str(ckpts / f"{kind}.m0.f0.ckpt")
    assert main(["evaluate", "--checkpoint", ckpt, *common]) == 0
    evaluated = capsys.readouterr().out.splitlines()
    assert main(["ensemble", "--members", ckpt, "--mode", "free", *common]) == 0
    voted = capsys.readouterr().out.splitlines()
    assert evaluated[0] == voted[0] and len(evaluated) == len(voted) == 2
    assert evaluated[1].split(",")[:2] == ["-", kind]
    assert voted[1].split(",")[:2] == ["-", "ensemble"]
    assert evaluated[1].split(",")[2:] == voted[1].split(",")[2:]


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_refused_before_any_output(tiny_config, jobs):
    cfg, root = tiny_config
    out = root / f"jobs_{jobs}"
    with pytest.raises(ValueError, match=f"^jobs must be at least 1, not {jobs}$"):
        run_experiment(replace(cfg, output=str(out)), jobs=jobs, log=lambda msg: None)
    assert not out.exists()


def test_training_failure_names_member_and_fold(tiny_config, monkeypatch):
    cfg, root = tiny_config
    real_train = models.train

    def train_with_nan_aux(model, data, train_cfg):
        if model.kind == "char_aux":
            data = replace(data, aux=np.full_like(data.aux, np.nan))
        return real_train(model, data, train_cfg)

    monkeypatch.setattr(models, "train", train_with_nan_aux)
    out = root / "failed"
    result = run_experiment(replace(cfg, output=str(out)), jobs=1, log=lambda msg: None)
    expected = ("scenario 50:50: char_aux.m0 fold 0: "
                "char_aux: non-finite loss nan at epoch 1, batch 1")
    assert result.failures == [expected]
    assert expected in (out / "failures.txt").read_text().splitlines()


def test_word_roster_without_embeddings_fails_naming_scenario(tiny_config):
    cfg, root = tiny_config
    out = root / "no_embeddings"
    result = run_experiment(replace(cfg, embeddings="", output=str(out)), jobs=1,
                            log=lambda msg: None)
    expected = "scenario 50:50: word models need an embeddings path in the config"
    assert result.failures == [expected]
    assert result.rows == []
    assert expected in (out / "failures.txt").read_text().splitlines()


def test_clean_rerun_removes_an_earlier_failures_manifest(tmp_path):
    save_dataset(synth.generate_dataset(40, 40, seed=5), tmp_path / "corpus.tsv")
    cfg = ExperimentConfig(dataset=str(tmp_path / "corpus.tsv"), output=str(tmp_path / "out"),
                           roster="nb:1", folds=1, scenarios="50:50:40:20,10:90:500:20")
    result = run_experiment(cfg, jobs=1, log=lambda msg: None)
    assert [f.split(";")[0] for f in result.failures] == [
        "scenario 10:90: insufficient pool for scenario"]
    assert (tmp_path / "out" / "failures.txt").exists()
    rerun = run_experiment(replace(cfg, scenarios="50:50:40:20"), jobs=1, log=lambda msg: None)
    assert not rerun.failures and rerun.rows
    assert not (tmp_path / "out" / "failures.txt").exists()


def test_every_row_is_what_its_checkpoint_reproduces(tiny_config):
    # One CNN kind, every classical kind and the full classical ensemble.
    cfg, root = tiny_config
    cfg = replace(cfg, roster="char_cnn:1,svm:2,rf:2,nb:2", rf_trees=5,
                  output=str(root / "rows"))
    assert not run_experiment(cfg, jobs=1, log=lambda msg: None).failures
    out, roster = root / "rows", cfg.roster_members()
    tags = [f"{kind}.m{roster[:i].count(kind)}" for i, kind in enumerate(roster)]
    rows = {}
    for line in (out / "per_fold" / "50-50.csv").read_text().splitlines()[1:]:
        fields = line.split(",")
        rows[(fields[1], int(fields[-1]))] = line
    by_id = load_dataset(cfg.dataset).by_id()
    encode = roster_encoder(build_feature_context(cfg), roster)
    plan = load_fold_plan(out / "fold_plans" / "scenario_50-50.folds")
    saved = sorted(p.name for p in (out / "checkpoints" / "50-50").glob("*.ckpt"))
    assert saved == sorted(f"{tag}.f{fold}.ckpt" for tag in tags for fold in range(plan.k))

    def row(name, fold, pred, labels):
        return compute_metrics(pred, labels).csv_row("50:50", name) + f",{fold}"

    reproduced = {}
    for fold, (_, test_ids) in enumerate(plan.folds):
        enc = encode(Dataset(by_id[i] for i in test_ids))
        members = {tag: load_member(tag.split(".")[0],
                                    out / "checkpoints" / "50-50" / f"{tag}.f{fold}.ckpt")
                   for tag in tags}
        for tag, member in members.items():
            reproduced[(tag, fold)] = row(tag, fold, member.predict_batch(enc)[0], enc.labels)
        classical = [m for tag, m in members.items() if m.kind in ML_KINDS]  # roster order
        reproduced[("ensemble_ml", fold)] = row("ensemble_ml", fold,
                                                ensemble_vote_batch(classical, enc), enc.labels)
    assert reproduced == rows


def test_predict_failure_names_member_and_fold(tiny_config):
    cfg, root = tiny_config
    result = run_experiment(replace(cfg, roster="rf:1", rf_trees=0, output=str(root / "no_trees")),
                            jobs=1, log=lambda msg: None)
    assert len(result.failures) == 1
    assert result.failures[0].startswith("scenario 50:50: rf.m0 fold 0: ")


def test_vote_failure_names_ensemble_and_fold(tiny_config, monkeypatch):
    cfg, root = tiny_config

    def failing_vote(classes, probs):
        raise ValueError("no quorum")

    monkeypatch.setattr(ensemble, "vote", failing_vote)
    result = run_experiment(replace(cfg, roster="svm:2,rf:2,nb:2", rf_trees=2,
                                    output=str(root / "no_vote")),
                            jobs=1, log=lambda msg: None)
    assert result.failures == ["scenario 50:50: ensemble_ml fold 0: no quorum"]


def test_each_member_predicts_the_test_block_once_per_fold(tiny_config, monkeypatch):
    # The classical ensemble votes from its members' row predictions.
    cfg, root = tiny_config
    calls = Counter()
    for cls in (CnnMember, BowMember):
        def counted(self, enc, real=cls.predict_batch):
            calls[self.kind] += 1
            return real(self, enc)

        monkeypatch.setattr(cls, "predict_batch", counted)
    cfg = replace(cfg, roster="char_cnn:1,svm:2,rf:2,nb:2", rf_trees=2,
                  output=str(root / "predict_once"))
    assert not run_experiment(cfg, jobs=1, log=lambda msg: None).failures
    assert calls == {"char_cnn": 2, "svm": 4, "rf": 4, "nb": 4}  # members x two folds


def test_synonym_with_whitespace_fails_before_training(tiny_config):
    # Its vocabulary term would make every SVM and NB checkpoint unloadable.
    cfg, root = tiny_config
    (root / "spaced_synonyms.tsv").write_text("weed\tmary jane,bud\n")
    with pytest.raises(ValueError, match="line 1"):
        run_experiment(replace(cfg, roster="svm:1,nb:1", output=str(root / "spaced"),
                               synonym_map=str(root / "spaced_synonyms.tsv")),
                       jobs=1, log=lambda msg: None)


@pytest.mark.parametrize("kinds, reads_table", [(None, True), (["word_aux"], True),
                                                (["nb", "svm", "rf"], False),
                                                (["char_aux", "char_cnn"], False)])
def test_embedding_table_read_only_for_word_kinds(tiny_config, kinds, reads_table):
    cfg, _ = tiny_config  # its roster holds word_aux; kinds=None means the roster
    assert (build_feature_context(cfg, kinds).table is not None) == reads_table


def test_classical_roster_never_reads_the_embeddings(tiny_config):
    cfg, root = tiny_config
    (root / "broken_embeddings.txt").write_text("not an embedding table\n")
    result = run_experiment(replace(cfg, roster="nb:1", output=str(root / "no_table"),
                                    embeddings=str(root / "broken_embeddings.txt")),
                            jobs=1, log=lambda msg: None)
    assert not result.failures and result.rows


def test_saved_fold_plan_loads_back_as_made(tiny_config):
    cfg, root = tiny_config
    out = root / "fold_plan"
    result = run_experiment(replace(cfg, roster="nb:1", output=str(out)), jobs=1,
                            log=lambda msg: None)
    assert not result.failures
    pool = load_dataset(cfg.dataset)
    (plan,) = cfg.scenario_plans()
    loaded = load_fold_plan(out / "fold_plans" / "scenario_50-50.folds")
    assert loaded == make_folds(pool, plan, cfg.folds)


@pytest.mark.parametrize("kinds, word, char", [(["nb", "svm"], False, False),
                                               (["char_cnn", "rf"], False, True),
                                               (["word_aux", "char_aux"], True, True)])
def test_roster_encoder_encodes_what_the_kinds_read(kinds, word, char):
    ds = synth.generate_dataset(3, 3, seed=2)
    enc = roster_encoder(fixture_context(8), kinds)(ds)
    assert (enc.word is not None, enc.char is not None) == (word, char)
    assert len(enc) == 6 and enc.labels.tolist() == [t.label for t in ds]


GOLDEN = Path(__file__).parent / "golden"


def _fresh_interpreter_env(**overrides):
    """This environment with overrides, and the directory holding the ssc under test first on PYTHONPATH."""
    import ssc

    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(ssc.__file__).resolve().parents[1])]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def test_golden_run_reproduces_checked_in_outputs(tmp_path):
    # tests/golden/run.py reruns the golden experiment in a fresh interpreter
    # at SSC_PRECISION=64 and PYTHONHASHSEED=0, with the directory holding the
    # ssc under test first on PYTHONPATH. Reports, per-fold CSVs and fold plans
    # must match byte for byte; checkpoint arrays match by their summaries.
    env = _fresh_interpreter_env(SSC_PRECISION="64", PYTHONHASHSEED="0")
    done = subprocess.run([sys.executable, str(GOLDEN / "run.py"), str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr

    def files(root):
        return sorted(p.relative_to(root).as_posix()
                      for pattern in ("report.csv", "per_fold/*", "fold_plans/*")
                      for p in root.glob(pattern))

    assert files(tmp_path) == files(GOLDEN)
    for name in files(GOLDEN):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def summaries(root):
        return [line.split() for line in (root / "checkpoints.txt").read_text().splitlines()]

    got, want = summaries(tmp_path), summaries(GOLDEN)
    assert [g[:2] for g in got] == [w[:2] for w in want]
    for g, w in zip(got, want):
        for a, b in zip(g[2:], w[2:]):
            assert math.isclose(float(a), float(b), rel_tol=1e-12), (g, w)


# A dress rehearsal of the paper grid: its whole shape (five class ratios, six
# folds, the twelve-member roster, 360 units) at tiny widths.
REHEARSAL_CONFIG = """
[paths]
dataset = {root}/corpus.tsv
abuse_lexicon = {root}/fix/abuse_terms.txt
slang_lexicon = {root}/fix/drug_slang.txt
cluster_map = {root}/fix/clusters.tsv
synonym_map = {root}/fix/synonyms.tsv
embeddings = {root}/fix/embeddings.txt

[experiment]
scenarios = 50:50:140:30,40:60:110:20,30:70:100:20,20:80:90:20,10:90:80:20
folds = 6

[training]
epochs = 1
batch_size = 16
filters = 2
char_kernels = 2,3
char_embed_dim = 4

[baselines]
rf_trees = 5
"""
REHEARSAL_SCENARIOS = ["50:50", "40:60", "30:70", "20:80", "10:90"]
REHEARSAL_TAGS = [s.replace(":", "-") for s in REHEARSAL_SCENARIOS]


def test_paper_grid_rehearsal_identical_at_two_and_one_jobs(tmp_path):
    # Each run is `python -m ssc.cli experiment` in a fresh interpreter on one
    # BLAS thread, so that two members in two threads do not oversubscribe a 2-core box.
    assert main(["dataset", "synth", "--positives", "200", "--negatives", "400", "--seed", "1",
                 "--embed-dim", "8", "--output", str(tmp_path / "corpus.tsv"),
                 "--fixtures", str(tmp_path / "fix")]) == 0
    (tmp_path / "grid.conf").write_text(REHEARSAL_CONFIG.format(root=tmp_path.as_posix()))
    env = _fresh_interpreter_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                                 MKL_NUM_THREADS="1")
    models_ = ["ensemble_cnn", "ensemble_ml", *KINDS]
    measures = ["accuracy", "precision_p", "recall_p", "f1_p"]
    outputs = []
    for jobs in ("2", "1"):
        out = tmp_path / f"jobs{jobs}"
        done = subprocess.run([sys.executable, "-m", "ssc.cli", "experiment", "--config",
                               str(tmp_path / "grid.conf"), "--jobs", jobs, "--output", str(out)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0 and "error" not in done.stderr, done.stderr
        assert not (out / "failures.txt").exists()
        assert sorted(p.name for p in (out / "fold_plans").iterdir()) == sorted(
            f"scenario_{tag}.folds" for tag in REHEARSAL_TAGS)
        assert sorted(p.name for p in (out / "per_fold").iterdir()) == sorted(
            f"{tag}.csv" for tag in REHEARSAL_TAGS)
        for tag in REHEARSAL_TAGS:
            rows = (out / "per_fold" / f"{tag}.csv").read_text().splitlines()[1:]
            assert Counter(row.rsplit(",", 1)[1] for row in rows) == {str(f): 14 for f in range(6)}
        report = (out / "report.csv").read_text().splitlines()
        assert [line.rsplit(",", 1)[0] for line in report[1:]] == [
            f"{s},{m},{measure}" for s in REHEARSAL_SCENARIOS for m in models_
            for measure in measures]
        assert all(0.0 <= float(line.rsplit(",", 1)[1]) <= 1.0 for line in report[1:])
        assert len(list(out.glob("checkpoints/**/*.ckpt"))) == 360
        outputs.append(out)
    compared = ["report.csv", *(p.relative_to(outputs[0]).as_posix() for pattern in
                                ("per_fold/*.csv", "checkpoints/**/*.ckpt")
                                for p in sorted(outputs[0].glob(pattern)))]
    assert len(compared) == 1 + 5 + 360
    for name in compared:
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), name
