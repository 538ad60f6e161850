"""run_experiment end to end on a tiny config: failure naming, fold plans and --jobs determinism."""

from dataclasses import replace

import numpy as np
import pytest

from ssc import models, synth
from ssc.config import load_config
from ssc.corpus import load_dataset, load_fold_plan, make_folds, save_dataset
from ssc.experiment import build_feature_context, roster_encoder, run_experiment


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
embedding_dim = 8
char_embed_dim = 4
""")
    return load_config(root / "exp.conf"), root


def test_report_identical_at_one_and_two_jobs(tiny_config):
    cfg, root = tiny_config
    outputs = []
    for jobs in (1, 2):
        out = root / f"jobs{jobs}"
        result = run_experiment(replace(cfg, output=str(out)), jobs=jobs, log=lambda msg: None)
        assert not result.failures
        outputs.append(out)
    for name in ("report.csv", "per_fold/50-50.csv"):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()


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
    enc = roster_encoder(synth.feature_context(embed_dim=8, seed=0), kinds)(ds)
    assert (enc.word is not None, enc.char is not None) == (word, char)
    assert len(enc) == 6 and enc.labels.tolist() == [t.label for t in ds]
