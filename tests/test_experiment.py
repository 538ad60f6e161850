"""run_experiment end to end on a tiny config: failure naming and --jobs determinism."""

from dataclasses import replace

import numpy as np
import pytest

from ssc import models, synth
from ssc.config import load_config
from ssc.corpus import save_dataset
from ssc.experiment import run_experiment


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
