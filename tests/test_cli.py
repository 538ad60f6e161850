import hashlib
import re
import zipfile

import numpy as np
import pytest

from conftest import fixture_context
from ssc import baselines, models, nn, synth
from ssc.cli import main
from ssc.config import ConfigFileError, DEFAULT_SCENARIOS, dump_config, load_config
from ssc.corpus import Dataset, Tweet, load_dataset, save_dataset
from ssc.encoding import KINDS, ML_KINDS, encode_dataset
from ssc.ensemble import (
    BowMember,
    CnnMember,
    EnsembleError,
    EnsembleSpec,
    baseline_checkpoint,
    ensemble_vote_batch,
    load_member,
    resolve_members,
)
from ssc.experiment import build_feature_context
from ssc.features import AUX_DIM, MAX_CHARS


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic corpus, fixture files, and a small experiment config."""
    root = tmp_path_factory.mktemp("ws")
    ds = synth.generate_dataset(260, 260, seed=21)
    save_dataset(ds, root / "corpus.tsv")
    synth.write_fixture_files(root / "fix", embed_dim=16, seed=0)
    (root / "exp.conf").write_text(f"""# small experiment
[paths]
dataset = {root}/corpus.tsv
abuse_lexicon = {root}/fix/abuse_terms.txt
slang_lexicon = {root}/fix/drug_slang.txt
cluster_map = {root}/fix/clusters.tsv
synonym_map = {root}/fix/synonyms.tsv
embeddings = {root}/fix/embeddings.txt
output = {root}/out

[experiment]
scenarios = 50:50:200:40
folds = 2
roster = nb:2,svm:2,rf:2
seed = 5

[training]
epochs = 2
batch_size = 32
filters = 4
word_kernels = 2,3
char_kernels = 2,3
char_embed_dim = 8

[baselines]
rf_trees = 10
rf_max_depth = 8
""")
    return root


# SHA-256 of the files synth.write_fixture_files writes. The golden run reads them
# at embed_dim 8 and the benchmark at 400, so an edit of synth that moves one byte
# changes those runs' inputs and must show here first.
FIXTURE_SHA256 = {
    "abuse_terms.txt": "31ec85510274085fd626415e9a71a6d935e18fb3bb4cefff36ea5758ad1168fa",
    "drug_slang.txt": "68a626ca8d50028a8faad86fd8958288c3c68481adc19c36c4f1e86d0cdc8ec5",
    "clusters.tsv": "67d23024388056d14aaaeca3eb1a38d3d929389965d14d9b360f25a0ce018bb9",
    "synonyms.tsv": "d49da51d4e6499d6eea3db01fadbf1c14816a36baf1bae709ad047ec3d35a5a2",
}
EMBEDDINGS_SHA256 = {
    (8, 0): "caca4579871b2f02dcf10ca3bc1fe4d2ae9df9b7531e0592568c30f019e5eb01",
    (8, 101): "83d2d077e3c46f8a6d4dc0cc7b005347723465834057b0c51fc6495c37ce62ef",
    (400, 0): "c54f79c34a1b55ef49e9653f9f35cc6a994e66b3afb53d3c735df0820521c9e7",
    (400, 101): "eb8f0e836573f40501ee69a940477ac5c3f48b2adf30acb550d551e029d2fc4d",
}


# Keys of earlier versions that now hold a fixed value or one read from a file.
REMOVED_KEYS = ("selection_metric", "val_fraction", "lr", "dropout", "embedding_dim",
                "max_append", "svm_lambda", "svm_epochs")


class TestConfig:
    def test_minimal_config_defaults(self, tmp_path):
        ds = synth.generate_dataset(5, 5, seed=0)
        save_dataset(ds, tmp_path / "d.tsv")
        (tmp_path / "min.conf").write_text(f"[paths]\ndataset = {tmp_path}/d.tsv\n")
        cfg = load_config(tmp_path / "min.conf")
        assert cfg.scenarios == DEFAULT_SCENARIOS
        assert cfg.folds == 6 and cfg.epochs == 30
        assert len(cfg.roster_members()) == 12

    # learning_rte is a typo; the others are the REMOVED_KEYS at their old defaults.
    @pytest.mark.parametrize("section, key, value", [
        ("training", "learning_rte", "0.1"), ("training", "selection_metric", "f1_p"),
        ("training", "val_fraction", "0.1"), ("training", "lr", "0.001"),
        ("training", "dropout", "0.5"), ("training", "embedding_dim", "400"),
        ("training", "max_append", "10"), ("baselines", "svm_lambda", "0.0001"),
        ("baselines", "svm_epochs", "10"),
    ])
    def test_unknown_key_named_with_line(self, tmp_path, section, key, value):
        (tmp_path / "bad.conf").write_text(
            f"[paths]\ndataset = x\n[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigFileError, match=f"line 4: unknown key '{key}'"):
            load_config(tmp_path / "bad.conf")

    def test_malformed_value_named_with_line(self, tmp_path):
        (tmp_path / "bad.conf").write_text("[training]\nepochs = soon\n")
        with pytest.raises(ConfigFileError, match="line 2"):
            load_config(tmp_path / "bad.conf")

    # The best epoch is always picked by f1_p, so naming any metric is refused.
    @pytest.mark.parametrize("metric", ["f1", "fit_loss"])
    def test_unknown_selection_metric_named_with_line(self, tmp_path, metric):
        (tmp_path / "bad.conf").write_text(
            f"[paths]\ndataset = x\n[training]\nselection_metric = {metric}\n")
        with pytest.raises(ConfigFileError, match="line 4: unknown key 'selection_metric'"):
            load_config(tmp_path / "bad.conf")

    @pytest.mark.parametrize("key, value", [
        ("word_kernels", "3,x"), ("char_kernels", "0,3"), ("word_kernels", "-1"),
        ("char_kernels", "3,3"), ("word_kernels", ""), ("word_kernels", "\u00b2"),
        ("char_kernels", str(MAX_CHARS + 1)),
    ])
    def test_bad_kernel_list_named_with_line(self, tmp_path, key, value):
        (tmp_path / "bad.conf").write_text(
            f"[paths]\ndataset = x\n[training]\n{key} = {value}\n", encoding="utf-8")
        with pytest.raises(ConfigFileError, match=f"line 4: {key}"):
            load_config(tmp_path / "bad.conf")

    @pytest.mark.parametrize("section, key, value", [
        ("experiment", "scenarios", "50:x:10:5"), ("experiment", "scenarios", "50:50:10"),
        ("experiment", "scenarios", "50:40:10:10"),
        ("experiment", "scenarios", "50:50:40:20,50:50:20:10"), ("experiment", "roster", "nb:two"),
        ("experiment", "roster", "nb:0"), ("experiment", "roster", "lstm:2"),
        ("experiment", "folds", "0"), ("training", "epochs", "0"),
        ("training", "batch_size", "0"), ("training", "filters", "0"),
        ("training", "embedding_dim", "0"), ("training", "char_embed_dim", "0"),
        ("training", "max_append", "-1"), ("training", "val_fraction", "0.7"),
        ("training", "val_fraction", "0.5"), ("training", "val_fraction", "0"),
        ("training", "dropout", "1"), ("training", "dropout", "-0.1"),
        ("training", "lr", "-1"), ("training", "lr", "0"), ("training", "lr", "nan"),
        ("baselines", "svm_lambda", "0"), ("baselines", "svm_epochs", "0"),
        ("baselines", "rf_trees", "0"), ("baselines", "rf_max_depth", "0"),
    ])
    def test_out_of_range_value_named_with_line(self, tmp_path, section, key, value):
        (tmp_path / "bad.conf").write_text(
            f"[paths]\ndataset = x\n[{section}]\n{key} = {value}\n")
        # A key that left the schema is refused whatever its value.
        what = f"unknown key '{key}'" if key in REMOVED_KEYS else f"{key} "
        with pytest.raises(ConfigFileError, match=f"line 4: {what}"):
            load_config(tmp_path / "bad.conf")

    def test_repeated_key_refused_with_both_lines(self, tmp_path, capsys):
        (tmp_path / "bad.conf").write_text(
            "[paths]\ndataset = x\n[training]\nepochs = 3\n\nepochs = 5\n")
        expected = "line 6: epochs is set again (first set on line 4)"
        with pytest.raises(ConfigFileError, match=re.escape(expected)):
            load_config(tmp_path / "bad.conf")
        assert main(["config", "--config", str(tmp_path / "bad.conf")]) == 1
        assert expected in capsys.readouterr().err

    def test_missing_dataset_path(self, tmp_path):
        (tmp_path / "bad.conf").write_text("[experiment]\nseed = 1\n")
        with pytest.raises(ConfigFileError, match="dataset"):
            load_config(tmp_path / "bad.conf")

    def test_nonexistent_path_rejected(self, tmp_path):
        (tmp_path / "bad.conf").write_text("[paths]\ndataset = /no/such/file\n")
        with pytest.raises(ConfigFileError, match="does not exist"):
            load_config(tmp_path / "bad.conf")

    def test_dump_load_round_trip(self, workspace, tmp_path):
        cfg = load_config(workspace / "exp.conf")
        (tmp_path / "dumped.conf").write_text(dump_config(cfg))
        again = load_config(tmp_path / "dumped.conf")
        assert again == cfg
        assert again.digest() == cfg.digest()

    def test_scenario_parsing(self, workspace):
        cfg = load_config(workspace / "exp.conf")
        plans = cfg.scenario_plans()
        assert len(plans) == 1
        assert plans[0].ratio == (50, 50)
        assert plans[0].n_train == 200 and plans[0].n_test == 40


class TestDatasetCommands:
    def test_validate(self, workspace, capsys):
        assert main(["dataset", "validate", "--input", str(workspace / "corpus.tsv")]) == 0
        out = capsys.readouterr().out
        assert "520 items" in out

    def test_validate_bad_file_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("onlyonecolumn\n")
        assert main(["dataset", "validate", "--input", str(bad)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_dedupe(self, tmp_path, capsys):
        ds = Dataset([Tweet("a", "Same thing", 1), Tweet("b", "same  thing", 0),
                      Tweet("c", "different", 1)])
        save_dataset(ds, tmp_path / "in.tsv")
        assert main(["dataset", "dedupe", "--input", str(tmp_path / "in.tsv"),
                     "--output", str(tmp_path / "out.tsv")]) == 0
        assert len(load_dataset(tmp_path / "out.tsv")) == 2

    def test_aggregate(self, tmp_path, capsys):
        ds = Dataset([Tweet("t1", "text one"), Tweet("t2", "text two")])
        save_dataset(ds, tmp_path / "in.tsv")
        (tmp_path / "ann.tsv").write_text(
            "t1\ta\t1\nt1\tb\t1\nt1\tc\t0\nt2\ta\t0\nt2\tb\t0\nt2\tc\t0\n")
        assert main(["dataset", "aggregate", "--input", str(tmp_path / "in.tsv"),
                     "--annotations", str(tmp_path / "ann.tsv"),
                     "--output", str(tmp_path / "out.tsv")]) == 0
        out = load_dataset(tmp_path / "out.tsv")
        assert out.by_id()["t1"].label == 1 and out.by_id()["t2"].label == 0

    def test_aggregate_rejections_exit_nonzero(self, tmp_path, capsys):
        ds = Dataset([Tweet("t1", "text one")])
        save_dataset(ds, tmp_path / "in.tsv")
        (tmp_path / "ann.tsv").write_text("t1\ta\t1\nt1\tb\t0\n")
        assert main(["dataset", "aggregate", "--input", str(tmp_path / "in.tsv"),
                     "--annotations", str(tmp_path / "ann.tsv"),
                     "--output", str(tmp_path / "out.tsv")]) == 1
        assert "rejected" in capsys.readouterr().err

    def test_resample_and_folds(self, workspace, tmp_path):
        assert main(["dataset", "resample", "--input", str(workspace / "corpus.tsv"),
                     "--ratio", "50:50", "--train", "100", "--test", "20",
                     "--seed", "3",
                     "--output-train", str(tmp_path / "tr.tsv"),
                     "--output-test", str(tmp_path / "te.tsv")]) == 0
        train = load_dataset(tmp_path / "tr.tsv")
        assert len(train) == 100 and sum(t.label for t in train) == 50
        assert main(["dataset", "folds", "--input", str(workspace / "corpus.tsv"),
                     "--ratio", "50:50", "--train", "100", "--test", "20",
                     "--k", "3", "--seed", "3",
                     "--output", str(tmp_path / "plan.folds")]) == 0
        assert (tmp_path / "plan.folds").exists()

    @pytest.mark.parametrize("action", ["resample", "folds"])
    @pytest.mark.parametrize("ratio", ["50", "50:x", "50:50:10"])
    def test_ratio_not_pos_neg_refused_by_the_parser(self, workspace, tmp_path, capsys,
                                                     action, ratio):
        outputs = (["--output-train", str(tmp_path / "tr.tsv"), "--output-test",
                    str(tmp_path / "te.tsv")] if action == "resample"
                   else ["--output", str(tmp_path / "plan.folds")])
        with pytest.raises(SystemExit) as exit_info:
            main(["dataset", action, "--input", str(workspace / "corpus.tsv"), "--ratio", ratio,
                  "--train", "100", "--test", "20", *outputs])
        assert exit_info.value.code != 0
        assert (f"--ratio: must be POS:NEG, e.g. 50:50, not {ratio!r}"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_synth(self, tmp_path):
        assert main(["dataset", "synth", "--positives", "8", "--negatives", "6",
                     "--seed", "1", "--output", str(tmp_path / "s.tsv")]) == 0
        ds = load_dataset(tmp_path / "s.tsv")
        assert len(ds) == 14 and sum(t.label for t in ds) == 8

    @pytest.mark.parametrize("embed_dim, seed", sorted(EMBEDDINGS_SHA256))
    def test_fixture_files_keep_their_bytes(self, tmp_path, embed_dim, seed):
        paths = synth.write_fixture_files(tmp_path, embed_dim=embed_dim, seed=seed)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths.values()}
        assert digests == {**FIXTURE_SHA256, "embeddings.txt": EMBEDDINGS_SHA256[embed_dim, seed]}


class TestModelCommands:
    def test_train_evaluate_predict_baseline(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "nb.ckpt"
        assert main(["train", "--config", str(workspace / "exp.conf"),
                     "--kind", "nb", "--train-data", str(workspace / "corpus.tsv"),
                     "--output", str(ckpt)]) == 0
        assert main(["evaluate", "--config", str(workspace / "exp.conf"),
                     "--checkpoint", str(ckpt),
                     "--test-data", str(workspace / "corpus.tsv")]) == 0
        out = capsys.readouterr().out
        assert "scenario,model" in out and ",nb," in out
        assert main(["predict", "--config", str(workspace / "exp.conf"),
                     "--checkpoint", str(ckpt),
                     "--text", "just got zooted on oxy with my bro lol"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(("positive", "negative")) and "p_positive=" in out

    def test_train_naive_bayes_fits_no_tfidf(self, workspace, tmp_path, capsys, monkeypatch):
        def fit_tfidf(docs):
            raise AssertionError("fit_tfidf called for a kind that reads the tokens")

        monkeypatch.setattr(baselines, "fit_tfidf", fit_tfidf)
        assert main(["train", "--config", str(workspace / "exp.conf"), "--kind", "nb",
                     "--train-data", str(workspace / "corpus.tsv"),
                     "--output", str(tmp_path / "nb.ckpt")]) == 0, capsys.readouterr().err

    @pytest.mark.parametrize("kind", ML_KINDS)
    def test_checkpoint_holds_idf_iff_the_kind_reads_tfidf(self, workspace, tmp_path, kind):
        ckpt = tmp_path / f"{kind}.ckpt"
        assert main(["train", "--config", str(workspace / "exp.conf"), "--kind", kind,
                     "--train-data", str(workspace / "corpus.tsv"), "--output", str(ckpt)]) == 0
        assert ("idf" in nn.load_checkpoint(ckpt).arrays) == KINDS[kind].tfidf

    def test_train_cnn_member(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "char.ckpt"
        assert main(["train", "--config", str(workspace / "exp.conf"),
                     "--kind", "char_cnn", "--train-data", str(workspace / "corpus.tsv"),
                     "--output", str(ckpt), "--seed", "2"]) == 0
        assert "best epoch" in capsys.readouterr().out
        assert main(["evaluate", "--config", str(workspace / "exp.conf"),
                     "--checkpoint", str(ckpt),
                     "--test-data", str(workspace / "corpus.tsv")]) == 0

    def test_word_member_evaluates_under_classical_roster(self, workspace, tmp_path, capsys):
        # exp.conf's roster has no word kind; the checkpoint's kind decides
        # whether the embedding table is read.
        ckpt = tmp_path / "word.ckpt"
        assert main(["train", "--config", str(workspace / "exp.conf"),
                     "--kind", "word_aux", "--train-data", str(workspace / "corpus.tsv"),
                     "--output", str(ckpt), "--seed", "2"]) == 0
        assert main(["evaluate", "--config", str(workspace / "exp.conf"),
                     "--checkpoint", str(ckpt),
                     "--test-data", str(workspace / "corpus.tsv")]) == 0
        assert ",word_aux," in capsys.readouterr().out

    def test_word_member_given_vectors_of_another_width_says_so(self, workspace, tmp_path,
                                                                capsys):
        # Train on 8-wide word vectors, then evaluate under exp.conf, whose
        # embeddings file is 16 wide.
        synth.write_fixture_files(tmp_path / "fix8", embed_dim=8, seed=0)
        conf8 = tmp_path / "fix8.conf"
        conf8.write_text((workspace / "exp.conf").read_text().replace(
            f"{workspace}/fix/embeddings.txt", f"{tmp_path}/fix8/embeddings.txt"))
        ckpt = tmp_path / "word8.ckpt"
        assert main(["train", "--config", str(conf8), "--kind", "word_aux",
                     "--train-data", str(workspace / "corpus.tsv"), "--output", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--config", str(workspace / "exp.conf"),
                     "--checkpoint", str(ckpt),
                     "--test-data", str(workspace / "corpus.tsv")]) == 1
        err = capsys.readouterr().err
        assert "word_aux has embed_dim 8, but its word vectors are 16 wide" in err
        assert "the config's embeddings file sets that width" in err

    def test_train_word_member_without_embeddings_fails(self, workspace, tmp_path, capsys):
        conf = tmp_path / "no_embeddings.conf"
        lines = (workspace / "exp.conf").read_text().splitlines()
        conf.write_text("\n".join(x for x in lines if not x.startswith("embeddings =")))
        assert main(["train", "--config", str(conf), "--kind", "word_aux",
                     "--train-data", str(workspace / "corpus.tsv"),
                     "--output", str(tmp_path / "word.ckpt")]) == 1
        assert "word models need an embeddings path" in capsys.readouterr().err
        assert not (tmp_path / "word.ckpt").exists()

    def test_prefilter_matches_library_on_encoded_features(self, workspace, tmp_path, capsys):
        conf, corpus = str(workspace / "exp.conf"), str(workspace / "corpus.tsv")
        ckpt, out = tmp_path / "svm.ckpt", tmp_path / "sample.tsv"
        assert main(["train", "--config", conf, "--kind", "svm", "--train-data", corpus,
                     "--output", str(ckpt)]) == 0
        assert main(["prefilter", "--config", conf, "--checkpoint", str(ckpt),
                     "--input", corpus, "--threshold", "0.7", "--sample", "30",
                     "--seed", "4", "--output", str(out)]) == 0
        assert "items above threshold, wrote 30" in capsys.readouterr().out
        member = load_member("svm", ckpt)
        ds = load_dataset(corpus)
        enc = encode_dataset(ds, build_feature_context(load_config(conf)),
                             with_word=False, with_char=False)
        x = baselines.bow_features(enc, member.vocab, member.idf)
        expected = baselines.prefilter(ds, *baselines.svm_predict(member.model, x),
                                       threshold=0.7, sample_n=30, seed=4)
        assert [(t.id, t.text) for t in load_dataset(out)] == \
            [(t.id, t.text) for t in expected.sample]

    def test_prefilter_refuses_another_kind_before_building_it(self, workspace, tmp_path,
                                                                capsys):
        # A forest checkpoint that would not even load: the kind alone refuses it.
        nn.save_checkpoint(nn.ModelCheckpoint(0, {"idf": np.ones(2)},
                                              metadata={"kind": "rf", "vocab": "a b"}),
                           tmp_path / "rf.ckpt")
        assert main(["prefilter", "--config", str(workspace / "exp.conf"),
                     "--checkpoint", str(tmp_path / "rf.ckpt"),
                     "--input", str(workspace / "corpus.tsv"),
                     "--output", str(tmp_path / "sample.tsv")]) == 1
        assert capsys.readouterr().err == "error: prefilter requires an SVM checkpoint\n"
        assert not (tmp_path / "sample.tsv").exists()

    def test_agreement(self, tmp_path, capsys):
        (tmp_path / "ann.tsv").write_text(
            "t1\ta\t1\nt1\tb\t1\nt2\ta\t0\nt2\tb\t0\nt3\ta\t1\nt3\tb\t0\n")
        assert main(["agreement", "--annotations", str(tmp_path / "ann.tsv"),
                     "--kappa", "a,b"]) == 0
        out = capsys.readouterr().out
        assert "alpha=" in out and "kappa[a,b]=" in out

    def test_missing_file_errors(self, capsys):
        assert main(["dataset", "validate", "--input", "/no/such.tsv"]) == 1
        assert "error:" in capsys.readouterr().err


class TestEnsembleSurface:
    def members_via_checkpoints(self, workspace, tmp_path):
        ds = load_dataset(workspace / "corpus.tsv")
        ctx = fixture_context(16)
        enc = encode_dataset(ds, ctx, with_word=False)
        vocab, idf = baselines.fit_tfidf(enc.tokens)
        x = baselines.bow_features(enc, vocab, idf)
        y = enc.labels
        svm = baselines.train_svm(x, y, lam=1e-4, epochs=5, seed=0)
        rf = baselines.train_rf(x, y, trees=5, max_depth=6, seed=0)
        nb = baselines.train_nb(enc.tokens, y.tolist())
        members = [BowMember("svm", svm, vocab, idf),
                   BowMember("rf", rf, vocab, idf),
                   BowMember("nb", nb)]
        paths = []
        for m in members:
            p = tmp_path / f"{m.kind}.ckpt"
            nn.save_checkpoint(baseline_checkpoint(m), p)
            paths.append((m.kind, p))
        return members, paths, enc

    @pytest.mark.parametrize("kind", ML_KINDS)
    @pytest.mark.parametrize("term", ["mary jane", "", "a\tb"])
    def test_vocabulary_term_that_would_not_split_back_refused(self, kind, term):
        vocab = {"bud": 0, term: 1}
        if kind == "nb":
            member = BowMember("nb", baselines.NbModel(vocab, np.log([0.5, 0.5]),
                                                       np.log(np.full((2, 2), 0.5))))
        elif kind == "svm":
            member = BowMember("svm", baselines.SvmModel(np.zeros(2), platt_a=-1.0, platt_b=0.0),
                               vocab, np.ones(2))
        else:
            member = BowMember("rf", baselines.RfModel([]), vocab, np.ones(2))
        with pytest.raises(ValueError, match="vocabulary term"):
            baseline_checkpoint(member)

    def test_baseline_member_round_trip_predictions(self, workspace, tmp_path):
        members, paths, enc = self.members_via_checkpoints(workspace, tmp_path)
        probe = enc.subset(np.arange(25))
        for member, (kind, path) in zip(members, paths):
            loaded = load_member(kind, path)
            assert loaded.kind == kind
            a_cls, _ = member.predict_batch(probe)
            b_cls, _ = loaded.predict_batch(probe)
            assert np.array_equal(a_cls, b_cls)

    def test_all_identical_members_match_individual(self, workspace, tmp_path):
        members, paths, enc = self.members_via_checkpoints(workspace, tmp_path)
        nb = members[2]
        spec = EnsembleSpec((paths[2],) * 5, mode="free")
        probe = enc.subset(np.arange(40))
        votes = ensemble_vote_batch(resolve_members(spec), probe)
        assert np.array_equal(votes, nb.predict_batch(probe)[0])
        for i in (0, 3, 7):
            assert votes[i] == nb.predict(probe, i)[0]

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_every_kind_round_trips_exactly(self, workspace, tmp_path, kind):
        # CNN members are built in float64, so a float32 container would lose bits.
        ctx = fixture_context(16)
        enc = encode_dataset(load_dataset(workspace / "corpus.tsv"), ctx)
        path = tmp_path / f"{kind}.exact.ckpt"
        if kind in ML_KINDS:
            members, _, _ = self.members_via_checkpoints(workspace, tmp_path)
            member = next(m for m in members if m.kind == kind)
            nn.save_checkpoint(baseline_checkpoint(member), path)
        else:
            cfg = models.CnnConfig(kernel_sizes=(2, 3), filters=4,
                                   embed_dim=16 if kind == "word_aux" else 8)
            model = models.build_model(kind, cfg, seed=3, dtype=np.float64)
            member = CnnMember(model)
            nn.save_checkpoint(nn.ModelCheckpoint(1, model.params.state_dict(),
                                                  metadata=model.metadata()), path)
        loaded = load_member(kind, path)
        before, after = _member_arrays(member), _member_arrays(loaded)
        assert before.keys() == after.keys()
        for name in before:
            assert after[name].dtype == before[name].dtype, name
            assert np.array_equal(after[name], before[name]), name
        probe = enc.subset(np.arange(60))
        a_cls, a_p = member.predict_batch(probe)
        b_cls, b_p = loaded.predict_batch(probe)
        assert np.array_equal(a_cls, b_cls) and np.array_equal(a_p, b_p)

    def test_member_load_failure_names_member(self, tmp_path):
        spec = EnsembleSpec((("nb", tmp_path / "missing.ckpt"),), mode="free")
        with pytest.raises(EnsembleError, match="member 0 \\(nb\\)"):
            resolve_members(spec)

    @pytest.mark.parametrize("declared", ["char_cnn", "char_aux", "svm"])
    def test_cnn_checkpoint_kind_tag_checked(self, tmp_path, declared):
        cfg = models.CnnConfig(kernel_sizes=(2, 3), filters=2, embed_dim=8)
        model = models.build_model("word_aux", cfg, seed=0)
        path = tmp_path / "word.ckpt"
        nn.save_checkpoint(nn.ModelCheckpoint(1, model.params.state_dict(),
                                              metadata=model.metadata()), path)
        with pytest.raises(EnsembleError, match=f"'word_aux' does not match '{declared}'"):
            load_member(declared, path)

    @pytest.mark.parametrize("trees", [1, 10])
    def test_forest_archive_members_do_not_depend_on_tree_count(self, workspace, tmp_path,
                                                                 trees):
        members, _, enc = self.members_via_checkpoints(workspace, tmp_path)
        x = baselines.bow_features(enc, members[1].vocab, members[1].idf)
        rf = baselines.train_rf(x, enc.labels, trees=trees, max_depth=4, seed=1)
        path = tmp_path / "forest.ckpt"
        nn.save_checkpoint(baseline_checkpoint(BowMember("rf", rf, members[1].vocab,
                                                         members[1].idf)), path)
        with zipfile.ZipFile(path) as zf:
            assert zf.namelist() == [f"{name}.npy" for name in (
                "idf", "tree_nodes", "feature", "threshold", "left", "right", "counts")] \
                + ["metadata.txt"]
        loaded = load_member("rf", path)
        assert len(loaded.model.trees) == trees
        for before, after in zip(rf.trees, loaded.model.trees):
            for name, value in vars(before).items():
                assert np.array_equal(getattr(after, name), value), name

    @pytest.mark.parametrize("kind, old_tag", [("svm", "SVM1"), ("rf", "RF1"), ("nb", "NB1")])
    def test_checkpoint_with_older_classical_tag_refused(self, workspace, tmp_path, capsys,
                                                         kind, old_tag):
        members, _, _ = self.members_via_checkpoints(workspace, tmp_path)
        cp = baseline_checkpoint(next(m for m in members if m.kind == kind))
        cp.metadata["kind"] = old_tag
        path = tmp_path / f"old_{kind}.ckpt"
        nn.save_checkpoint(cp, path)
        with pytest.raises(EnsembleError, match=f"'{old_tag}' does not match '{kind}'"):
            load_member(kind, path)
        assert main(["evaluate", "--config", str(workspace / "exp.conf"),
                     "--checkpoint", str(path),
                     "--test-data", str(workspace / "corpus.tsv")]) == 1
        err = capsys.readouterr().err
        assert f"kind tag '{old_tag}' names no member kind ({', '.join(KINDS)})" in err
        assert "re-running training regenerates it" in err

    @pytest.mark.parametrize("tree_nodes", [[], [0, 0, 0], "one_more", "one_less", "zero_first"])
    def test_forest_whose_node_counts_do_not_add_up_refused(self, workspace, tmp_path,
                                                           tree_nodes):
        members, _, _ = self.members_via_checkpoints(workspace, tmp_path)
        cp = baseline_checkpoint(members[1])
        nodes = cp.arrays["tree_nodes"].copy()
        if tree_nodes == "one_more":
            nodes[-1] += 1
        elif tree_nodes == "one_less":
            nodes[0] -= 1
        elif tree_nodes == "zero_first":  # the same total, one empty tree
            nodes[1] += nodes[0]
            nodes[0] = 0
        else:
            nodes = np.array(tree_nodes, dtype=np.int64)
        cp.arrays["tree_nodes"] = nodes
        with pytest.raises(ValueError, match="^rf checkpoint: tree_nodes must be counts >= 1"):
            load_member("rf", cp)

    @pytest.mark.parametrize("kind", ML_KINDS)
    def test_checkpoint_missing_an_array_refused(self, workspace, tmp_path, kind):
        members, _, _ = self.members_via_checkpoints(workspace, tmp_path)
        cp = baseline_checkpoint(next(m for m in members if m.kind == kind))
        for name in cp.arrays:
            arrays = {k: v for k, v in cp.arrays.items() if k != name}
            with pytest.raises(ValueError, match=f"^{kind} checkpoint: missing arrays: {name}$"):
                load_member(kind, nn.ModelCheckpoint(0, arrays, metadata=cp.metadata))
        with pytest.raises(ValueError, match=f"^{kind} checkpoint: missing arrays: "
                                             f"{', '.join(cp.arrays)}$"):
            load_member(kind, nn.ModelCheckpoint(0, {}, metadata=cp.metadata))

    # corrupt(arrays, V) gives the arrays to replace, V the vocabulary size;
    # the refusal names the first array that does not fit.
    @pytest.mark.parametrize("kind, corrupt, message", [
        pytest.param("svm", lambda a, v: {"idf": a["idf"][:-3]}, "idf has shape",
                     id="svm-idf-3-short"),
        pytest.param("svm", lambda a, v: {"weights": a["weights"][:v]}, "weights has shape",
                     id="svm-weights-without-aux"),
        pytest.param("svm", lambda a, v: {"platt": a["platt"][:1]}, "platt has shape",
                     id="svm-platt-one-value"),
        pytest.param("nb", lambda a, v: {"log_prior": np.log([0.25, 0.25, 0.5])},
                     "log_prior has shape", id="nb-three-priors"),
        pytest.param("nb", lambda a, v: {"log_likelihood": a["log_likelihood"].T},
                     "log_likelihood has shape", id="nb-likelihood-transposed"),
        pytest.param("rf", lambda a, v: {"idf": a["idf"][:-3]}, "idf has shape",
                     id="rf-idf-3-short"),
        pytest.param("rf", lambda a, v: {"counts": a["counts"][:, :1]}, "counts has shape",
                     id="rf-counts-one-column"),
        pytest.param("rf", lambda a, v: {"left": _set(a["left"], 0, 0),
                                         "right": _set(a["right"], 0, 0)},
                     "left/right of tree 0 node 0 are 0/0", id="rf-root-own-child"),
        pytest.param("rf", lambda a, v: {"left": _set(a["left"], 0, a["tree_nodes"][0])},
                     "left/right of tree 0 node 0", id="rf-child-in-next-tree"),
        pytest.param("rf", lambda a, v: {"right": _set(a["right"], 0, -1)},
                     "left/right of tree 0 node 0", id="rf-one-child-a-leaf"),
        pytest.param("rf", lambda a, v: {"feature": _set(a["feature"], 0, v + AUX_DIM)},
                     "feature of tree 0 node 0", id="rf-feature-past-the-row"),
        pytest.param("rf", lambda a, v: {"feature": a["feature"].astype(np.float64)},
                     "feature has dtype float64", id="rf-feature-not-integer"),
    ])
    def test_inconsistent_classical_checkpoint_refused_naming_the_array(
            self, workspace, tmp_path, kind, corrupt, message):
        members, _, _ = self.members_via_checkpoints(workspace, tmp_path)
        cp = baseline_checkpoint(next(m for m in members if m.kind == kind))
        assert kind != "rf" or cp.arrays["left"][0] != -1  # the first tree's root splits
        arrays = {**cp.arrays, **corrupt(cp.arrays, len(cp.metadata["vocab"].split()))}
        with pytest.raises(ValueError, match="^" + re.escape(f"{kind} checkpoint: {message}")):
            load_member(kind, nn.ModelCheckpoint(0, arrays, metadata=cp.metadata))

    def test_vocabulary_that_repeats_a_term_refused(self, workspace, tmp_path):
        members, _, _ = self.members_via_checkpoints(workspace, tmp_path)
        cp = baseline_checkpoint(members[2])
        terms = cp.metadata["vocab"].split()
        metadata = {**cp.metadata, "vocab": " ".join([terms[0], *terms[:-1]])}
        with pytest.raises(ValueError, match="^nb checkpoint: vocab repeats a term$"):
            load_member("nb", nn.ModelCheckpoint(0, cp.arrays, metadata=metadata))

    def test_kind_tag_mismatch_detected(self, workspace, tmp_path):
        members, paths, _ = self.members_via_checkpoints(workspace, tmp_path)
        svm_path = paths[0][1]
        spec = EnsembleSpec((("rf", svm_path),), mode="free")
        with pytest.raises(EnsembleError):
            resolve_members(spec)


def _set(array: np.ndarray, i: int, value) -> np.ndarray:
    """A copy of array with entry i set to value."""
    out = array.copy()
    out[i] = value
    return out


def _member_arrays(member) -> dict[str, np.ndarray]:
    """Every array a member predicts from, by name."""
    if isinstance(member, CnnMember):
        return member.model.params.state_dict()
    m = member.model
    if member.kind == "nb":
        return {"log_prior": m.log_prior, "log_likelihood": m.log_likelihood}
    out = {"idf": member.idf}
    if member.kind == "svm":
        out["weights"] = m.weights
        out["scalars"] = np.array([m.platt_a, m.platt_b])
    else:
        for t, tree in enumerate(m.trees):
            out.update({f"{t}.{k}": v for k, v in vars(tree).items()})
    return out


class TestEmitReport:
    def report(self, cells):
        from ssc.experiment import ExperimentReport, ReportRow
        from ssc.metrics import MetricsReport
        rows = [ReportRow(s, m, MetricsReport.from_counts(*counts))
                for s, m, counts in cells]
        return ExperimentReport(rows, {}, [])

    def test_single_cell_csv_rows(self):
        from ssc.experiment import emit_report
        report = self.report([("50:50", "nb", (3, 1, 2, 4))])
        lines = emit_report(report, "csv").strip().splitlines()
        assert len(lines) == 1 + 4  # header + one row per measure
        assert lines[1].startswith("50:50,nb,accuracy,")

    def test_csv_parses_back_to_same_numbers(self):
        from ssc.experiment import emit_report
        report = self.report([("50:50", "nb", (3, 1, 2, 4)),
                              ("10:90", "svm", (7, 3, 1, 19))])
        by_key = {(r.scenario, r.model): r.metrics for r in report.rows}
        for line in emit_report(report, "csv").strip().splitlines()[1:]:
            scenario, model, measure, value = line.split(",")
            expected = by_key[(scenario, model)].value(measure)
            assert float(value) == pytest.approx(expected, abs=5e-7)

    def test_markdown_block_per_scenario(self):
        from ssc.experiment import emit_report
        report = self.report([("50:50", "nb", (3, 1, 2, 4)),
                              ("50:50", "svm", (4, 1, 1, 4)),
                              ("10:90", "nb", (1, 3, 2, 14))])
        md = emit_report(report, "markdown")
        assert md.count("## Class distribution") == 2
        assert "| accuracy |" in md and "0.7000" in md

    def test_unknown_format_rejected(self):
        from ssc.experiment import emit_report
        with pytest.raises(ValueError):
            emit_report(self.report([("50:50", "nb", (1, 1, 1, 1))]), "xml")


class TestExperimentCommand:
    def test_small_experiment_and_determinism(self, workspace, tmp_path, capsys):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        rc = main(["experiment", "--config", str(workspace / "exp.conf"),
                   "--output", str(out1), "--format", "markdown"])
        assert rc == 0
        md = capsys.readouterr().out
        assert md.count("## Class distribution") == 1
        report_csv = (out1 / "report.csv").read_text()
        # 4 models (3 kinds + ml ensemble) x 4 measures + header
        assert len(report_csv.strip().splitlines()) == 1 + 4 * 4
        assert (out1 / "fold_plans" / "scenario_50-50.folds").exists()
        assert (out1 / "per_fold" / "50-50.csv").exists()
        assert (out1 / "provenance.txt").exists()
        ckpts = list((out1 / "checkpoints" / "50-50").iterdir())
        assert len(ckpts) == 6 * 2  # 6 members x 2 folds

        rc = main(["experiment", "--config", str(workspace / "exp.conf"),
                   "--output", str(out2)])
        assert rc == 0
        capsys.readouterr()
        assert (out2 / "report.csv").read_text() == report_csv

    def test_infeasible_scenario_fails_with_manifest(self, workspace, tmp_path, capsys):
        conf = (workspace / "exp.conf").read_text().replace(
            "scenarios = 50:50:200:40", "scenarios = 50:50:2000:400")
        bad = tmp_path / "bad.conf"
        bad.write_text(conf)
        rc = main(["experiment", "--config", str(bad),
                   "--output", str(tmp_path / "out")])
        assert rc == 1
        assert "insufficient" in capsys.readouterr().err
        assert (tmp_path / "out" / "failures.txt").exists()

    def test_full_roster_yields_eight_rows(self, workspace, tmp_path, capsys):
        # 6 individual kinds + 2 ensembles, when both compositions are complete.
        conf = (workspace / "exp.conf").read_text().replace(
            "roster = nb:2,svm:2,rf:2",
            "roster = char_aux:2,char_cnn:2,word_aux:2,nb:2,svm:2,rf:2").replace(
            "folds = 2", "folds = 1").replace("epochs = 2", "epochs = 1")
        full = tmp_path / "full.conf"
        full.write_text(conf)
        rc = main(["experiment", "--config", str(full),
                   "--output", str(tmp_path / "full_out"), "--jobs", "2"])
        assert rc == 0
        capsys.readouterr()
        lines = (tmp_path / "full_out" / "report.csv").read_text().strip().splitlines()
        models = [line.split(",")[1] for line in lines[1:]]
        assert models[:4 * 8:4] == ["ensemble_cnn", "ensemble_ml", "char_aux",
                                    "char_cnn", "word_aux", "svm", "rf", "nb"]
        assert len(lines) == 1 + 8 * 4

    def test_nb_only_roster_single_row(self, workspace, tmp_path, capsys):
        conf = (workspace / "exp.conf").read_text().replace(
            "roster = nb:2,svm:2,rf:2", "roster = nb:1")
        solo = tmp_path / "solo.conf"
        solo.write_text(conf)
        rc = main(["experiment", "--config", str(solo),
                   "--output", str(tmp_path / "solo_out")])
        assert rc == 0
        capsys.readouterr()
        lines = (tmp_path / "solo_out" / "report.csv").read_text().strip().splitlines()
        models = {line.split(",")[1] for line in lines[1:]}
        assert models == {"nb"}

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_refused_by_the_parser(self, workspace, tmp_path, capsys, jobs):
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "--config", str(workspace / "exp.conf"),
                  "--output", str(tmp_path / "out"), "--jobs", jobs])
        assert exit_info.value.code != 0
        assert f"--jobs: must be at least 1, not {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_override_changes_provenance(self, workspace, tmp_path, capsys):
        conf = (workspace / "exp.conf").read_text().replace(
            "roster = nb:2,svm:2,rf:2", "roster = nb:1")
        solo = tmp_path / "seeded.conf"
        solo.write_text(conf)
        rc = main(["experiment", "--config", str(solo), "--seed", "123",
                   "--output", str(tmp_path / "seeded_out")])
        assert rc == 0
        capsys.readouterr()
        provenance = (tmp_path / "seeded_out" / "provenance.txt").read_text()
        assert "seed=123" in provenance
