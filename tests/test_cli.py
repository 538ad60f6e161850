import numpy as np
import pytest

from ssc import baselines, models, nn, synth
from ssc.cli import main
from ssc.config import ConfigFileError, DEFAULT_SCENARIOS, dump_config, load_config
from ssc.corpus import Dataset, Tweet, load_dataset, save_dataset
from ssc.encoding import encode_dataset
from ssc.ensemble import (
    KINDS,
    ML_KINDS,
    BowMember,
    CnnMember,
    EnsembleError,
    EnsembleSpec,
    ensemble_vote_batch,
    load_member,
    resolve_members,
    save_baseline_member,
)
from ssc.experiment import build_feature_context


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
embedding_dim = 16
char_embed_dim = 8

[baselines]
rf_trees = 10
rf_max_depth = 8
""")
    return root


class TestConfig:
    def test_minimal_config_defaults(self, tmp_path):
        ds = synth.generate_dataset(5, 5, seed=0)
        save_dataset(ds, tmp_path / "d.tsv")
        (tmp_path / "min.conf").write_text(f"[paths]\ndataset = {tmp_path}/d.tsv\n")
        cfg = load_config(tmp_path / "min.conf")
        assert cfg.scenarios == DEFAULT_SCENARIOS
        assert cfg.folds == 6 and cfg.epochs == 30
        assert len(cfg.roster_members()) == 12

    def test_unknown_key_named_with_line(self, tmp_path):
        (tmp_path / "bad.conf").write_text(
            "[paths]\ndataset = x\n[training]\nlearning_rte = 0.1\n")
        with pytest.raises(ConfigFileError, match="line 4.*learning_rte"):
            load_config(tmp_path / "bad.conf", require_paths=False)

    def test_malformed_value_named_with_line(self, tmp_path):
        (tmp_path / "bad.conf").write_text("[training]\nepochs = soon\n")
        with pytest.raises(ConfigFileError, match="line 2"):
            load_config(tmp_path / "bad.conf", require_paths=False)

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

    def test_synth(self, tmp_path):
        assert main(["dataset", "synth", "--positives", "8", "--negatives", "6",
                     "--seed", "1", "--output", str(tmp_path / "s.tsv")]) == 0
        ds = load_dataset(tmp_path / "s.tsv")
        assert len(ds) == 14 and sum(t.label for t in ds) == 8


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

    def test_train_cnn_member(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "char.ckpt"
        assert main(["train", "--config", str(workspace / "exp.conf"),
                     "--kind", "char_cnn", "--train-data", str(workspace / "corpus.tsv"),
                     "--output", str(ckpt), "--seed", "2"]) == 0
        assert "best epoch" in capsys.readouterr().out
        assert main(["evaluate", "--config", str(workspace / "exp.conf"),
                     "--checkpoint", str(ckpt),
                     "--test-data", str(workspace / "corpus.tsv")]) == 0

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
        expected = baselines.prefilter(ds, member.model, x, threshold=0.7,
                                       sample_n=30, seed=4)
        assert [(t.id, t.text) for t in load_dataset(out)] == \
            [(t.id, t.text) for t in expected.sample]

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
        ctx = synth.feature_context(embed_dim=16, seed=0)
        enc = encode_dataset(ds, ctx, with_word=False)
        vocab, idf = baselines.fit_tfidf(enc.tokens)
        x = baselines.bow_features(enc, vocab, idf)
        y = enc.labels
        svm = baselines.calibrate_svm(
            baselines.train_svm(x, y, lam=1e-4, epochs=5, seed=0), x, y)
        rf = baselines.train_rf(x, y, trees=5, max_depth=6, seed=0)
        nb = baselines.train_nb(enc.tokens, y.tolist())
        members = [BowMember("svm", svm, vocab, idf),
                   BowMember("rf", rf, vocab, idf),
                   BowMember("nb", nb)]
        paths = []
        for m in members:
            p = tmp_path / f"{m.kind}.ckpt"
            save_baseline_member(m, p)
            paths.append((m.kind, p))
        return members, paths, enc

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
        members, _, enc = self.members_via_checkpoints(workspace, tmp_path)
        nb = members[2]
        spec = EnsembleSpec(tuple(("nb", nb) for _ in range(5)), mode="free")
        probe = enc.subset(np.arange(40))
        votes = ensemble_vote_batch(resolve_members(spec), probe)
        assert np.array_equal(votes, nb.predict_batch(probe)[0])
        for i in (0, 3, 7):
            assert votes[i] == nb.predict(probe, i)[0]

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_every_kind_round_trips_exactly(self, workspace, tmp_path, kind):
        # CNN members are built in float64, so a float32 container would lose bits.
        ctx = synth.feature_context(embed_dim=16, seed=0)
        enc = encode_dataset(load_dataset(workspace / "corpus.tsv"), ctx)
        path = tmp_path / f"{kind}.exact.ckpt"
        if kind in ML_KINDS:
            members, _, _ = self.members_via_checkpoints(workspace, tmp_path)
            member = next(m for m in members if m.kind == kind)
            save_baseline_member(member, path)
        else:
            model = models.build_model(
                kind, seed=3, dtype=np.float64,
                wcnn=models.WCnnConfig(kernel_sizes=(2, 3), filters=4, embed_dim=16),
                ccnn=models.CCnnConfig(kernel_sizes=(2, 3), filters=4, embed_dim=8))
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

    def test_kind_tag_mismatch_detected(self, workspace, tmp_path):
        members, paths, _ = self.members_via_checkpoints(workspace, tmp_path)
        svm_path = paths[0][1]
        spec = EnsembleSpec((("rf", svm_path),), mode="free")
        with pytest.raises(EnsembleError):
            resolve_members(spec)


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
        out["scalars"] = np.array([m.bias, m.platt_a, m.platt_b])
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
