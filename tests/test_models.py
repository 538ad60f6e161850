import numpy as np
import pytest

from conftest import central_difference, max_relative_error
from ssc import models, nn, synth
from ssc.embeddings import MAX_TOKENS
from ssc.encoding import EncodedSet, encode_dataset
from ssc.features import AUX_DIM, CHARSET_SIZE, MAX_CHARS, encode_chars
from ssc.models import (
    CCnnConfig,
    ConfigError,
    TrainConfig,
    WCnnConfig,
    build_model,
    model_from_checkpoint,
    predict_batch,
    select_best_epoch,
    train,
)
from ssc.nn import ModelCheckpoint

rng = np.random.default_rng(99)

SMALL_W = WCnnConfig(kernel_sizes=(2, 3), filters=4, embed_dim=12)
SMALL_C = CCnnConfig(kernel_sizes=(2, 3), filters=4, embed_dim=8)


def word_batch(n, cfg=SMALL_W, seed=0):
    local = np.random.default_rng(seed)
    return EncodedSet(
        aux=local.normal(size=(n, AUX_DIM)).astype(np.float32),
        word=local.normal(size=(n, MAX_TOKENS, cfg.embed_dim)).astype(np.float32),
    )


def char_batch(n, seed=0, length=MAX_CHARS):
    local = np.random.default_rng(seed)
    return EncodedSet(
        aux=local.normal(size=(n, AUX_DIM)).astype(np.float32),
        char=local.integers(0, CHARSET_SIZE, size=(n, length)),
    )


class TestConfigs:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_model("lstm")


class TestWcnnForward:
    def test_zero_input_valid_probability(self):
        model = build_model("word_aux", wcnn=SMALL_W, seed=0)
        batch = EncodedSet(aux=np.zeros((1, AUX_DIM), dtype=np.float32),
                           word=np.zeros((1, 40, 12), dtype=np.float32))
        logits = model.forward(batch)
        p = nn.softmax(logits.data)
        assert p.shape == (1, 2)
        assert np.isclose(p.sum(), 1.0)

    def test_output_shape_two(self):
        model = build_model("word_aux", wcnn=SMALL_W, seed=0)
        logits = model.forward(word_batch(5))
        assert logits.data.shape == (5, 2)

    def test_default_parameter_count_closed_form(self):
        # Sum over layers for the default config, computed independently:
        # branch k: conv(k,400,128)+128 then conv(k,128,128)+128; lengths
        # 40 -> 20 -> 10 under pool 2; concat 3*10*128 = 3840; dense block
        # 3840x1024 + 1024x1024 (+biases); output (1024+154)x2 + 2.
        expected = 0
        for k in (3, 4, 5):
            expected += k * 400 * 128 + 128
            expected += k * 128 * 128 + 128
        expected += 3840 * 1024 + 1024
        expected += 1024 * 1024 + 1024
        expected += (1024 + AUX_DIM) * 2 + 2
        model = build_model("word_aux", wcnn=WCnnConfig(), seed=0)
        assert model.params.n_values() == expected == 5796918

    def test_aux_scaling_changes_logits_not_shape(self):
        model = build_model("word_aux", wcnn=SMALL_W, seed=1)
        batch = word_batch(2, seed=1)
        base = model.forward(batch).data
        scaled = EncodedSet(aux=batch.aux * 3.0, word=batch.word)
        out = model.forward(scaled).data
        assert out.shape == base.shape
        assert not np.allclose(out, base)


class TestCcnnForward:
    def test_aux_mode_weight_difference(self):
        full = build_model("char_aux", seed=0)
        none = build_model("char_cnn", seed=0)
        diff = full.params.n_values() - none.params.n_values()
        assert diff == AUX_DIM * 2

    def test_aux_mode_none_ignores_aux_contents(self):
        model = build_model("char_cnn", ccnn=CCnnConfig(kernel_sizes=(2, 3), filters=4,
                                                        embed_dim=8), seed=2)
        batch = char_batch(3, seed=2)
        out1 = model.forward(batch).data
        noisy = EncodedSet(aux=batch.aux + 100.0, char=batch.char)
        out2 = model.forward(noisy).data
        assert np.array_equal(out1, out2)

    def test_pad_region_permutation_invariance(self):
        # Padding indices beyond the text are uniform, so shuffling them
        # changes nothing as long as conv windows cannot straddle real text.
        cfg = CCnnConfig(kernel_sizes=(2, 3), filters=4, embed_dim=8)
        model = build_model("char_aux", ccnn=cfg, seed=3)
        text = "short message"
        encoded = encode_chars(text)
        assert len(text) < 280 - max(cfg.kernel_sizes)
        permuted = encoded.copy()
        local = np.random.default_rng(0)
        tail = permuted[len(text):]
        permuted[len(text):] = tail[local.permutation(len(tail))]
        aux = np.zeros((1, AUX_DIM), dtype=np.float32)
        out1 = model.forward(EncodedSet(aux=aux, char=encoded[None])).data
        out2 = model.forward(EncodedSet(aux=aux, char=permuted[None])).data
        assert np.array_equal(out1, out2)

    def test_probabilities_sum_to_one(self):
        model = build_model("char_aux", ccnn=SMALL_C, seed=4)
        logits = model.forward(char_batch(4, seed=4))
        p = nn.softmax(logits.data)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)

    def test_char_embedding_is_trainable(self):
        model = build_model("char_aux", ccnn=SMALL_C, seed=5)
        batch = char_batch(2, seed=5)
        logits = model.forward(batch)
        loss, _ = nn.softmax_xent(logits, np.array([0, 1]))
        model.params.zero_grad()
        loss.backward()
        grad = model.params["char_embed"].grad
        assert grad is not None and np.abs(grad).sum() > 0


class TestFullArchitectureGradients:
    @pytest.mark.parametrize("builder,batch_fn", [
        (lambda: build_model("word_aux", wcnn=WCnnConfig(kernel_sizes=(2, 3), filters=2,
                                                         embed_dim=6, dropout=0.0),
                             seed=7, dtype=np.float64),
         lambda cfg: word_batch(2, cfg, seed=7)),
        (lambda: build_model("char_aux", ccnn=CCnnConfig(kernel_sizes=(2, 3), filters=2,
                                                         embed_dim=4, dropout=0.0),
                             seed=8, dtype=np.float64),
         lambda cfg: char_batch(2, seed=8, length=20)),
    ], ids=["wcnn", "ccnn"])
    def test_sampled_finite_differences(self, builder, batch_fn):
        model = builder()
        batch = batch_fn(model.config)
        batch = EncodedSet(aux=batch.aux.astype(np.float64),
                           word=None if batch.word is None else batch.word.astype(np.float64),
                           char=batch.char)
        gold = np.array([0, 1])

        def loss_value():
            loss, _ = nn.softmax_xent(model.forward(batch), gold)
            return float(loss.data)

        loss, _ = nn.softmax_xent(model.forward(batch), gold)
        model.params.zero_grad()
        loss.backward()
        local = np.random.default_rng(17)
        for name, p in model.params.items():
            numeric = central_difference(loss_value, [p.data], max_coords=6,
                                         rng=local, kink_filter=True)[0]
            assert np.isfinite(numeric).any(), f"{name}: all coords at kinks"
            analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
            rel = max_relative_error(analytic, numeric)
            assert rel < 1e-4, f"{name}: {rel}"


def toy_training_set(n_per_class=10):
    ds = synth.generate_dataset(n_per_class, n_per_class, seed=5)
    ctx = synth.feature_context(embed_dim=12, seed=0)
    return encode_dataset(ds, ctx)


class TestTraining:
    def test_epoch_count_matches_checkpoints(self):
        enc = toy_training_set()
        model = build_model("char_aux", ccnn=SMALL_C, seed=0)
        cps = train(model, enc, TrainConfig(epochs=3, batch_size=4, seed=0))
        assert [cp.epoch for cp in cps] == [1, 2, 3]

    def test_overfits_separable_toy_set(self):
        # Overfitting sanity oracle: 20 samples, 30 epochs, train acc 1.0.
        enc = toy_training_set(10)
        model = build_model("char_aux", ccnn=CCnnConfig(kernel_sizes=(2, 3), filters=8,
                                                        embed_dim=16, dropout=0.0), seed=1)
        cps = train(model, enc, TrainConfig(epochs=30, batch_size=4, seed=1, lr=3e-3))
        model.params.load_state_dict(cps[-1].arrays)
        classes, _ = predict_batch(model, enc)
        assert (classes == enc.labels).mean() == 1.0

    def test_deterministic_metric_sequences(self):
        enc = toy_training_set()
        seqs = []
        for _ in range(2):
            model = build_model("char_aux", ccnn=SMALL_C, seed=2)
            cps = train(model, enc, TrainConfig(epochs=3, batch_size=4, seed=9))
            seqs.append([cp.metrics["fit_loss"] for cp in cps])
        assert seqs[0] == seqs[1]

    def test_loss_finite_every_epoch(self):
        enc = toy_training_set()
        model = build_model("word_aux", wcnn=SMALL_W, seed=3)
        cps = train(model, enc, TrainConfig(epochs=3, batch_size=4, seed=3))
        assert all(np.isfinite(cp.metrics["fit_loss"]) for cp in cps)

    def test_nan_aux_row_raises_at_epoch_one(self):
        enc = toy_training_set()
        cfg = TrainConfig(epochs=2, batch_size=4, seed=6)
        # Reproduce train()'s split and first epoch order to place the row.
        from ssc.models import _stratified_val_split
        split_rng = np.random.default_rng(cfg.seed)
        fit_idx, _ = _stratified_val_split(enc.labels, cfg.val_fraction, split_rng)
        order = split_rng.permutation(len(fit_idx))
        poisoned = 3
        enc.aux[fit_idx[order[poisoned]], 0] = np.nan
        batch = poisoned // cfg.batch_size + 1
        model = build_model("char_aux", ccnn=SMALL_C, seed=6)
        with pytest.raises(FloatingPointError,
                           match=f"^char_aux: non-finite loss nan at epoch 1, batch {batch}$"):
            train(model, enc, cfg)

    def test_empty_training_set_rejected(self):
        enc = EncodedSet(aux=np.zeros((0, AUX_DIM)), char=np.zeros((0, 280), dtype=np.int64),
                         labels=np.zeros(0, dtype=np.int64))
        model = build_model("char_aux", ccnn=SMALL_C, seed=0)
        with pytest.raises(ValueError):
            train(model, enc, TrainConfig(epochs=1, seed=0))

    def test_single_class_rejected(self):
        enc = toy_training_set()
        single = enc.subset(np.flatnonzero(enc.labels == 1))
        model = build_model("char_aux", ccnn=SMALL_C, seed=0)
        with pytest.raises(ValueError, match="single class"):
            train(model, enc.subset(np.flatnonzero(enc.labels == 1)), TrainConfig(epochs=1))

    def test_val_metrics_recompute_identically_after_reload(self, tmp_path):
        enc = toy_training_set()
        model = build_model("char_aux", ccnn=SMALL_C, seed=4)
        cfg = TrainConfig(epochs=2, batch_size=4, seed=4)
        cps = train(model, enc, cfg)
        # Reconstruct the validation split exactly as train() does.
        from ssc.metrics import compute_metrics
        from ssc.models import _stratified_val_split
        split_rng = np.random.default_rng(cfg.seed)
        _, val_idx = _stratified_val_split(enc.labels, cfg.val_fraction, split_rng)
        val = enc.subset(val_idx)
        for cp in cps:
            nn.save_checkpoint(cp, tmp_path / "cp.ckpt")
            reloaded = model_from_checkpoint(nn.load_checkpoint(tmp_path / "cp.ckpt"))
            classes, _ = predict_batch(reloaded, val)
            report = compute_metrics(classes.tolist(), val.labels.tolist())
            for m in ("accuracy", "precision_p", "recall_p", "f1_p"):
                assert report.value(m) == cp.metrics[m]


class TestSelectBestEpoch:
    def cps(self, values):
        return [ModelCheckpoint(i + 1, {}, {"f1_p": v}) for i, v in enumerate(values)]

    def test_picks_max(self):
        assert select_best_epoch(self.cps([0.5, 0.8, 0.7])).epoch == 2

    def test_tie_earliest(self):
        assert select_best_epoch(self.cps([0.8, 0.8])).epoch == 1

    def test_single(self):
        assert select_best_epoch(self.cps([0.3])).epoch == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_best_epoch([])

    def test_other_metric(self):
        cps = [ModelCheckpoint(1, {}, {"f1_p": 0.9, "accuracy": 0.1}),
               ModelCheckpoint(2, {}, {"f1_p": 0.1, "accuracy": 0.9})]
        assert select_best_epoch(cps, "accuracy").epoch == 2


class TestPredict:
    def test_reports_positive_probability(self):
        model = build_model("char_aux", ccnn=SMALL_C, seed=6)
        batch = char_batch(3, seed=6)
        classes, p_pos = predict_batch(model, batch)
        full = nn.softmax(model.forward(batch).data)
        assert p_pos.dtype == np.float64
        assert np.array_equal(p_pos, full[:, 1])
        assert np.array_equal(classes, np.argmax(full, axis=1))

    def test_exact_tie_is_negative(self):
        model = build_model("char_aux", ccnn=SMALL_C, seed=7)
        # Zero output weights force logits [0, 0] -> probs [0.5, 0.5].
        model.params["out_w"].data[:] = 0
        model.params["out_b"].data[:] = 0
        classes, p_pos = predict_batch(model, char_batch(2, seed=7))
        assert np.all(p_pos == 0.5) and np.all(classes == 0)

    def test_rows_forwarded_in_fixed_chunks(self):
        model = build_model("char_aux", ccnn=SMALL_C, seed=5)
        batch = char_batch(models.PREDICT_ROWS + 44, seed=5)
        classes, p_pos = predict_batch(model, batch)
        for rows in (np.arange(models.PREDICT_ROWS), np.arange(models.PREDICT_ROWS, len(batch))):
            probs = nn.softmax(model.forward(batch.subset(rows)).data)
            assert np.array_equal(p_pos[rows], probs[:, 1])
            assert np.array_equal(classes[rows], np.argmax(probs, axis=1))

    def test_pure_at_inference(self):
        model = build_model("char_aux", ccnn=SMALL_C, seed=8)
        batch = char_batch(2, seed=8)
        a = predict_batch(model, batch)
        b = predict_batch(model, batch)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestCheckpointEquivalence:
    def test_reloaded_char_model_reproduces_predictions(self, tmp_path):
        enc = toy_training_set()
        model = build_model("char_aux", ccnn=SMALL_C, seed=9)
        cps = train(model, enc, TrainConfig(epochs=2, batch_size=4, seed=9))
        best = select_best_epoch(cps)
        nn.save_checkpoint(best, tmp_path / "best.ckpt")
        reloaded = model_from_checkpoint(nn.load_checkpoint(tmp_path / "best.ckpt"))
        model.params.load_state_dict(best.arrays)
        batch = char_batch(100, seed=10)
        a_cls, a_p = predict_batch(model, batch)
        b_cls, b_p = predict_batch(reloaded, batch)
        assert np.array_equal(a_cls, b_cls)
        assert np.array_equal(a_p, b_p)

    def test_reloaded_word_model_reproduces_predictions(self, tmp_path):
        enc = toy_training_set()
        model = build_model("word_aux", wcnn=SMALL_W, seed=11)
        cps = train(model, enc, TrainConfig(epochs=2, batch_size=4, seed=11))
        best = select_best_epoch(cps)
        nn.save_checkpoint(best, tmp_path / "w.ckpt")
        reloaded = model_from_checkpoint(nn.load_checkpoint(tmp_path / "w.ckpt"))
        assert reloaded.kind == "word_aux"
        assert reloaded.config == model.config
        model.params.load_state_dict(best.arrays)
        batch = word_batch(50, seed=12)
        a_cls, a_p = predict_batch(model, batch)
        b_cls, b_p = predict_batch(reloaded, batch)
        assert np.array_equal(a_cls, b_cls)
        assert np.array_equal(a_p, b_p)

    def test_load_draws_no_initial_values(self, monkeypatch):
        model = build_model("char_aux", ccnn=SMALL_C, seed=13)
        cp = nn.ModelCheckpoint(1, model.params.state_dict(), metadata=model.metadata())

        def no_draws(*args, **kwargs):
            raise AssertionError("init_params called while loading")

        monkeypatch.setattr(nn, "init_params", no_draws)
        reloaded = model_from_checkpoint(cp)
        assert reloaded.params.names() == model.params.names()
        for name, p in model.params.items():
            assert np.array_equal(reloaded.params[name].data, p.data)

    @pytest.mark.parametrize("kind", ["word_aux", "char_aux", "char_cnn"])
    def test_file_with_retired_config_entries_loads(self, kind, tmp_path):
        # Checkpoints written before the fixed sizes left the configs carry
        # them as config.* entries; the kind alone now selects the architecture.
        model = build_model(kind, seed=15, wcnn=SMALL_W, ccnn=SMALL_C)
        cfg = model.config
        kernels = ",".join(map(str, cfg.kernel_sizes))
        if kind == "word_aux":
            config = {"kernel_sizes": kernels, "filters": "4", "pool_size": "2",
                      "dense_units": "1024", "dense_layers": "2", "aux_dim": "154",
                      "seq_len": "40", "embed_dim": "12", "dropout": "0.5"}
        else:
            config = {"kernel_sizes": kernels, "filters": "4", "dense_units": "1024",
                      "dense_layers": "2",
                      "aux_mode": "full" if kind == "char_aux" else "none",
                      "aux_dim": "154", "seq_len": "280", "embed_dim": "8",
                      "charset_size": str(CHARSET_SIZE), "dropout": "0.5"}
        meta = {"kind": kind, "seed": "15", **{f"config.{k}": v for k, v in config.items()},
                "config_digest": "0123456789abcdef"}
        nn.save_checkpoint(ModelCheckpoint(2, model.params.state_dict(), {"f1_p": 0.5}, meta),
                           tmp_path / "old.ckpt")
        reloaded = model_from_checkpoint(nn.load_checkpoint(tmp_path / "old.ckpt"))
        assert reloaded.kind == kind and reloaded.config == cfg
        batch = word_batch(30, seed=16) if kind == "word_aux" else char_batch(30, seed=16)
        a_cls, a_p = predict_batch(model, batch)
        b_cls, b_p = predict_batch(reloaded, batch)
        assert np.array_equal(a_cls, b_cls)
        assert np.array_equal(a_p, b_p)

    @pytest.mark.parametrize("damage", ["missing", "shape"])
    def test_damaged_parameters_rejected(self, damage):
        model = build_model("word_aux", wcnn=SMALL_W, seed=14)
        arrays = model.params.state_dict()
        if damage == "missing":
            del arrays["dense2_b"]
        else:
            arrays["dense2_b"] = arrays["dense2_b"][:-1]
        cp = nn.ModelCheckpoint(1, arrays, metadata=model.metadata())
        with pytest.raises(ValueError, match="dense2_b"):
            model_from_checkpoint(cp)
