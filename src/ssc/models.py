"""Word-level and char-level CNN classifiers with per-epoch checkpointing.

Both architectures share the same trunk: parallel convolution branches (one
per kernel size), a two-layer 1024-unit dense block, the 154-entry
auxiliary vector concatenated onto the last hidden layer, and a two-unit
softmax output. The word model stacks conv+pool twice per branch with ReLU;
the char model uses one conv per branch with Tanh, global max pooling, and
SELU dense layers, with a trainable character embedding underneath.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

import numpy as np

from . import nn
from .encoding import EncodedSet
from .features import AUX_DIM, CHARSET_SIZE, MAX_CHARS
from .metrics import compute_metrics
from .nn import ModelCheckpoint, ParamSet, ParamSpec, Tensor

DENSE_UNITS = 1024
DENSE_LAYERS = 2
PREDICT_ROWS = 256  # rows per inference forward pass


class ConfigError(ValueError):
    """A model config violates one of the fixed architecture invariants."""


@dataclass(frozen=True)
class WCnnConfig:
    kernel_sizes: tuple[int, ...] = (3, 4, 5)
    filters: int = 128
    pool_size: int = 2
    dense_units: int = DENSE_UNITS
    dense_layers: int = DENSE_LAYERS
    aux_dim: int = AUX_DIM
    seq_len: int = 40
    embed_dim: int = 400
    dropout: float = 0.5

    def validate(self) -> None:
        if self.dense_units != DENSE_UNITS or self.dense_layers != DENSE_LAYERS:
            raise ConfigError(f"dense block is fixed at {DENSE_LAYERS} x {DENSE_UNITS} units")
        if self.aux_dim != AUX_DIM:
            raise ConfigError(f"aux_dim is fixed at {AUX_DIM}")
        if not self.kernel_sizes or self.filters < 1:
            raise ConfigError("need at least one kernel size and one filter")
        if self.pool_size < 1:
            raise ConfigError("pool_size must be >= 1")
        if self.branch_len() < 1:
            raise ConfigError("sequence too short for two pooling stages")
        if not 0 <= self.dropout < 1:
            raise ConfigError("dropout must be in [0, 1)")

    def branch_len(self) -> int:
        # Two same-padding convs, each followed by a p/p max pool.
        after_one = (self.seq_len - self.pool_size) // self.pool_size + 1
        return (after_one - self.pool_size) // self.pool_size + 1


@dataclass(frozen=True)
class CCnnConfig:
    kernel_sizes: tuple[int, ...] = (3, 4, 5, 7)
    filters: int = 128
    dense_units: int = DENSE_UNITS
    dense_layers: int = DENSE_LAYERS
    aux_mode: str = "full"  # "full" | "none"
    aux_dim: int = AUX_DIM
    seq_len: int = MAX_CHARS
    embed_dim: int = 128
    charset_size: int = CHARSET_SIZE
    dropout: float = 0.5

    def validate(self) -> None:
        if self.dense_units != DENSE_UNITS or self.dense_layers != DENSE_LAYERS:
            raise ConfigError(f"dense block is fixed at {DENSE_LAYERS} x {DENSE_UNITS} units")
        if self.aux_mode not in ("full", "none"):
            raise ConfigError("aux_mode must be 'full' or 'none'")
        if self.aux_dim != AUX_DIM:
            raise ConfigError(f"aux_dim is fixed at {AUX_DIM}")
        if not self.kernel_sizes or self.filters < 1:
            raise ConfigError("need at least one kernel size and one filter")
        if max(self.kernel_sizes) > self.seq_len:
            raise ConfigError("kernel size exceeds sequence length")
        if not 0 <= self.dropout < 1:
            raise ConfigError("dropout must be in [0, 1)")


def _config_items(cfg) -> list[tuple[str, str]]:
    out = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        out.append((f.name, str(v)))
    return out


def _config_from_items(cls, items: dict[str, str]):
    """Inverse of _config_items: parse each field by the type of its default."""
    values = {}
    for f in fields(cls):
        text = items[f.name]
        if isinstance(f.default, tuple):
            values[f.name] = tuple(int(x) for x in text.split(","))
        else:
            values[f.name] = type(f.default)(text)
    return cls(**values)


def config_digest(*configs) -> str:
    text = "\n".join(f"{k}={v}" for cfg in configs for k, v in _config_items(cfg))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Model:
    """A built network: kind, config, parameters, and a forward pass."""

    def __init__(self, kind: str, config, params: ParamSet, seed: int):
        self.kind = kind
        self.config = config
        self.params = params
        self.seed = seed

    def forward(self, batch: EncodedSet, train: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        raise NotImplementedError

    def metadata(self) -> dict[str, str]:
        meta = {"kind": self.kind, "seed": str(self.seed)}
        for k, v in _config_items(self.config):
            meta[f"config.{k}"] = v
        return meta


class WordCnn(Model):
    def forward(self, batch, train=False, rng=None):
        cfg = self.config
        x = Tensor(batch.word)
        p = self.params
        branches = []
        for k in cfg.kernel_sizes:
            h = nn.conv1d(x, p[f"conv{k}a_w"], p[f"conv{k}a_b"], padding="same")
            h = nn.relu(h)
            h = nn.maxpool1d(h, cfg.pool_size, cfg.pool_size)
            h = nn.conv1d(h, p[f"conv{k}b_w"], p[f"conv{k}b_b"], padding="same")
            h = nn.relu(h)
            h = nn.maxpool1d(h, cfg.pool_size, cfg.pool_size)
            branches.append(nn.reshape(h, (h.shape[0], -1)))
        h = nn.concat(branches, axis=1)
        h = nn.relu(nn.dense(h, p["dense1_w"], p["dense1_b"]))
        if train and cfg.dropout > 0:
            h = nn.dropout(h, cfg.dropout, rng)
        h = nn.relu(nn.dense(h, p["dense2_w"], p["dense2_b"]))
        if train and cfg.dropout > 0:
            h = nn.dropout(h, cfg.dropout, rng)
        h = nn.concat([h, Tensor(batch.aux)], axis=1)
        return nn.dense(h, p["out_w"], p["out_b"])


class CharCnn(Model):
    def forward(self, batch, train=False, rng=None):
        cfg = self.config
        p = self.params
        emb = nn.embedding_lookup(p["char_embed"], batch.char)
        branches = []
        for k in cfg.kernel_sizes:
            h = nn.conv1d(emb, p[f"conv{k}_w"], p[f"conv{k}_b"], padding="valid")
            h = nn.tanh(h)
            branches.append(nn.global_maxpool(h))
        h = nn.concat(branches, axis=1)
        h = nn.selu(nn.dense(h, p["dense1_w"], p["dense1_b"]))
        if train and cfg.dropout > 0:
            h = nn.dropout(h, cfg.dropout, rng)
        h = nn.selu(nn.dense(h, p["dense2_w"], p["dense2_b"]))
        if train and cfg.dropout > 0:
            h = nn.dropout(h, cfg.dropout, rng)
        if cfg.aux_mode == "full":
            h = nn.concat([h, Tensor(batch.aux)], axis=1)
        return nn.dense(h, p["out_w"], p["out_b"])


def _wcnn_specs(cfg: WCnnConfig) -> list[ParamSpec]:
    specs = []
    for k in cfg.kernel_sizes:
        specs.append(ParamSpec(f"conv{k}a_w", (k, cfg.embed_dim, cfg.filters)))
        specs.append(ParamSpec(f"conv{k}a_b", (cfg.filters,), init="zeros"))
        specs.append(ParamSpec(f"conv{k}b_w", (k, cfg.filters, cfg.filters)))
        specs.append(ParamSpec(f"conv{k}b_b", (cfg.filters,), init="zeros"))
    concat_dim = cfg.branch_len() * cfg.filters * len(cfg.kernel_sizes)
    specs.append(ParamSpec("dense1_w", (concat_dim, cfg.dense_units)))
    specs.append(ParamSpec("dense1_b", (cfg.dense_units,), init="zeros"))
    specs.append(ParamSpec("dense2_w", (cfg.dense_units, cfg.dense_units)))
    specs.append(ParamSpec("dense2_b", (cfg.dense_units,), init="zeros"))
    specs.append(ParamSpec("out_w", (cfg.dense_units + cfg.aux_dim, 2)))
    specs.append(ParamSpec("out_b", (2,), init="zeros"))
    return specs


def _ccnn_specs(cfg: CCnnConfig) -> list[ParamSpec]:
    specs = [ParamSpec("char_embed", (cfg.charset_size, cfg.embed_dim), init="embedding")]
    for k in cfg.kernel_sizes:
        specs.append(ParamSpec(f"conv{k}_w", (k, cfg.embed_dim, cfg.filters)))
        specs.append(ParamSpec(f"conv{k}_b", (cfg.filters,), init="zeros"))
    concat_dim = cfg.filters * len(cfg.kernel_sizes)
    specs.append(ParamSpec("dense1_w", (concat_dim, cfg.dense_units)))
    specs.append(ParamSpec("dense1_b", (cfg.dense_units,), init="zeros"))
    specs.append(ParamSpec("dense2_w", (cfg.dense_units, cfg.dense_units)))
    specs.append(ParamSpec("dense2_b", (cfg.dense_units,), init="zeros"))
    out_in = cfg.dense_units + (cfg.aux_dim if cfg.aux_mode == "full" else 0)
    specs.append(ParamSpec("out_w", (out_in, 2)))
    specs.append(ParamSpec("out_b", (2,), init="zeros"))
    return specs


def _architecture(cfg: WCnnConfig | CCnnConfig) -> tuple[type[Model], list[ParamSpec], str]:
    """(model class, parameter specs, member kind) of a validated config."""
    cfg.validate()
    if isinstance(cfg, WCnnConfig):
        return WordCnn, _wcnn_specs(cfg), "word_aux"
    return CharCnn, _ccnn_specs(cfg), "char_aux" if cfg.aux_mode == "full" else "char_cnn"


def build_wcnn(cfg: WCnnConfig, seed: int = 0, dtype=None) -> Model:
    """Word-level CNN with auxiliary concatenation ("word_aux")."""
    cls, specs, kind = _architecture(cfg)
    return cls(kind, cfg, nn.init_params(specs, seed, dtype=dtype), seed)


def build_ccnn(cfg: CCnnConfig, seed: int = 0, dtype=None) -> Model:
    """Char-level CNN; aux_mode selects "char_aux" vs plain "char_cnn"."""
    cls, specs, kind = _architecture(cfg)
    return cls(kind, cfg, nn.init_params(specs, seed, dtype=dtype), seed)


def build_model(kind: str, seed: int = 0, dtype=None, *, wcnn: WCnnConfig | None = None,
                ccnn: CCnnConfig | None = None) -> Model:
    """Build any of the three CNN member kinds from (optional) configs."""
    if kind == "word_aux":
        return build_wcnn(wcnn or WCnnConfig(), seed=seed, dtype=dtype)
    if kind == "char_aux":
        return build_ccnn(replace(ccnn or CCnnConfig(), aux_mode="full"), seed=seed, dtype=dtype)
    if kind == "char_cnn":
        return build_ccnn(replace(ccnn or CCnnConfig(), aux_mode="none"), seed=seed, dtype=dtype)
    raise ConfigError(f"unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0
    val_fraction: float = 0.1
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not 0 < self.val_fraction < 0.5:
            raise ConfigError("val_fraction must be in (0, 0.5)")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")


def _stratified_val_split(labels: np.ndarray, fraction: float,
                          rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-class split keeping at least one fit item of each class."""
    fit_idx, val_idx = [], []
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        n_val = min(int(round(len(idx) * fraction)), len(idx) - 1)
        val_idx.append(idx[:n_val])
        fit_idx.append(idx[n_val:])
    return np.concatenate(fit_idx), np.concatenate(val_idx)


def predict_in_blocks(predict, batch: EncodedSet) -> tuple[np.ndarray, np.ndarray]:
    """(classes, positive probabilities) of batch from predict(PREDICT_ROWS rows)."""
    classes = np.zeros(len(batch), dtype=np.int64)
    p_pos = np.zeros(len(batch))
    for start in range(0, len(batch), PREDICT_ROWS):
        rows = np.arange(start, min(start + PREDICT_ROWS, len(batch)))
        classes[rows], p_pos[rows] = predict(batch.subset(rows))
    return classes, p_pos


def predict_batch(model: Model, batch: EncodedSet) -> tuple[np.ndarray, np.ndarray]:
    """(argmax classes, float64 positive-class probabilities) for every row.

    Rows go through the network PREDICT_ROWS at a time; an exact tie of the
    two probabilities gives the negative class.
    """
    def forward(rows: EncodedSet):
        probs = nn.softmax(model.forward(rows, train=False).data)
        return np.argmax(probs, axis=1), probs[:, 1]

    return predict_in_blocks(forward, batch)


def train(model: Model, data: EncodedSet, cfg: TrainConfig) -> list[ModelCheckpoint]:
    """Mini-batch training; returns one checkpoint per epoch (1-based).

    Each checkpoint snapshots the parameters and carries metrics computed on
    an internal stratified validation split. Dropout is active only while
    fitting. Deterministic given (model seed, data, cfg).
    """
    if data.labels is None or len(data) == 0:
        raise ValueError("training requires a non-empty labeled dataset")
    labels = data.labels
    if len(np.unique(labels)) < 2:
        raise ValueError("training set contains a single class")

    rng = np.random.default_rng(cfg.seed)
    fit_idx, val_idx = _stratified_val_split(labels, cfg.val_fraction, rng)
    fit = data.subset(fit_idx)
    val = data.subset(val_idx)

    digest = config_digest(model.config, cfg)
    optimizer = nn.Adam(model.params, lr=cfg.lr, beta1=cfg.beta1,
                        beta2=cfg.beta2, eps=cfg.eps)
    checkpoints: list[ModelCheckpoint] = []
    n_fit = len(fit)

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n_fit)
        epoch_loss = 0.0
        for start in range(0, n_fit, cfg.batch_size):
            batch = fit.subset(order[start:start + cfg.batch_size])
            logits = model.forward(batch, train=True, rng=rng)
            loss, _ = nn.softmax_xent(logits, batch.labels)
            model.params.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_loss += float(loss.data) * len(batch)
        report = compute_metrics(predict_batch(model, val)[0].tolist(), val.labels.tolist())
        metrics = {m: report.value(m) for m in
                   ("accuracy", "precision_p", "recall_p", "f1_p")}
        metrics["fit_loss"] = epoch_loss / n_fit
        meta = model.metadata()
        meta["config_digest"] = digest
        checkpoints.append(ModelCheckpoint(
            epoch=epoch,
            arrays=model.params.state_dict(),
            metrics=metrics,
            metadata=meta,
        ))
    return checkpoints


def select_best_epoch(checkpoints, metric: str = "f1_p") -> ModelCheckpoint:
    """Checkpoint maximizing the validation metric; ties go to the earliest."""
    checkpoints = list(checkpoints)
    if not checkpoints:
        raise ValueError("no checkpoints to select from")
    return max(checkpoints, key=lambda cp: cp.metrics[metric])


def model_from_checkpoint(cp: ModelCheckpoint, dtype=None) -> Model:
    """Rebuild a model from a self-describing checkpoint's arrays (no values drawn).

    The parameters take the dtype the checkpoint stores unless dtype is given.
    """
    if dtype is None and cp.arrays:
        dtype = next(iter(cp.arrays.values())).dtype
    kind = cp.metadata.get("kind")
    conf = {k[len("config."):]: v for k, v in cp.metadata.items() if k.startswith("config.")}
    seed = int(cp.metadata.get("seed", "0"))
    try:
        cfg = _config_from_items(WCnnConfig if kind == "word_aux" else CCnnConfig, conf)
        cls, specs, built_kind = _architecture(cfg)
    except KeyError:
        built_kind = None
    if built_kind != kind:
        raise ValueError(f"checkpoint does not describe a CNN model (kind={kind!r})")
    params = nn.ParamSet()
    for spec in specs:  # unwritten placeholders: load_state_dict checks and replaces them
        params.add(spec.name, np.empty(spec.shape, dtype=dtype))
    params.load_state_dict(cp.arrays)
    return cls(kind, cfg, params, seed)
