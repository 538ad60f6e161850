"""Word-level and char-level CNN classifiers with per-epoch checkpointing.

The member kind's KINDS entry selects the architecture: "word_aux" reads
words and is the word CNN, "char_aux" and "char_cnn" the char CNN with and
without the auxiliary vector. CnnConfig (kernel sizes, filters, embedding
width) and TrainConfig (epochs, batch size, seed) hold what a run can
change; everything else is one of these constants:

- MAX_TOKENS (40) word ids per text and MAX_CHARS (280) character slots,
  fixed by the encoders; CHARSET_SIZE rows in the character embedding;
- POOL_SIZE (2), the window of the word model's non-overlapping max pools, which
  leave WORD_BRANCH_LEN (10) steps per word branch;
- DENSE_LAYERS (2) dense layers of DENSE_UNITS (1024) units;
- DROPOUT (0.5) after each dense layer while fitting;
- AUX_DIM (154) auxiliary entries, concatenated onto the last hidden layer
  for the aux kinds;
- a two-unit softmax output;
- VAL_FRACTION (0.1) of each class held out for validation; Adam's LR (1e-3).

The word model stacks conv+pool twice per branch with ReLU; the char model
uses one conv per branch with Tanh and global max pooling over a trainable
character embedding, and SELU dense layers. Each char branch (lookup, conv,
Tanh, global max) is one fused op, nn.char_branch, whose backward reaches
only each filter's argmax step. Both end in the same dense head.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

from . import nn
from .embeddings import MAX_TOKENS
from .encoding import CNN_KINDS, KINDS, EncodedSet
from .features import AUX_DIM, CHARSET_SIZE, MAX_CHARS
from .metrics import MEASURES, compute_metrics
from .nn import ModelCheckpoint, ParamSet, ParamSpec, Tensor

DENSE_UNITS = 1024
DENSE_LAYERS = 2
PREDICT_ROWS = 256  # rows per inference forward pass
POOL_SIZE = 2
DROPOUT = 0.5
VAL_FRACTION = 0.1
LR = 1e-3
# Two same-padding convs, each followed by a non-overlapping POOL_SIZE max pool.
WORD_BRANCH_LEN = MAX_TOKENS // POOL_SIZE // POOL_SIZE


class ConfigError(ValueError):
    """A model config violates one of the fixed architecture invariants."""


@dataclass(frozen=True)
class CnnConfig:
    """What a run can change in either architecture; the kind picks which one."""

    kernel_sizes: tuple[int, ...]
    filters: int
    embed_dim: int

    def validate(self) -> None:
        if not self.kernel_sizes or self.filters < 1:
            raise ConfigError("need at least one kernel size and one filter")
        if min(self.kernel_sizes) < 1 or len(set(self.kernel_sizes)) < len(self.kernel_sizes):
            raise ConfigError(f"kernel sizes {self.kernel_sizes} must be distinct and >= 1")
        if self.embed_dim < 1:
            raise ConfigError(f"embed_dim {self.embed_dim} must be >= 1")


def _config_items(cfg) -> list[tuple[str, str]]:
    out = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        out.append((f.name, str(v)))
    return out


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

    def head(self, h: Tensor, act, batch: EncodedSet, train: bool,
             rng: np.random.Generator | None) -> Tensor:
        """The dense layers (act, then dropout while training), aux concat, output."""
        p = self.params
        for layer in range(1, DENSE_LAYERS + 1):
            h = act(nn.dense(h, p[f"dense{layer}_w"], p[f"dense{layer}_b"]))
            if train:
                h = nn.dropout(h, DROPOUT, rng)
        if KINDS[self.kind].aux:
            h = nn.concat([h, Tensor(batch.aux)], axis=1)
        return nn.dense(h, p["out_w"], p["out_b"])

    def metadata(self) -> dict[str, str]:
        meta = {"kind": self.kind, "seed": str(self.seed)}
        for k, v in _config_items(self.config):
            meta[f"config.{k}"] = v
        return meta


class WordCnn(Model):
    def forward(self, batch, train=False, rng=None):
        width, dim = batch.vectors.shape[1], self.config.embed_dim
        if width != dim:
            raise ValueError(f"{self.kind} has embed_dim {dim}, but its word vectors are "
                             f"{width} wide: the config's embeddings file sets that width")
        x = nn.embedding_lookup(Tensor(batch.vectors), batch.word)  # a table without gradient
        p = self.params
        branches = []
        for k in self.config.kernel_sizes:
            h = nn.conv1d(x, p[f"conv{k}a_w"], p[f"conv{k}a_b"], padding="same")
            h = nn.relu(h)
            h = nn.maxpool1d(h, POOL_SIZE)
            h = nn.conv1d(h, p[f"conv{k}b_w"], p[f"conv{k}b_b"], padding="same")
            h = nn.relu(h)
            h = nn.maxpool1d(h, POOL_SIZE)
            branches.append(nn.reshape(h, (h.shape[0], -1)))
        return self.head(nn.concat(branches, axis=1), nn.relu, batch, train, rng)


class CharCnn(Model):
    def forward(self, batch, train=False, rng=None):
        p = self.params
        branches = [nn.char_branch(p["char_embed"], batch.char, p[f"conv{k}_w"], p[f"conv{k}_b"])
                    for k in self.config.kernel_sizes]
        return self.head(nn.concat(branches, axis=1), nn.selu, batch, train, rng)


def _head_specs(in_dim: int, with_aux: bool) -> list[ParamSpec]:
    specs = []
    for layer in range(1, DENSE_LAYERS + 1):
        specs.append(ParamSpec(f"dense{layer}_w", (in_dim, DENSE_UNITS)))
        specs.append(ParamSpec(f"dense{layer}_b", (DENSE_UNITS,), init="zeros"))
        in_dim = DENSE_UNITS
    specs.append(ParamSpec("out_w", (in_dim + (AUX_DIM if with_aux else 0), 2)))
    specs.append(ParamSpec("out_b", (2,), init="zeros"))
    return specs


def _wcnn_specs(cfg: CnnConfig, with_aux: bool) -> list[ParamSpec]:
    specs = []
    for k in cfg.kernel_sizes:
        specs.append(ParamSpec(f"conv{k}a_w", (k, cfg.embed_dim, cfg.filters)))
        specs.append(ParamSpec(f"conv{k}a_b", (cfg.filters,), init="zeros"))
        specs.append(ParamSpec(f"conv{k}b_w", (k, cfg.filters, cfg.filters)))
        specs.append(ParamSpec(f"conv{k}b_b", (cfg.filters,), init="zeros"))
    concat_dim = WORD_BRANCH_LEN * cfg.filters * len(cfg.kernel_sizes)
    return specs + _head_specs(concat_dim, with_aux)


def _ccnn_specs(cfg: CnnConfig, with_aux: bool) -> list[ParamSpec]:
    specs = [ParamSpec("char_embed", (CHARSET_SIZE, cfg.embed_dim), init="embedding")]
    for k in cfg.kernel_sizes:
        specs.append(ParamSpec(f"conv{k}_w", (k, cfg.embed_dim, cfg.filters)))
        specs.append(ParamSpec(f"conv{k}_b", (cfg.filters,), init="zeros"))
    return specs + _head_specs(cfg.filters * len(cfg.kernel_sizes), with_aux)


def _architecture(kind: str, cfg: CnnConfig) -> tuple[type[Model], list[ParamSpec]]:
    """(model class, parameter specs) of a member kind under a validated config."""
    if kind not in CNN_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}")
    cfg.validate()
    if KINDS[kind].word:
        return WordCnn, _wcnn_specs(cfg, KINDS[kind].aux)
    if max(cfg.kernel_sizes) > MAX_CHARS:
        raise ConfigError("kernel size exceeds sequence length")
    return CharCnn, _ccnn_specs(cfg, KINDS[kind].aux)


def build_model(kind: str, cfg: CnnConfig, seed: int = 0, dtype=None) -> Model:
    """A freshly initialized CNN of a member kind."""
    cls, specs = _architecture(kind, cfg)
    return cls(kind, cfg, nn.init_params(specs, seed, dtype=dtype), seed)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
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


def predict_batch(model: Model, batch: EncodedSet) -> tuple[np.ndarray, np.ndarray]:
    """(argmax classes, float64 positive-class probabilities) for every row.

    Rows go through the network PREDICT_ROWS at a time, so a forward pass's
    inputs and activations stay bounded for any set; an exact tie of the two
    probabilities gives the negative class.
    """
    classes = np.zeros(len(batch), dtype=np.int64)
    p_pos = np.zeros(len(batch))
    for start in range(0, len(batch), PREDICT_ROWS):
        rows = np.arange(start, min(start + PREDICT_ROWS, len(batch)))
        probs = nn.softmax(model.forward(batch.subset(rows), train=False).data)
        classes[rows], p_pos[rows] = np.argmax(probs, axis=1), probs[:, 1]
    return classes, p_pos


def train(model: Model, data: EncodedSet, cfg: TrainConfig) -> list[ModelCheckpoint]:
    """Mini-batch training; returns one checkpoint per epoch (1-based).

    Each checkpoint carries its epoch's fit_loss and validation metrics (an
    internal stratified split); only select_best_epoch's pick keeps its
    parameters, the others' arrays are empty. Dropout is active only while
    fitting. Deterministic given (model seed, data, cfg). A non-finite batch
    loss or gradient raises FloatingPointError naming the kind, the epoch and
    the batch (both 1-based), and for a gradient the parameter, before any
    parameter is updated from it.
    """
    if data.labels is None or len(data) == 0:
        raise ValueError("training requires a non-empty labeled dataset")
    labels = data.labels
    if len(np.unique(labels)) < 2:
        raise ValueError("training set contains a single class")

    rng = np.random.default_rng(cfg.seed)
    fit_idx, val_idx = _stratified_val_split(labels, VAL_FRACTION, rng)
    if len(val_idx) == 0:
        counts = np.bincount(labels, minlength=2)
        raise ValueError(f"{model.kind}: a {VAL_FRACTION} validation fraction of "
                         f"{counts[0]} negative and {counts[1]} positive training items "
                         "leaves the validation split empty")
    fit = data.subset(fit_idx)
    val = data.subset(val_idx)

    digest = config_digest(model.config, cfg)
    optimizer = nn.Adam(model.params, lr=LR)
    checkpoints: list[ModelCheckpoint] = []
    n_fit = len(fit)

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n_fit)
        epoch_loss = 0.0
        for start in range(0, n_fit, cfg.batch_size):
            where = f"at epoch {epoch}, batch {start // cfg.batch_size + 1}"
            batch = fit.subset(order[start:start + cfg.batch_size])
            logits = model.forward(batch, train=True, rng=rng)
            loss, _ = nn.softmax_xent(logits, batch.labels)
            batch_loss = float(loss.data)
            if not math.isfinite(batch_loss):
                raise FloatingPointError(f"{model.kind}: non-finite loss {batch_loss} {where}")
            model.params.zero_grad()
            loss.backward()
            for name, p in model.params.items():
                if p.grad is not None and not np.isfinite(p.grad).all():
                    raise FloatingPointError(f"{model.kind}: non-finite gradient of {name} {where}")
            optimizer.step()
            epoch_loss += batch_loss * len(batch)
        meta = model.metadata()
        meta["config_digest"] = digest
        cp = ModelCheckpoint(epoch=epoch, arrays=model.params.state_dict(), metadata=meta)
        # The snapshot's rebuilt model shares its arrays and keeps no autodiff graph.
        report = compute_metrics(predict_batch(model_from_checkpoint(cp), val)[0], val.labels)
        cp.metrics = {m: report.value(m) for m in MEASURES}
        cp.metrics["fit_loss"] = epoch_loss / n_fit
        checkpoints.append(cp)
        best = select_best_epoch(checkpoints)
        for other in checkpoints:  # only the best epoch so far keeps its snapshot
            if other is not best:
                other.arrays = {}
    return checkpoints


def select_best_epoch(checkpoints) -> ModelCheckpoint:
    """Checkpoint maximizing the validation f1_p; ties go to the earliest."""
    checkpoints = list(checkpoints)
    if not checkpoints:
        raise ValueError("no checkpoints to select from")
    return max(checkpoints, key=lambda cp: cp.metrics["f1_p"])


def model_from_checkpoint(cp: ModelCheckpoint) -> Model:
    """Rebuild a model from a self-describing checkpoint's arrays (no values drawn).

    The kind entry selects the architecture; config entries that CnnConfig
    does not have are ignored. The parameters take the dtype the checkpoint
    stores.
    """
    dtype = next(iter(cp.arrays.values())).dtype if cp.arrays else None
    kind = cp.metadata.get("kind")
    if kind not in CNN_KINDS or any(f"config.{f.name}" not in cp.metadata
                                    for f in fields(CnnConfig)):
        raise ValueError(f"checkpoint does not describe a CNN model (kind={kind!r})")

    def entry(name: str, parse):
        text = cp.metadata.get(name, "0")
        try:
            return parse(text)
        except ValueError:
            raise ValueError(f"{kind} checkpoint: metadata entry {name}={text!r} "
                             "does not parse") from None

    # Inverse of _config_items: each field's "config." entry, an int unless parsed here.
    parsers = {"kernel_sizes": lambda text: tuple(int(x) for x in text.split(","))}
    cfg = CnnConfig(**{f.name: entry(f"config.{f.name}", parsers.get(f.name, int))
                       for f in fields(CnnConfig)})
    seed = entry("seed", int)
    cls, specs = _architecture(kind, cfg)
    params = nn.ParamSet()
    for spec in specs:  # unwritten placeholders: load_state_dict checks and replaces them
        params.add(spec.name, np.empty(spec.shape, dtype=dtype))
    params.load_state_dict(cp.arrays)
    for _, p in params.items():  # a rebuilt member only predicts: its forward keeps no graph
        p.requires_grad = False
    return cls(kind, cfg, params, seed)
