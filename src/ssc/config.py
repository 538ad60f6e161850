"""Experiment configuration: a sectioned key=value text format.

Lines are ``key = value`` under ``[section]`` headers; ``#`` starts a
comment. Unknown keys, malformed values, and missing required paths are
reported with line numbers. A minimal config needs only the dataset path;
everything else has defaults matching the standard experiment grid.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

from .corpus import ScenarioPlan
from .ensemble import KINDS

DEFAULT_SCENARIOS = "50:50:3450:690,40:60:2850:570,30:70:2450:490,20:80:2150:430,10:90:1900:380"
DEFAULT_ROSTER = "char_aux:2,char_cnn:2,word_aux:2,svm:2,rf:2,nb:2"


class ConfigFileError(ValueError):
    """Unreadable experiment config; messages carry line numbers."""


@dataclass(frozen=True)
class ExperimentConfig:
    # [paths]
    dataset: str = ""
    abuse_lexicon: str = ""
    slang_lexicon: str = ""
    cluster_map: str = ""
    synonym_map: str = ""
    embeddings: str = ""
    output: str = "out"
    # [experiment]
    scenarios: str = DEFAULT_SCENARIOS
    folds: int = 6
    roster: str = DEFAULT_ROSTER
    seed: int = 7
    # [training]
    epochs: int = 30
    batch_size: int = 32
    val_fraction: float = 0.1
    selection_metric: str = "f1_p"
    lr: float = 1e-3
    dropout: float = 0.5
    filters: int = 128
    word_kernels: str = "3,4,5"
    char_kernels: str = "3,4,5,7"
    embedding_dim: int = 400
    char_embed_dim: int = 128
    max_append: int = 10
    # [baselines]
    svm_lambda: float = 1e-4
    svm_epochs: int = 10
    rf_trees: int = 50
    rf_max_depth: int = 16

    def scenario_plans(self) -> list[ScenarioPlan]:
        plans = []
        for i, entry in enumerate(x for x in self.scenarios.split(",") if x.strip()):
            parts = entry.strip().split(":")
            if len(parts) != 4:
                raise ConfigFileError(
                    f"scenario entry {entry!r} must be POS:NEG:N_TRAIN:N_TEST")
            pos, neg, n_train, n_test = (int(p) for p in parts)
            plans.append(ScenarioPlan((pos, neg), n_train, n_test, seed=self.seed + i))
        if not plans:
            raise ConfigFileError("no scenarios configured")
        return plans

    def roster_members(self) -> list[str]:
        """Expanded member kinds, e.g. ['char_aux', 'char_aux', 'svm', ...]."""
        members = []
        for entry in (x for x in self.roster.split(",") if x.strip()):
            kind, sep, count = entry.strip().partition(":")
            if kind not in KINDS:
                raise ConfigFileError(f"unknown roster kind {kind!r}")
            n = int(count) if sep else 1
            if n < 1:
                raise ConfigFileError(f"roster count for {kind!r} must be >= 1")
            members.extend([kind] * n)
        if not members:
            raise ConfigFileError("empty model roster")
        return members

    def digest(self) -> str:
        return hashlib.sha256(dump_config(self).encode("utf-8")).hexdigest()


_SCHEMA: dict[str, dict[str, type]] = {
    "paths": {
        "dataset": str, "abuse_lexicon": str, "slang_lexicon": str,
        "cluster_map": str, "synonym_map": str, "embeddings": str, "output": str,
    },
    "experiment": {"scenarios": str, "folds": int, "roster": str, "seed": int},
    "training": {
        "epochs": int, "batch_size": int, "val_fraction": float,
        "selection_metric": str, "lr": float, "dropout": float, "filters": int,
        "word_kernels": str, "char_kernels": str, "embedding_dim": int,
        "char_embed_dim": int, "max_append": int,
    },
    "baselines": {
        "svm_lambda": float, "svm_epochs": int, "rf_trees": int,
        "rf_max_depth": int,
    },
}

_OPTIONAL_PATHS = ("abuse_lexicon", "slang_lexicon", "cluster_map",
                   "synonym_map", "embeddings")


def load_config(path, require_paths: bool = True) -> ExperimentConfig:
    """Parse and validate a config file, filling defaults."""
    values: dict[str, object] = {}
    section = None
    errors: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if section not in _SCHEMA:
                    errors.append(f"line {lineno}: unknown section [{section}]")
                    section = None
                continue
            key, sep, value = (p.strip() for p in line.partition("="))
            if not sep:
                errors.append(f"line {lineno}: expected key = value")
                continue
            if section is None:
                errors.append(f"line {lineno}: key {key!r} outside any known section")
                continue
            if key not in _SCHEMA[section]:
                errors.append(f"line {lineno}: unknown key {key!r} in [{section}]")
                continue
            caster = _SCHEMA[section][key]
            try:
                values[key] = caster(value)
            except ValueError:
                errors.append(f"line {lineno}: malformed value {value!r} for {key!r}")
    if errors:
        raise ConfigFileError("bad config file:\n" + "\n".join(errors))

    cfg = replace(ExperimentConfig(), **values)
    if not cfg.dataset:
        raise ConfigFileError("missing required path: dataset")
    if require_paths:
        if not Path(cfg.dataset).exists():
            raise ConfigFileError(f"dataset path does not exist: {cfg.dataset}")
        for name in _OPTIONAL_PATHS:
            value = getattr(cfg, name)
            if value and not Path(value).exists():
                raise ConfigFileError(f"{name} path does not exist: {value}")
    cfg.scenario_plans()
    cfg.roster_members()
    if cfg.folds < 1:
        raise ConfigFileError("folds must be >= 1")
    return cfg


def dump_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; load_config(dump_config(cfg)) round-trips."""
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key in keys:
            lines.append(f"{key} = {getattr(cfg, key)}")
        lines.append("")
    return "\n".join(lines)
