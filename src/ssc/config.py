"""Experiment configuration: a sectioned key=value text format.

Lines are ``key = value`` under ``[section]`` headers; ``#`` starts a
comment. Unknown keys, and values that do not parse or fall outside their
key's range, are reported with line numbers. A minimal config needs only
the dataset path; everything else has defaults matching the standard
experiment grid.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from .corpus import ScenarioPlan
from .ensemble import KINDS
from .features import MAX_CHARS

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
    filters: int = 128
    word_kernels: str = "3,4,5"
    char_kernels: str = "3,4,5,7"
    char_embed_dim: int = 128
    # [baselines]
    rf_trees: int = 50
    rf_max_depth: int = 16

    def scenario_plans(self) -> list[ScenarioPlan]:
        plans = []
        for i, entry in enumerate(x.strip() for x in self.scenarios.split(",") if x.strip()):
            try:
                pos, neg, n_train, n_test = (int(p) for p in entry.split(":"))
            except ValueError:
                raise ConfigFileError(f"entry {entry!r} must be POS:NEG:N_TRAIN:N_TEST") from None
            if any(plan.ratio == (pos, neg) for plan in plans):
                raise ConfigFileError(f"entry {entry!r} repeats the ratio {pos}:{neg}; "
                                      "a scenario's outputs are named by its ratio")
            plans.append(ScenarioPlan((pos, neg), n_train, n_test, seed=self.seed + i))
        if not plans:
            raise ConfigFileError("holds no scenario")
        return plans

    def roster_members(self) -> list[str]:
        """Expanded member kinds, e.g. ['char_aux', 'char_aux', 'svm', ...]."""
        members = []
        for entry in (x.strip() for x in self.roster.split(",") if x.strip()):
            kind, sep, count = entry.partition(":")
            if kind not in KINDS:
                raise ConfigFileError(f"entry {entry!r} names no member kind ("
                                      + ", ".join(KINDS) + ")")
            try:
                n = int(count) if sep else 1
            except ValueError:
                n = 0
            if n < 1:
                raise ConfigFileError(f"entry {entry!r} must be KIND or KIND:COUNT, COUNT >= 1")
            members.extend([kind] * n)
        if not members:
            raise ConfigFileError("holds no member")
        return members

    def digest(self) -> str:
        return hashlib.sha256(dump_config(self).encode("utf-8")).hexdigest()


_OPTIONAL_PATHS = ("abuse_lexicon", "slang_lexicon", "cluster_map",
                   "synonym_map", "embeddings")


def parse_kernels(text: str, longest: int | None = None) -> tuple[int, ...]:
    """Kernel sizes from "3,4,5": distinct positive integers, each <= longest if given."""
    items = [x.strip() for x in text.split(",") if x.strip()]
    sizes = tuple(int(x) for x in items if x.isascii() and x.isdigit())
    if not sizes or len(sizes) < len(items) or min(sizes) < 1 or len(set(sizes)) < len(sizes):
        raise ValueError(f"{text!r} is not a list of distinct positive integers")
    if longest is not None and max(sizes) > longest:
        raise ValueError(f"{text!r} holds a kernel size above the sequence length {longest}")
    return sizes


def _integer(rule: str = "", ok=lambda value: True):
    """Parser of one integer key: int(text), which ok must accept; rule says what ok asks."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"{text!r} is not an integer") from None
        if not ok(value):
            raise ValueError(f"{value!r} must be {rule}")
        return value
    return parse


def _at_least(low: int):
    return _integer(f">= {low}", lambda value: value >= low)


def _text(check):
    """Parser of one text key: the text itself, once check(text) has raised nothing."""
    def parse(text: str) -> str:
        check(text)
        return text
    return parse


# Every key's parser: text -> value, raising ValueError with what is wrong.
_SCHEMA: dict[str, dict[str, Callable[[str], object]]] = {
    "paths": {
        "dataset": str, "abuse_lexicon": str, "slang_lexicon": str,
        "cluster_map": str, "synonym_map": str, "embeddings": str, "output": str,
    },
    "experiment": {
        "scenarios": _text(lambda text: ExperimentConfig(scenarios=text).scenario_plans()),
        "folds": _at_least(1),
        "roster": _text(lambda text: ExperimentConfig(roster=text).roster_members()),
        "seed": _integer(),
    },
    "training": {
        "epochs": _at_least(1), "batch_size": _at_least(1), "filters": _at_least(1),
        "word_kernels": _text(parse_kernels),
        "char_kernels": _text(lambda text: parse_kernels(text, MAX_CHARS)),
        "char_embed_dim": _at_least(1),
    },
    "baselines": {"rf_trees": _at_least(1), "rf_max_depth": _at_least(1)},
}


def load_config(path) -> ExperimentConfig:
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
            try:
                values[key] = _SCHEMA[section][key](value)
            except ValueError as e:
                errors.append(f"line {lineno}: {key} {e}")
    if errors:
        raise ConfigFileError("bad config file:\n" + "\n".join(errors))

    cfg = replace(ExperimentConfig(), **values)
    if not cfg.dataset:
        raise ConfigFileError("missing required path: dataset")
    if not Path(cfg.dataset).exists():
        raise ConfigFileError(f"dataset path does not exist: {cfg.dataset}")
    for name in _OPTIONAL_PATHS:
        value = getattr(cfg, name)
        if value and not Path(value).exists():
            raise ConfigFileError(f"{name} path does not exist: {value}")
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
