"""Experiment configuration: a sectioned key=value text format.

Lines are ``key = value`` under ``[section]`` headers; ``#`` starts a
comment at the start of a line or after whitespace, so a value may hold
``#`` (``output = run#1``). Unknown or repeated keys, and values that do
not parse or fall outside their key's range, are reported with line
numbers. A minimal config needs only the dataset path; everything else has
defaults matching the standard experiment grid.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

from .corpus import ScenarioPlan, read_lines
from .encoding import COMPOSITIONS, KINDS
from .features import MAX_CHARS

DEFAULT_SCENARIOS = "50:50:3450:690,40:60:2850:570,30:70:2450:490,20:80:2150:430,10:90:1900:380"
# Each strict ensemble's composition, e.g. "char_aux:2,...,nb:2".
DEFAULT_ROSTER = ",".join(f"{kind}:{n}" for composition in COMPOSITIONS.values()
                          for kind, n in composition.items())


class ConfigFileError(ValueError):
    """Unreadable experiment config; messages carry line numbers."""


def parse_kernels(text: str, longest: int | None = None) -> tuple[int, ...]:
    """Kernel sizes from "3,4,5": distinct positive integers, each <= longest if given."""
    items = [x.strip() for x in text.split(",") if x.strip()]
    sizes = tuple(int(x) for x in items if x.isascii() and x.isdigit())
    if not sizes or len(sizes) < len(items) or min(sizes) < 1 or len(set(sizes)) < len(sizes):
        raise ValueError(f"{text!r} is not a list of distinct positive integers")
    if longest is not None and max(sizes) > longest:
        raise ValueError(f"{text!r} holds a kernel size above the sequence length {longest}")
    return sizes


def _at_least(low: int):
    """Parser of one integer key that must be at least low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"{text!r} is not an integer") from None
        if value < low:
            raise ValueError(f"{value!r} must be >= {low}")
        return value
    return parse


def _text(check):
    """Parser of one text key: the text itself, once check(text) has raised nothing."""
    def parse(text: str) -> str:
        check(text)
        return text
    return parse


def _key(section: str, default, parse: Callable[[str], object] = str):
    """A config key: its [section], default and parser (text -> value, or ValueError)."""
    return field(default=default, metadata={"section": section, "parse": parse})


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str = _key("paths", "")
    abuse_lexicon: str = _key("paths", "")
    slang_lexicon: str = _key("paths", "")
    cluster_map: str = _key("paths", "")
    synonym_map: str = _key("paths", "")
    embeddings: str = _key("paths", "")
    output: str = _key("paths", "out")
    scenarios: str = _key("experiment", DEFAULT_SCENARIOS,
                          _text(lambda text: ExperimentConfig(scenarios=text).scenario_plans()))
    folds: int = _key("experiment", 6, _at_least(1))
    roster: str = _key("experiment", DEFAULT_ROSTER,
                       _text(lambda text: ExperimentConfig(roster=text).roster_members()))
    seed: int = _key("experiment", 7, _at_least(0))
    epochs: int = _key("training", 30, _at_least(1))
    batch_size: int = _key("training", 32, _at_least(1))
    filters: int = _key("training", 128, _at_least(1))
    word_kernels: str = _key("training", "3,4,5", _text(parse_kernels))
    char_kernels: str = _key("training", "3,4,5,7",
                             _text(lambda text: parse_kernels(text, MAX_CHARS)))
    char_embed_dim: int = _key("training", 128, _at_least(1))
    rf_trees: int = _key("baselines", 50, _at_least(1))
    rf_max_depth: int = _key("baselines", 16, _at_least(1))

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


# Every key's parser by section, in field order (the order dump_config writes).
_SCHEMA: dict[str, dict[str, Callable[[str], object]]] = {}
for _f in fields(ExperimentConfig):
    _SCHEMA.setdefault(_f.metadata["section"], {})[_f.name] = _f.metadata["parse"]


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file, filling defaults."""
    values: dict[str, object] = {}
    first_line: dict[str, int] = {}
    section = None

    def parse(raw: str, lineno: int) -> None:
        nonlocal section
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            return
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            section = name if name in _SCHEMA else None
            if section is None:
                raise ValueError(f"unknown section [{name}]")
            return
        key, sep, value = (p.strip() for p in line.partition("="))
        if not sep:
            raise ValueError("expected key = value")
        if section is None:
            raise ValueError(f"key {key!r} outside any known section")
        if key not in _SCHEMA[section]:
            raise ValueError(f"unknown key {key!r} in [{section}]")
        if first_line.setdefault(key, lineno) != lineno:
            raise ValueError(f"{key} is set again (first set on line {first_line[key]}); "
                             "set each key once")
        try:
            values[key] = _SCHEMA[section][key](value)
        except ValueError as e:
            raise ValueError(f"{key} {e}") from None
    read_lines(path, "config", parse, ConfigFileError)

    cfg = replace(ExperimentConfig(), **values)
    if not cfg.dataset:
        raise ConfigFileError("missing required path: dataset")
    for name in _SCHEMA["paths"]:  # every input path that is set must exist
        value = getattr(cfg, name)
        if name != "output" and value and not Path(value).exists():
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
