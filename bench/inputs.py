"""Seeded input generation: corpora, feature fixtures and experiment configs.

Everything the program later reads is written here as plain files; the
same --seed always yields the same files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ssc import synth
from ssc.corpus import Dataset, Tweet, save_dataset

import settings


def filler_tokens(rng: np.random.Generator, n_texts: int) -> list[str]:
    """One string of class-free filler tokens per text (Zipf-like ranks)."""
    ranks = np.arange(1, settings.ZIPF_TYPES + 1, dtype=np.float64)
    p = ranks ** -settings.ZIPF_S
    p /= p.sum()
    names = rng.permutation(settings.ZIPF_TYPES)  # which type gets which rank
    lo, hi = settings.FILLER_PER_TEXT
    counts = rng.integers(lo, hi + 1, size=n_texts)
    draws = rng.choice(settings.ZIPF_TYPES, size=int(counts.sum()), p=p)
    out, start = [], 0
    for c in counts:
        out.append(" ".join(f"zq{names[r]:x}" for r in draws[start:start + c]))
        start += c
    return out


def widen(dataset: Dataset, seed: int) -> Dataset:
    """Append filler tokens, drawn independently of the label, to every text."""
    rng = np.random.default_rng([seed, 1])
    fill = filler_tokens(rng, len(dataset))
    return Dataset(Tweet(t.id, f"{t.text} {f}", t.label) for t, f in zip(dataset, fill))


def write_config(path: Path, *, corpus: Path, fixtures: dict, output: Path, seed: int,
                 roster: str, scenarios: str, epochs: int, rf_trees: int | None = None) -> None:
    lines = ["[paths]", f"dataset = {corpus}"]
    lines += [f"{key} = {value}" for key, value in fixtures.items()]
    lines += [f"output = {output}", "", "[experiment]", f"scenarios = {scenarios}",
              "folds = 1", f"roster = {roster}", f"seed = {seed}", "",
              "[training]", f"epochs = {epochs}"]
    if rf_trees is not None:
        lines += ["", "[baselines]", f"rf_trees = {rf_trees}"]
    path.write_text("\n".join(lines) + "\n")


def generate(workload: str, seed: int, work: Path) -> dict:
    """Write the inputs of one workload under work/ and return their paths."""
    spec = settings.WORKLOADS[workload]
    work.mkdir(parents=True, exist_ok=True)
    fixtures = {k: str(v) for k, v in synth.write_fixture_files(
        work / "fixtures", embed_dim=settings.PAPER_EMBED_DIM, seed=seed).items()}
    n_pos, n_neg = spec["pool"]
    pool = synth.generate_dataset(n_pos, n_neg, seed=seed)
    if spec["widen"]:
        pool = widen(pool, seed)
    corpus = work / "corpus.tsv"
    save_dataset(pool, corpus)
    files = {"corpus": str(corpus)}
    if spec["kind"] == "fit":
        write_config(work / "exp.conf", corpus=corpus, fixtures=fixtures,
                     output=work / "out", seed=seed, roster=spec["roster"],
                     scenarios=spec["scenarios"], epochs=spec["epochs"],
                     rf_trees=spec.get("rf_trees"))
        files["config"] = str(work / "exp.conf")
        return files
    # score: held-out labeled pools from a seed the training corpus never uses.
    for name, size in (("cnn", spec["cnn_pool"]), ("ml", spec["ml_pool"])):
        held = synth.generate_dataset(size // 2, size - size // 2,
                                      seed=seed + 7919 * (1 if name == "cnn" else 2),
                                      id_prefix=f"held{name}")
        save_dataset(held, work / f"pool_{name}.tsv")
        files[f"pool_{name}"] = str(work / f"pool_{name}.tsv")
        train = spec[f"{name}_train"]
        write_config(work / f"{name}.conf", corpus=corpus, fixtures=fixtures,
                     output=work / f"train_{name}", seed=seed, roster=train["roster"],
                     scenarios=train["scenarios"], epochs=train["epochs"],
                     rf_trees=train.get("rf_trees"))
        files[f"config_{name}"] = str(work / f"{name}.conf")
    return files
