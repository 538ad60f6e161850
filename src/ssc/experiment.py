"""Experiment orchestration over class-distribution scenarios.

The experiment is one loop. For every scenario, _run_scenario builds and
saves one fold plan and calls _run_fold on each fold. There each roster
member is one unit: it is trained on the fold by train_member, the one
training path of every kind (ssc train takes it too), saved, reloaded
from its checkpoint and predicts the test block once. The ensembles vote
from those predictions, so no member predicts twice. _run_scenario then
writes the per-fold CSV and averages each member kind and ensemble over
the folds. All artifacts (fold plans, best-epoch checkpoints, per-fold
CSVs, provenance) land under the output directory. Failures abort a
scenario but preserve completed scenarios plus a failure manifest.
"""

from __future__ import annotations

import datetime
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import baselines, ensemble, models
from .config import ExperimentConfig, parse_kernels
from .corpus import (
    Dataset,
    FoldPlan,
    ScenarioPlan,
    fold_datasets,
    load_dataset,
    make_folds,
    save_fold_plan,
)
from .embeddings import load_embeddings
from .encoding import CNN_KINDS, COMPOSITIONS, KINDS, EncodedSet, FeatureContext, encode_dataset
from .ensemble import (
    BowMember,
    baseline_checkpoint,
    ensemble_vote_batch,  # unused here; bench/tracing.py wraps it by this module's name
)
from .features import ClusterMap, Lexicon, load_cluster_map, load_lexicon, load_synonym_map
from .metrics import CSV_HEADER, MEASURES, MetricsReport, compute_metrics, mean_report
from .models import CnnConfig, TrainConfig
from .nn import ModelCheckpoint, default_dtype, save_checkpoint


@dataclass(frozen=True)
class ReportRow:
    scenario: str
    model: str
    metrics: MetricsReport


@dataclass
class ExperimentReport:
    rows: list[ReportRow]
    provenance: dict[str, str]
    failures: list[str]


def build_feature_context(cfg: ExperimentConfig, kinds=None) -> FeatureContext:
    """Load the lexicon/cluster/synonym/embedding files named in the config.

    The embedding table is read only when one of kinds (by default the
    config's roster) reads word vectors. Absent optional paths fall back to
    empty resources; the embedding table stays None (word models then
    refuse to encode).
    """
    kinds = cfg.roster_members() if kinds is None else kinds
    abuse = load_lexicon(cfg.abuse_lexicon) if cfg.abuse_lexicon else Lexicon(frozenset())
    slang = load_lexicon(cfg.slang_lexicon, min_length=6) if cfg.slang_lexicon else Lexicon(frozenset())
    clusters = load_cluster_map(cfg.cluster_map) if cfg.cluster_map else ClusterMap({})
    synonyms = load_synonym_map(cfg.synonym_map) if cfg.synonym_map else None
    reads_words = cfg.embeddings and any(KINDS[k].word for k in kinds)
    table = load_embeddings(cfg.embeddings) if reads_words else None
    return FeatureContext(abuse=abuse, slang=slang, clusters=clusters,
                          synonyms=synonyms, table=table)


def _unit_seed(base: int, scenario: int, member: int, fold: int, salt: int = 0) -> int:
    return ((base * 1_000_003 + scenario * 10_007 + member * 101 + fold) * 8 + salt) & 0x7FFFFFFF


def _cnn_config(cfg: ExperimentConfig, kind: str, enc: EncodedSet) -> CnnConfig:
    """The word or the char fields of cfg, as the kind reads words or chars.

    A word model is as wide as the word vectors of enc.
    """
    word = KINDS[kind].word
    kernels = cfg.word_kernels if word else cfg.char_kernels
    return CnnConfig(kernel_sizes=parse_kernels(kernels),
                     filters=cfg.filters,
                     embed_dim=enc.vectors.shape[1] if word else cfg.char_embed_dim)


def train_cnn_member(kind: str, enc_train: EncodedSet, cfg: ExperimentConfig,
                     seed: int) -> ModelCheckpoint:
    """Train one CNN member, built from seed and shuffled from seed + 1; return its best epoch."""
    model = models.build_model(kind, _cnn_config(cfg, kind, enc_train), seed=seed)
    train_cfg = TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size, seed=seed + 1)
    return models.select_best_epoch(models.train(model, enc_train, train_cfg))


def train_member(kind: str, member_idx_of_kind: int, enc_train: EncodedSet,
                 cfg: ExperimentConfig, seed: int, tfidf=None) -> ModelCheckpoint:
    """Train one member of any kind on enc_train; return its checkpoint.

    The one training path of the fold units and of ssc train. A kind that
    reads TF-IDF trains on tfidf (a fold's tfidf_features) or, without
    one, fits its own on enc_train. Naive Bayes bootstraps from seed for
    every member of its kind but the first.
    """
    if kind in CNN_KINDS:
        # By this module's global name, so that bench/tracing.py's wrapper sees the call.
        return train_cnn_member(kind, enc_train, cfg, seed)
    labels = enc_train.labels
    if not KINDS[kind].tfidf:
        bootstrap = None if member_idx_of_kind == 0 else seed
        model = baselines.train_nb(enc_train.tokens, labels.tolist(), bootstrap_seed=bootstrap)
        return baseline_checkpoint(BowMember(kind, model))
    x_train, vocab, idf = tfidf or baselines.tfidf_features(enc_train)
    if kind == "svm":
        model = baselines.train_svm(x_train, labels, seed=seed)
    else:
        model = baselines.train_rf(x_train, labels, trees=cfg.rf_trees,
                                   max_depth=cfg.rf_max_depth, seed=seed)
    return baseline_checkpoint(BowMember(kind, model, vocab, idf))


def roster_encoder(ctx: FeatureContext, kinds) -> Callable[[Dataset], EncodedSet]:
    """Dataset -> EncodedSet with the inputs that members of these kinds read.

    Raises at once when a kind reads word vectors and ctx has no embedding
    table, rather than at the first encode.
    """
    with_word = any(KINDS[k].word for k in kinds)
    with_char = any(KINDS[k].char for k in kinds)
    if with_word and ctx.table is None:
        raise ValueError("word models need an embeddings path in the config")
    return lambda ds: encode_dataset(ds, ctx, with_word=with_word, with_char=with_char)


@contextmanager
def _naming_failures(unit: str):
    """Re-raise an error of the block prefixed with the unit (member tag, fold)."""
    try:
        yield
    except Exception as e:
        raise RuntimeError(f"{unit}: {e}") from e


def _run_fold(pool: Dataset, folds: FoldPlan, fold: int, scenario_idx: int,
              cfg: ExperimentConfig, encode: Callable[[Dataset], EncodedSet],
              ckpt_dir: Path, jobs: int) -> list[tuple[str, MetricsReport]]:
    """Run every member of one fold as a unit, then vote the ensembles from their predictions.

    A unit trains its member (train_member), saves the checkpoint, reloads
    it and predicts the test block once: the CNN units in a pool of jobs
    threads, then the classical units in turn, on one TF-IDF fit if any of
    them reads it.
    Returns (row name, report) pairs in per-fold CSV order: every roster
    member as kind.m<j> (its j-th member of that kind), then each ensemble
    whose composition the roster holds.
    """
    roster = cfg.roster_members()
    units = [(i, kind, f"{kind}.m{roster[:i].count(kind)}") for i, kind in enumerate(roster)]
    train_ds, test_ds = fold_datasets(pool, folds, fold)
    enc_train, enc_test = encode(train_ds), encode(test_ds)

    def run_unit(unit, tfidf=None):
        """(classes, probabilities) on the test block; tfidf is the fold's tfidf_features."""
        i, kind, tag = unit
        # A CNN shuffles from its seed + 1 (salt 1), so a classical member takes salt 2.
        seed = _unit_seed(cfg.seed, scenario_idx, i, fold, 0 if kind in CNN_KINDS else 2)
        with _naming_failures(f"{tag} fold {fold}"):
            cp = train_member(kind, roster[:i].count(kind), enc_train, cfg, seed, tfidf)
            save_checkpoint(cp, ckpt_dir / f"{tag}.f{fold}.ckpt")
            # Through its module, so that bench/tracing.py's wrapper sees the call.
            return ensemble.load_member(kind, cp).predict_batch(enc_test)

    cnn_units = [u for u in units if u[1] in CNN_KINDS]
    with ThreadPoolExecutor(max_workers=jobs) as pool_exec:
        predictions = dict(zip(cnn_units, pool_exec.map(run_unit, cnn_units)))
    # In turn, after the CNN units: two forests in two threads take twice as long (GIL contention).
    tfidf = baselines.tfidf_features(enc_train) if any(KINDS[u[1]].tfidf for u in units) else None
    predictions.update((u, run_unit(u, tfidf)) for u in units if u[1] not in CNN_KINDS)

    rows = [(u[2], compute_metrics(predictions[u][0], enc_test.labels)) for u in units]
    for name, composition in COMPOSITIONS.items():
        mine = [u for u in units if KINDS[u[1]].ensemble == name]  # roster order
        if Counter(u[1] for u in mine) == composition:
            classes, probs = zip(*(predictions[u] for u in mine))
            with _naming_failures(f"{name} fold {fold}"):
                votes = ensemble.vote(np.stack(classes), np.stack(probs))
            rows.append((name, compute_metrics(votes, enc_test.labels)))
    return rows


def _run_scenario(pool: Dataset, plan: ScenarioPlan, scenario_idx: int,
                  cfg: ExperimentConfig, ctx: FeatureContext, out: Path,
                  jobs: int, log) -> list[ReportRow]:
    encode = roster_encoder(ctx, cfg.roster_members())
    folds = make_folds(pool, plan, cfg.folds)
    plans_dir = out / "fold_plans"
    plans_dir.mkdir(parents=True, exist_ok=True)
    tag = plan.label.replace(":", "-")
    save_fold_plan(folds, plans_dir / f"scenario_{tag}.folds")
    ckpt_dir = out / "checkpoints" / tag
    ckpt_dir.mkdir(parents=True, exist_ok=True)

    # Row name -> its per-fold reports; first-seen order is roster order.
    reports: dict[str, list[MetricsReport]] = {}
    per_fold_lines = [CSV_HEADER + ",fold"]
    for fold in range(cfg.folds):
        for name, report in _run_fold(pool, folds, fold, scenario_idx, cfg, encode,
                                      ckpt_dir, jobs):
            reports.setdefault(name, []).append(report)
            per_fold_lines.append(report.csv_row(plan.label, name) + f",{fold}")
        log(f"  scenario {plan.label}: fold {fold + 1}/{cfg.folds} done")

    per_fold_dir = out / "per_fold"
    per_fold_dir.mkdir(parents=True, exist_ok=True)
    (per_fold_dir / f"{tag}.csv").write_text("\n".join(per_fold_lines) + "\n")

    # A kind's mean runs over its members' reports, member-major, fold-minor.
    rows = []
    for model in (*COMPOSITIONS, *KINDS):
        mine = [r for name, reps in reports.items() if name.partition(".")[0] == model
                for r in reps]
        if mine:
            rows.append(ReportRow(plan.label, model, mean_report(mine)))
    return rows


def run_experiment(cfg: ExperimentConfig, jobs: int = 1, log=None) -> ExperimentReport:
    """Train and evaluate the roster over every scenario, up to jobs (>= 1) CNN units at once."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    log = log or (lambda msg: print(msg, file=sys.stderr))
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)

    pool = load_dataset(cfg.dataset)
    ctx = build_feature_context(cfg)
    rows: list[ReportRow] = []
    failures: list[str] = []

    completed: list[str] = []
    for idx, plan in enumerate(cfg.scenario_plans()):
        log(f"scenario {plan.label}: starting ({cfg.folds} folds)")
        try:
            scenario_rows = _run_scenario(pool, plan, idx, cfg, ctx, out, jobs, log)
            rows.extend(scenario_rows)
            completed.append(plan.label)
        except Exception as e:
            failures.append(f"scenario {plan.label}: {e}")
            log(f"scenario {plan.label}: FAILED: {e}")

    provenance = {
        "config_digest": cfg.digest(),
        "seed": str(cfg.seed),
        "precision": str(np.dtype(default_dtype()).itemsize * 8),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    report = ExperimentReport(rows, provenance, failures)

    (out / "report.csv").write_text(emit_report(report, "csv"))
    (out / "report.md").write_text(emit_report(report, "markdown"))
    (out / "provenance.txt").write_text(
        "".join(f"{k}={v}\n" for k, v in provenance.items()))
    if failures:
        manifest = ["# failed units"] + failures + ["# completed units"] + completed
        (out / "failures.txt").write_text("".join(f"{line}\n" for line in manifest))
    else:
        # An earlier run's manifest would describe failures this run does not have.
        (out / "failures.txt").unlink(missing_ok=True)
    return report


def emit_report(report: ExperimentReport, fmt: str = "csv") -> str:
    """Render the averaged report.

    csv: one row per (scenario, model, measure) at 6 decimals.
    markdown: one block per scenario, measures as rows, models as columns,
    4 decimals.
    """
    if fmt == "csv":
        lines = ["scenario,model,measure,value"]
        for row in report.rows:
            for measure in MEASURES:
                lines.append(f"{row.scenario},{row.model},{measure},"
                             f"{row.metrics.value(measure):.6f}")
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        scenarios: dict[str, list[ReportRow]] = {}
        for row in report.rows:
            scenarios.setdefault(row.scenario, []).append(row)
        blocks = []
        for scenario, rows in scenarios.items():
            names = [r.model for r in rows]
            lines = [f"## Class distribution {scenario}", ""]
            lines.append("| Measure | " + " | ".join(names) + " |")
            lines.append("|---" * (len(names) + 1) + "|")
            for measure in MEASURES:
                cells = " | ".join(f"{r.metrics.value(measure):.4f}" for r in rows)
                lines.append(f"| {measure} | {cells} |")
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
