"""Experiment orchestration over class-distribution scenarios.

For every scenario the orchestrator builds one fold plan, trains every
roster member on identical folds, evaluates on the corresponding test
blocks, votes the six-member ensembles, and emits averaged rows. All
artifacts (fold plans, best-epoch checkpoints, per-fold CSVs, provenance)
land under the output directory. Failures abort a scenario but preserve
completed scenarios plus a failure manifest.
"""

from __future__ import annotations

import datetime
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baselines, models
from .config import ExperimentConfig
from .corpus import Dataset, ScenarioPlan, fold_datasets, load_dataset, make_folds, save_fold_plan
from .embeddings import load_embeddings
from .encoding import EncodedSet, FeatureContext, encode_dataset
from .ensemble import (
    CNN_KINDS,
    COMPOSITIONS,
    KINDS,
    BowMember,
    CnnMember,
    ensemble_vote_batch,
    input_flags,
    save_baseline_member,
)
from .features import ClusterMap, Lexicon, load_cluster_map, load_lexicon, load_synonym_map
from .metrics import CSV_HEADER, MEASURES, MetricsReport, compute_metrics, mean_report
from .models import CCnnConfig, TrainConfig, WCnnConfig
from .nn import default_dtype, save_checkpoint


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


def build_feature_context(cfg: ExperimentConfig) -> FeatureContext:
    """Load lexicons/cluster/synonym/embedding files named in the config.

    Absent optional paths fall back to empty resources; the embedding table
    stays None (word models then refuse to encode).
    """
    abuse = load_lexicon(cfg.abuse_lexicon) if cfg.abuse_lexicon else Lexicon(frozenset())
    slang = load_lexicon(cfg.slang_lexicon, min_length=6) if cfg.slang_lexicon else Lexicon(frozenset())
    clusters = load_cluster_map(cfg.cluster_map) if cfg.cluster_map else ClusterMap({})
    synonyms = load_synonym_map(cfg.synonym_map) if cfg.synonym_map else None
    table = load_embeddings(cfg.embeddings, cfg.embedding_dim) if cfg.embeddings else None
    return FeatureContext(abuse=abuse, slang=slang, clusters=clusters,
                          synonyms=synonyms, table=table,
                          max_append=cfg.max_append)


def _unit_seed(base: int, scenario: int, member: int, fold: int, salt: int = 0) -> int:
    return ((base * 1_000_003 + scenario * 10_007 + member * 101 + fold) * 8 + salt) & 0x7FFFFFFF


def _parse_kernels(text: str) -> tuple[int, ...]:
    return tuple(int(k) for k in text.split(",") if k.strip())


def _wcnn_config(cfg: ExperimentConfig) -> WCnnConfig:
    return WCnnConfig(kernel_sizes=_parse_kernels(cfg.word_kernels),
                      filters=cfg.filters, embed_dim=cfg.embedding_dim,
                      dropout=cfg.dropout)


def _ccnn_config(cfg: ExperimentConfig) -> CCnnConfig:
    return CCnnConfig(kernel_sizes=_parse_kernels(cfg.char_kernels),
                      filters=cfg.filters, embed_dim=cfg.char_embed_dim,
                      dropout=cfg.dropout)


def _train_config(cfg: ExperimentConfig, seed: int) -> TrainConfig:
    return TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size, seed=seed,
                       val_fraction=cfg.val_fraction, lr=cfg.lr)


def train_cnn_member(kind: str, enc_train: EncodedSet, cfg: ExperimentConfig,
                     init_seed: int, train_seed: int) -> tuple[CnnMember, object]:
    """Train one CNN member, restore its best epoch, return (member, checkpoint)."""
    model = models.build_model(kind, seed=init_seed, wcnn=_wcnn_config(cfg),
                               ccnn=_ccnn_config(cfg))
    checkpoints = models.train(model, enc_train, _train_config(cfg, train_seed))
    best = models.select_best_epoch(checkpoints, cfg.selection_metric)
    model.params.load_state_dict(best.arrays)
    return CnnMember(model), best


def train_bow_member(kind: str, member_idx_of_kind: int, enc_train: EncodedSet,
                     x_train: np.ndarray, vocab: dict, idf: np.ndarray,
                     labels: np.ndarray, cfg: ExperimentConfig, seed: int) -> BowMember:
    """Train one classical member on the fold's shared TF-IDF features."""
    if kind == "svm":
        model = baselines.train_svm(x_train, labels, lam=cfg.svm_lambda,
                                    epochs=cfg.svm_epochs, seed=seed)
        baselines.calibrate_svm(model, x_train, labels)
        return BowMember("svm", model, vocab, idf)
    if kind == "rf":
        model = baselines.train_rf(x_train, labels, trees=cfg.rf_trees,
                                   max_depth=cfg.rf_max_depth, seed=seed)
        return BowMember("rf", model, vocab, idf)
    if kind == "nb":
        bootstrap = None if member_idx_of_kind == 0 else seed
        model = baselines.train_nb(enc_train.tokens, labels.tolist(),
                                   bootstrap_seed=bootstrap)
        return BowMember("nb", model, vocab, idf)
    raise ValueError(f"unknown baseline kind {kind!r}")


@contextmanager
def _naming_failures(unit: str):
    """Re-raise an error of the block prefixed with the unit (member tag, fold)."""
    try:
        yield
    except Exception as e:
        raise RuntimeError(f"{unit}: {e}") from e


def _run_scenario(pool: Dataset, plan: ScenarioPlan, scenario_idx: int,
                  cfg: ExperimentConfig, ctx: FeatureContext, out: Path,
                  jobs: int, log) -> tuple[list[ReportRow], list[str]]:
    roster = cfg.roster_members()
    inputs = input_flags(roster)
    if inputs["with_word"] and ctx.table is None:
        raise ValueError("roster contains word models but no embeddings file is configured")

    folds = make_folds(pool, plan, cfg.folds)
    plans_dir = out / "fold_plans"
    plans_dir.mkdir(parents=True, exist_ok=True)
    tag = plan.label.replace(":", "-")
    save_fold_plan(folds, plans_dir / f"scenario_{tag}.folds")
    ckpt_dir = out / "checkpoints" / tag
    ckpt_dir.mkdir(parents=True, exist_ok=True)

    # (kind, member_idx) -> list of per-fold reports; ensembles keyed by name
    member_reports: dict[tuple[str, int], list[MetricsReport]] = {}
    ensemble_reports: dict[str, list[MetricsReport]] = {}
    per_fold_lines = [CSV_HEADER + ",fold"]

    cnn_units = [(i, kind) for i, kind in enumerate(roster) if kind in CNN_KINDS]
    bow_units = [(i, kind) for i, kind in enumerate(roster) if kind not in CNN_KINDS]
    kind_counters: dict[str, int] = {}
    kind_index = {}  # roster position -> index among members of that kind
    for i, kind in enumerate(roster):
        kind_index[i] = kind_counters.get(kind, 0)
        kind_counters[kind] = kind_index[i] + 1

    for fold in range(cfg.folds):
        train_ds, test_ds = fold_datasets(pool, folds, fold)
        enc_train = encode_dataset(train_ds, ctx, **inputs)
        enc_test = encode_dataset(test_ds, ctx, **inputs)
        gold = list(enc_test.labels)
        fold_members: dict[int, object] = {}

        def run_cnn_unit(unit):
            i, kind = unit
            with _naming_failures(f"{kind}.m{kind_index[i]} fold {fold}"):
                member, best = train_cnn_member(
                    kind, enc_train, cfg,
                    init_seed=_unit_seed(cfg.seed, scenario_idx, i, fold, 0),
                    train_seed=_unit_seed(cfg.seed, scenario_idx, i, fold, 1),
                )
            return i, kind, member, best

        if jobs > 1 and len(cnn_units) > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool_exec:
                results = list(pool_exec.map(run_cnn_unit, cnn_units))
        else:
            results = [run_cnn_unit(u) for u in cnn_units]
        for i, kind, member, best in sorted(results, key=lambda r: r[0]):
            fold_members[i] = member
            save_checkpoint(best, ckpt_dir / f"{kind}.m{kind_index[i]}.f{fold}.ckpt")

        if bow_units:
            vocab, idf = baselines.fit_tfidf(enc_train.tokens)
            x_train = baselines.bow_features(enc_train, vocab, idf)
            for i, kind in bow_units:
                with _naming_failures(f"{kind}.m{kind_index[i]} fold {fold}"):
                    member = train_bow_member(
                        kind, kind_index[i], enc_train, x_train, vocab, idf,
                        enc_train.labels, cfg,
                        seed=_unit_seed(cfg.seed, scenario_idx, i, fold, 2),
                    )
                fold_members[i] = member
                save_baseline_member(member, ckpt_dir / f"{kind}.m{kind_index[i]}.f{fold}.ckpt")

        for i, kind in enumerate(roster):
            member = fold_members[i]
            pred, _ = member.predict_batch(enc_test)
            report = compute_metrics(pred.tolist(), gold)
            member_reports.setdefault((kind, kind_index[i]), []).append(report)
            per_fold_lines.append(
                report.csv_row(plan.label, f"{kind}.m{kind_index[i]}") + f",{fold}")

        for name, composition in COMPOSITIONS.items():
            mine = [i for i, k in enumerate(roster) if KINDS[k].ensemble == name]
            if Counter(roster[i] for i in mine) == composition:
                members = [fold_members[i] for i in mine]
                votes = ensemble_vote_batch(members, enc_test)
                report = compute_metrics(votes.tolist(), gold)
                ensemble_reports.setdefault(name, []).append(report)
                per_fold_lines.append(report.csv_row(plan.label, name) + f",{fold}")
        log(f"  scenario {plan.label}: fold {fold + 1}/{cfg.folds} done")

    per_fold_dir = out / "per_fold"
    per_fold_dir.mkdir(parents=True, exist_ok=True)
    (per_fold_dir / f"{tag}.csv").write_text("\n".join(per_fold_lines) + "\n")

    rows = []
    kind_means: dict[str, MetricsReport] = {}
    for name in ensemble_reports:
        kind_means[name] = mean_report(ensemble_reports[name])
    present_kinds = {kind for kind, _ in member_reports}
    for kind in present_kinds:
        all_reports = [r for (k, _), reps in member_reports.items() if k == kind for r in reps]
        kind_means[kind] = mean_report(all_reports)
    for model_name in (*COMPOSITIONS, *KINDS):
        if model_name in kind_means:
            rows.append(ReportRow(plan.label, model_name, kind_means[model_name]))
    return rows, per_fold_lines


def run_experiment(cfg: ExperimentConfig, jobs: int = 1, log=None) -> ExperimentReport:
    """Train and evaluate the full roster over every configured scenario."""
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
            scenario_rows, _ = _run_scenario(pool, plan, idx, cfg, ctx, out, jobs, log)
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
