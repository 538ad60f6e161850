"""Correctness checks computed apart from the program.

Each check takes plain values (labels, ids, predictions, CSV text) and
returns a list of problems; an empty list means it passed. Nothing here
calls into ssc, so a fault in the program cannot hide in its own check.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

MEASURES = ("accuracy", "precision_p", "recall_p", "f1_p")
CNN_KINDS = ("char_aux", "char_cnn", "word_aux")
ML_KINDS = ("svm", "rf", "nb")
HALF_ULP6 = 5e-7 + 1e-12  # agreement "to 6 decimals"


# ---------------------------------------------------------------------------
# Reference computations
# ---------------------------------------------------------------------------

def confusion(pred, gold) -> tuple[int, int, int, int]:
    """(tp, fp, fn, tn) for the positive class."""
    pred = np.asarray(pred)
    gold = np.asarray(gold)
    tp = int(np.sum((pred == 1) & (gold == 1)))
    fp = int(np.sum((pred == 1) & (gold == 0)))
    fn = int(np.sum((pred == 0) & (gold == 1)))
    tn = int(np.sum((pred == 0) & (gold == 0)))
    return tp, fp, fn, tn


def measures(tp: int, fp: int, fn: int, tn: int) -> dict[str, float]:
    """Accuracy and positive-class precision/recall/F1; 0 on a zero denominator."""
    total = tp + fp + fn + tn
    return {
        "accuracy": (tp + tn) / total,
        "precision_p": tp / (tp + fp) if tp + fp else 0.0,
        "recall_p": tp / (tp + fn) if tp + fn else 0.0,
        "f1_p": 2 * tp / (2 * tp + fp + fn) if tp else 0.0,
    }


def vote(classes: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Strict majority of (M, N) member votes; a tie goes to mean p(pos) > 0.5."""
    classes = np.asarray(classes)
    positive = (classes == 1).sum(axis=0)
    negative = classes.shape[0] - positive
    tie = np.asarray(probs, dtype=np.float64).mean(axis=0) > 0.5
    return np.where(positive > negative, 1, np.where(positive < negative, 0, tie.astype(int)))


def nb_posterior(log_prior, log_likelihood, vocab: list[str], docs) -> tuple[np.ndarray, np.ndarray]:
    """(classes, p_pos) as log_prior + counts @ log_likelihood.T over known terms."""
    index = {t: i for i, t in enumerate(vocab)}
    counts = np.zeros((len(docs), len(vocab)))
    for row, doc in enumerate(docs):
        for tok in doc:
            col = index.get(tok)
            if col is not None:
                counts[row, col] += 1
    log_post = np.asarray(log_prior, np.float64) + counts @ np.asarray(log_likelihood, np.float64).T
    p_pos = 1.0 / (1.0 + np.exp(log_post[:, 0] - log_post[:, 1]))
    return (log_post[:, 1] > log_post[:, 0]).astype(int), p_pos


def scenario_counts(spec: str) -> tuple[str, tuple[int, int], tuple[int, int]]:
    """('pos:neg', train (pos, neg), test (pos, neg)) from 'POS:NEG:N_TRAIN:N_TEST'."""
    pos, neg, n_train, n_test = (int(x) for x in spec.split(":"))
    split = lambda n: (n * pos // 100, n - n * pos // 100)  # noqa: E731
    return f"{pos}:{neg}", split(n_train), split(n_test)


# ---------------------------------------------------------------------------
# Parsers for the files the program writes
# ---------------------------------------------------------------------------

def parse_corpus(text: str) -> dict[str, int]:
    """id -> label from 'id<TAB>label<TAB>text' lines."""
    labels = {}
    for line in text.splitlines():
        if line.strip():
            item_id, label, _ = line.split("\t", 2)
            labels[item_id] = int(label)
    return labels


def failed_scenarios(text: str) -> list[str]:
    """Scenario labels under '# failed units' in failures.txt ('scenario 10:90: why')."""
    failed, section = [], None
    for line in text.splitlines():
        if line.startswith("#"):
            section = line
        elif section == "# failed units" and line.startswith("scenario "):
            failed.append(line.split()[1].rstrip(":"))
    return failed


def parse_fold_plan(text: str) -> dict[int, tuple[list[str], list[str]]]:
    folds: dict[int, tuple[list[str], list[str]]] = {}
    for line in text.splitlines():
        fold, role, item_id = line.split("\t")
        folds.setdefault(int(fold), ([], []))[0 if role == "train" else 1].append(item_id)
    return folds


def parse_csv(text: str) -> list[dict[str, str]]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_fold_plan(plan, labels: dict[str, int], spec: str, k: int = 1) -> list[str]:
    """Per-fold class counts from the spec; disjoint train/test drawn from the pool."""
    _, train_counts, test_counts = scenario_counts(spec)
    problems = []
    if sorted(plan) != list(range(k)):
        problems.append(f"{spec}: folds {sorted(plan)}, expected 0..{k - 1}")
    for fold, (train, test) in sorted(plan.items()):
        for role, ids, want in (("train", train, train_counts), ("test", test, test_counts)):
            missing = [i for i in ids if i not in labels]
            if missing:
                problems.append(f"{spec} fold {fold}: {role} ids not in pool: {missing[:3]}")
                continue
            if len(set(ids)) != len(ids):
                problems.append(f"{spec} fold {fold}: duplicate {role} ids")
            pos = sum(labels[i] == 1 for i in ids)
            got = (pos, len(ids) - pos)
            if got != want:
                problems.append(f"{spec} fold {fold}: {role} class counts {got}, expected {want}")
        if set(train) & set(test):
            problems.append(f"{spec} fold {fold}: train and test ids overlap")
    return problems


def check_row(row: dict[str, str], pred, gold) -> list[str]:
    """A per_fold/*.csv row against metrics recomputed from predictions."""
    tp, fp, fn, tn = confusion(pred, gold)
    mine = measures(tp, fp, fn, tn)
    where = f"{row['scenario']} {row['model']} fold {row.get('fold', '?')}"
    problems = []
    for m in MEASURES:
        if abs(float(row[m]) - mine[m]) > HALF_ULP6:
            problems.append(f"{where}: {m} {row[m]} but recomputed {mine[m]:.6f}")
    got = tuple(float(row[c]) for c in ("tp", "fp", "fn", "tn"))
    if got != (tp, fp, fn, tn):
        problems.append(f"{where}: counts {got} but recomputed {(tp, fp, fn, tn)}")
    return problems


def expected_report_rows(scenarios: list[str], roster: list[str]) -> Counter:
    kinds = set(roster)
    models = [k for k in CNN_KINDS + ML_KINDS if k in kinds]
    composition = Counter(roster)
    if all(composition.get(k) == 2 for k in CNN_KINDS):
        models.append("ensemble_cnn")
    if all(composition.get(k) == 2 for k in ML_KINDS):
        models.append("ensemble_ml")
    return Counter((s, model, m) for s in scenarios for model in models for m in MEASURES)


def check_report_rows(report_text: str, expected: Counter) -> list[str]:
    """report.csv holds exactly the expected (scenario, model, measure) rows."""
    rows = parse_csv(report_text)
    got = Counter((r["scenario"], r["model"], r["measure"]) for r in rows)
    problems = []
    if got - expected:
        problems.append(f"unexpected report rows: {sorted(got - expected)[:4]}")
    if expected - got:
        problems.append(f"missing report rows: {sorted(expected - got)[:4]}")
    return problems


def check_report_means(report_text: str, per_fold: list[dict[str, str]]) -> list[str]:
    """Each averaged value is the mean of the per-fold rows of that model kind."""
    groups: dict[tuple[str, str], list[dict[str, str]]] = {}
    for row in per_fold:
        groups.setdefault((row["scenario"], row["model"].split(".m")[0]), []).append(row)
    problems = []
    for r in parse_csv(report_text):
        rows = groups.get((r["scenario"], r["model"]))
        if not rows:
            continue
        mean = sum(float(x[r["measure"]]) for x in rows) / len(rows)
        if abs(float(r["value"]) - mean) > HALF_ULP6 + 1e-6:
            problems.append(f"{r['scenario']} {r['model']} {r['measure']}: "
                            f"{r['value']} but per-fold mean {mean:.6f}")
    return problems


def check_votes(votes, classes, probs, what: str) -> list[str]:
    want = vote(classes, probs)
    bad = np.flatnonzero(np.asarray(votes) != want)
    if bad.size:
        return [f"{what}: {bad.size} ensemble votes differ from the recomputed "
                f"majority (first at item {int(bad[0])})"]
    return []


def check_finite(values, what: str) -> list[str]:
    bad = [v for v in values if not math.isfinite(v)]
    return [f"{what}: non-finite values {bad[:4]}"] if bad else []


def check_floor(value: float, floor: float, what: str) -> list[str]:
    return [] if value >= floor else [f"{what}: accuracy {value:.4f} below floor {floor}"]
