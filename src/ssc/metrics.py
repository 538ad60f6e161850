"""Binary classification metrics and their average over folds.

All measures target the positive class: precision_p, recall_p and f1_p use
the zero-division convention (0 when the denominator is 0) so heavily
imbalanced folds with no positive predictions stay well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

MEASURES = ("accuracy", "precision_p", "recall_p", "f1_p")


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision_p: float
    recall_p: float
    f1_p: float
    tp: float
    fp: float
    fn: float
    tn: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int, tn: int) -> "MetricsReport":
        total = tp + fp + fn + tn
        if total <= 0:
            raise ValueError("empty confusion matrix")
        accuracy = (tp + tn) / total
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        return cls(accuracy, precision, recall, f1, tp, fp, fn, tn)

    def value(self, measure: str) -> float:
        if measure not in MEASURES:
            raise ValueError(f"unknown measure {measure!r}")
        return getattr(self, measure)

    def csv_row(self, scenario: str, model: str) -> str:
        vals = ",".join(f"{self.value(m):.6f}" for m in MEASURES)
        counts = ",".join(f"{c:g}" for c in (self.tp, self.fp, self.fn, self.tn))
        return f"{scenario},{model},{vals},{counts}"


CSV_HEADER = ",".join(("scenario", "model", *(f.name for f in fields(MetricsReport))))


def compute_metrics(pred: np.ndarray, gold: np.ndarray) -> MetricsReport:
    """Confusion counts and the four measures for aligned class arrays.

    A pair that is neither (1, 1), (1, 0) nor (0, 1) counts as a true negative.
    """
    pred, gold = np.asarray(pred), np.asarray(gold)
    if len(pred) != len(gold):
        raise ValueError(f"length mismatch: {len(pred)} predictions vs {len(gold)} labels")
    if len(pred) == 0:
        raise ValueError("cannot compute metrics on empty lists")
    tp = int(np.count_nonzero((pred == 1) & (gold == 1)))
    fp = int(np.count_nonzero((pred == 1) & (gold == 0)))
    fn = int(np.count_nonzero((pred == 0) & (gold == 1)))
    return MetricsReport.from_counts(tp, fp, fn, len(pred) - tp - fp - fn)


def mean_report(reports: Sequence[MetricsReport]) -> MetricsReport:
    """Unweighted arithmetic mean of each measure (and of the counts).

    The averaged measures are means of per-report measures, not metrics
    recomputed from the averaged confusion counts.
    """
    if not reports:
        raise ValueError("cannot average zero reports")
    n = len(reports)
    return MetricsReport(**{f.name: sum(getattr(r, f.name) for r in reports) / n
                            for f in fields(MetricsReport)})
