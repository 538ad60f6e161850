"""Inter-annotator reliability: Krippendorff's alpha and Cohen's kappa.

Alpha reads annotations as load_annotations returns them, a dict of item
id -> ((annotator id, label), ...); kappa reads two raters' paired labels.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def krippendorff_alpha(annotations: dict[str, tuple[tuple[str, int], ...]]) -> float | None:
    """Nominal-data alpha via the coincidence-matrix formulation.

    Items with fewer than two annotations are excluded. Returns None when
    nothing is pairable (alpha is not computable); returns exactly 1.0 for
    perfect agreement.
    """
    units = [np.array([label for _, label in anns])
             for anns in annotations.values() if len(anns) >= 2]
    if not units:
        return None

    coincidence = np.zeros((2, 2))
    for values in units:
        m = len(values)
        counts = np.bincount(values, minlength=2).astype(np.float64)
        pairs = np.outer(counts, counts) - np.diag(counts)  # ordered pairs
        coincidence += pairs / (m - 1)

    n = coincidence.sum()
    if n <= 1:
        return 1.0
    margins = coincidence.sum(axis=1)
    observed_disagreement = (coincidence.sum() - np.trace(coincidence)) / n
    expected_disagreement = (margins.sum() ** 2 - (margins ** 2).sum()) / (n * (n - 1))
    if expected_disagreement == 0:
        return 1.0
    return float(1.0 - observed_disagreement / expected_disagreement)


def cohen_kappa(a: Sequence[int], b: Sequence[int]) -> float:
    """Two-rater chance-corrected agreement.

    kappa = (p_o - p_e) / (1 - p_e); when p_e = 1 the statistic degenerates
    and is defined as 1.0 for perfect agreement, else 0.0.
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValueError("need at least one paired rating")
    a = np.asarray(a)
    b = np.asarray(b)
    n = len(a)
    p_o = float((a == b).sum()) / n
    p_e = 0.0
    for cls in (0, 1):
        p_e += (float((a == cls).sum()) / n) * (float((b == cls).sum()) / n)
    if p_e >= 1.0:
        return 1.0 if p_o == 1.0 else 0.0
    return (p_o - p_e) / (1.0 - p_e)
