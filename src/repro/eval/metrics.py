"""Regression metrics and significance testing (Table II)."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def rmse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Root mean squared error — the paper's headline metric."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        return float("nan")
    return float(np.sqrt(np.mean((y_true - y_pred) ** 2)))


def mae(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean absolute error."""
    return float(np.mean(np.abs(np.asarray(y_true) - np.asarray(y_pred))))


def r2(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    ss_res = float(np.sum((y_true - y_pred) ** 2))
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")


def paired_significance(
    y_true: np.ndarray, pred_a: np.ndarray, pred_b: np.ndarray
) -> Tuple[float, float]:
    """Paired t-test on squared errors of two models (Table II asterisks).

    Returns (t statistic, p value); a small p with a negative t means
    model A's errors are significantly smaller than model B's.
    """
    # scipy.stats alone takes most of a second to import; only the
    # Table-II significance column needs it, so nothing else pays.
    from scipy import stats

    err_a = (np.asarray(y_true) - np.asarray(pred_a)) ** 2
    err_b = (np.asarray(y_true) - np.asarray(pred_b)) ** 2
    t, p = stats.ttest_rel(err_a, err_b)
    return float(t), float(p)
