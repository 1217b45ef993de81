"""Continual-learning metrics and expected calibration error.

R[i][j] is accuracy on task j after sequentially training through task i
(lower-triangular); r_ind[j] is the single-task reference accuracy.
FWT/BWT sums run over every task index, so R[0][0] is not assumed to
equal r_ind[0].
"""

from __future__ import annotations

import numpy as np


def _check_matrix(r):
    t = len(r)
    if t == 0:
        raise ValueError("empty result matrix")
    for i, row in enumerate(r):
        if len(row) != i + 1:
            raise ValueError(f"row {i} has {len(row)} entries, expected {i + 1}")
    return t


def acc(r) -> float:
    """Mean accuracy over all tasks after the final one was trained."""
    t = _check_matrix(r)
    return float(np.mean(r[t - 1]))


def bwt(r) -> float:
    """Mean accuracy change between when a task was learned and the end."""
    t = _check_matrix(r)
    return float(np.mean([r[t - 1][j] - r[j][j] for j in range(t)]))


def fwt(r, r_ind) -> float:
    """Mean gain of just-learned accuracy over independent training."""
    t = _check_matrix(r)
    if len(r_ind) != t:
        raise ValueError("r_ind length does not match matrix")
    return float(np.mean([r[j][j] - r_ind[j] for j in range(t)]))


def net_gain(r, r_ind) -> float:
    """Total gain over separate training: FWT + BWT."""
    return fwt(r, r_ind) + bwt(r)


def calibration_curve(confidences, correctness, bins=15):
    """Per-bin (index, mean confidence, accuracy, count) rows over
    equal-width confidence bins; an empty bin has NaN means."""
    confidences = np.asarray(confidences, dtype=np.float64)
    correctness = np.asarray(correctness, dtype=np.float64)
    if confidences.size == 0:
        raise ValueError("calibration: empty input")
    if confidences.shape != correctness.shape:
        raise ValueError("calibration: confidence and correctness lengths differ")
    edges = np.linspace(0.0, 1.0, bins + 1)
    idx = np.clip(np.digitize(confidences, edges[1:-1]), 0, bins - 1)
    rows = []
    for b in range(bins):
        mask = idx == b
        nb = int(mask.sum())
        if nb == 0:
            rows.append((b, float("nan"), float("nan"), 0))
        else:
            rows.append((b, float(confidences[mask].mean()), float(correctness[mask].mean()), nb))
    return rows


def ece(confidences, correctness, bins=15):
    """Expected calibration error: the count-weighted mean |confidence -
    accuracy| over `calibration_curve`'s bins."""
    rows = calibration_curve(confidences, correctness, bins)
    n = sum(nb for *_, nb in rows)
    return float(sum(nb / n * abs(conf - hit) for _, conf, hit, nb in rows if nb))
