"""Regression evaluation metrics: RMSE, MAE and the explained-variance score.

The explained-variance score is ``1 - Var(y - yhat) / Var(y)`` with population
variance (divide by n); its upper bound 1 corresponds to perfect modeling.
"""

from __future__ import annotations

import numpy as np


class MetricError(ValueError):
    pass


def _check_pair(y, yhat, min_len=1):
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape or y.ndim != 1:
        raise MetricError(f"y and yhat must be 1-d of equal length, got {y.shape} vs {yhat.shape}")
    if len(y) < min_len:
        raise MetricError(f"need at least {min_len} values, got {len(y)}")
    return y, yhat


def rmse(y, yhat) -> float:
    y, yhat = _check_pair(y, yhat)
    return float(np.sqrt(np.mean((y - yhat) ** 2)))


def mae(y, yhat) -> float:
    y, yhat = _check_pair(y, yhat)
    return float(np.mean(np.abs(y - yhat)))


def _pvar(v: np.ndarray) -> float:
    return float(np.mean((v - np.mean(v)) ** 2))


def evs(y, yhat) -> float:
    """Explained-variance score; undefined (raises) when Var(y) = 0."""
    y, yhat = _check_pair(y, yhat, min_len=2)
    vy = _pvar(y)
    if vy == 0.0:
        raise MetricError("EVS undefined: Var(y) is zero")
    return 1.0 - _pvar(y - yhat) / vy
