"""Relief feature weighting, top-k selection, and grid tuning by 3-fold CV.

The grid (GRID_THRESHOLDS x GRID_KS), the fold count CV_FOLDS (``cv`` uses
it too) and the cap of DEFAULT_N_MAX features are the paper's constants.

Multi-neighbor Relief on min-max-normalized features with Manhattan distance:
every instance contributes the mean per-feature difference to its k nearest
misses (other class) minus its k nearest hits (same class), accumulated as
weight_f += (sum_miss |diff| - sum_hit |diff|) / (n * k). Labels are binarized
at PHQ-8 >= 10 for the hit/miss neighbor search. Constant features get
weight 0.

The weights come from one pass over the rows: each row's n x d difference
block gives its distances and its neighbor sums, so memory is O(n * d), and
one neighbor ordering per row, cut at the largest k asked for, serves every
k (the per-k neighbor sums of ReliefF, Robnik-Sikonja & Kononenko, MLJ 2003).
Each k's sum is taken over its own slice of the ordering rather than as a
running prefix sum, which keeps the weights bit-identical to a per-k
computation: numpy sums a (k, 1) slice pairwise, not row by row.
"""

from __future__ import annotations

import logging

import numpy as np

from .corpus import PHQ8_DEPRESSED_CUTOFF
from .models import min_max_scale

logger = logging.getLogger(__name__)

DEFAULT_N_MAX = 20  # at most this many features are selected
GRID_THRESHOLDS = (0.02, 0.0, -0.02)
GRID_KS = (5, 10, 15, 20)
CV_FOLDS = 3


def binarize_labels(y) -> np.ndarray:
    """Depressed / non-depressed split at the standard PHQ-8 cutoff."""
    return (np.asarray(y, dtype=np.float64) >= PHQ8_DEPRESSED_CUTOFF).astype(int)


def _check_classes(y_class: np.ndarray, k: int) -> None:
    """Raise ValueError unless two classes are present, each with k+1 instances."""
    classes, counts = np.unique(y_class, return_counts=True)
    if len(classes) < 2:
        missing = min({0, 1} - set(classes.tolist()))
        raise ValueError(
            f"class {missing} has no instances; Relief needs neighbors from both classes "
            f"(1 = PHQ-8 >= {PHQ8_DEPRESSED_CUTOFF}, 0 = below)"
        )
    for cls, count in zip(classes, counts):
        if count < k + 1:
            raise ValueError(f"class {cls} has {count} instances, need at least k+1 = {k + 1}")


def relief_weights_by_k(X, y_class, ks) -> dict[int, np.ndarray]:
    """Relief weights for every k in ``ks`` from one pass over the rows.

    Requires two classes with max(ks)+1 instances each.
    """
    X = np.asarray(X, dtype=np.float64)
    y_class = np.asarray(y_class).astype(int)
    ks = [int(k) for k in ks]
    if X.ndim != 2 or len(X) != len(y_class):
        raise ValueError("X must be 2-d with one class label per row")
    if not ks or min(ks) < 1:
        raise ValueError("k must be >= 1")
    k_max = max(ks)
    _check_classes(y_class, k_max)

    Xn = min_max_scale(X, X.min(axis=0), X.max(axis=0))
    n, d = Xn.shape
    sums = {k: np.zeros(d) for k in ks}
    idx = np.arange(n)
    for i in range(n):
        diffs = np.abs(Xn - Xn[i])
        dist = diffs.sum(axis=1)
        same = y_class == y_class[i]
        hits = idx[same & (idx != i)]
        misses = idx[~same]
        # deterministic tie-break by original index
        hits = hits[np.lexsort((hits, dist[hits]))][:k_max]
        misses = misses[np.lexsort((misses, dist[misses]))][:k_max]
        for k, acc in sums.items():
            acc += diffs[misses[:k]].sum(axis=0) - diffs[hits[:k]].sum(axis=0)
    return {k: acc / (n * k) for k, acc in sums.items()}


def relief_weights(X, y_class, k: int) -> np.ndarray:
    """Relief weights for binary-class data; requires k+1 instances per class."""
    return relief_weights_by_k(X, y_class, (k,))[k]


def select_top(weights: np.ndarray, threshold: float) -> list[int]:
    """Indices with weight > threshold, best first, at most DEFAULT_N_MAX (ties by index)."""
    w = np.asarray(weights)
    above = [i for i in range(len(w)) if w[i] > threshold]
    above.sort(key=lambda i: (-w[i], i))
    if not above:
        logger.warning("relief selection empty: no weight above threshold %g", threshold)
    return above[:DEFAULT_N_MAX]


def stratified_folds(y_class, seed: int) -> list[np.ndarray]:
    """Deterministic stratified CV_FOLDS-fold assignment; returns per-fold index arrays.

    The round-robin offset carries over between classes so overall fold sizes
    differ by at most one.
    """
    y_class = np.asarray(y_class).astype(int)
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(CV_FOLDS)]
    offset = 0
    for cls in np.unique(y_class):
        members = np.where(y_class == cls)[0]
        rng.shuffle(members)
        for j, m in enumerate(members):
            folds[(offset + j) % CV_FOLDS].append(int(m))
        offset = (offset + len(members)) % CV_FOLDS
    return [np.array(sorted(f), dtype=int) for f in folds]


def tune_relief(X, y, fit, seed: int) -> tuple[float, int, dict]:
    """Pick the grid's (threshold, k) with the lowest mean fold MAE under CV_FOLDS-fold CV.

    ``fit(X, y)`` returns a fitted model with predict(X); Relief and the
    selection are refitted inside every fold on its training part only. The
    weights do not depend on the threshold, and one Relief pass serves every
    k, so they are computed once per fold for all feasible ks. Grid points
    whose folds cannot support k neighbors, or that select no features, score
    infinity and are logged.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    thresholds, ks = GRID_THRESHOLDS, GRID_KS
    y_class = binarize_labels(y)
    folds = stratified_folds(y_class, seed)
    trains = [np.setdiff1d(np.arange(len(y)), fold) for fold in folds]

    feasible = []
    for k in ks:
        try:
            for train in trains:
                _check_classes(y_class[train], k)
        except ValueError as exc:
            logger.info("k=%d skipped: %s", k, exc)
            continue
        feasible.append(k)
    fold_weights = [relief_weights_by_k(X[t], y_class[t], feasible) for t in trains] if feasible else []

    scores = {(th, k): float("inf") for k in ks for th in thresholds}
    for k in feasible:
        for th in thresholds:
            maes = []
            for train, fold, by_k in zip(trains, folds, fold_weights):
                sel = select_top(by_k[k], th)
                if not sel:
                    logger.info("grid point (th=%g, k=%d): empty selection", th, k)
                    break
                pred = fit(X[np.ix_(train, sel)], y[train]).predict(X[np.ix_(fold, sel)])
                maes.append(float(np.mean(np.abs(pred - y[fold]))))
            if len(maes) == len(folds):
                scores[(th, k)] = float(np.mean(maes))

    best = min(scores, key=lambda p: (scores[p], thresholds.index(p[0]), ks.index(p[1])))
    if not np.isfinite(scores[best]):
        raise ValueError("no feasible grid point: every (threshold, k) pair failed")
    return best[0], best[1], scores
