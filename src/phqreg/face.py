"""Facial-landmark geometry pipeline.

Per frame: remove the 3D bias (subtract the centroid), rescale so the mean
distance of the 68 points to the origin is 1, then stack the 204 normalized
coordinates with all C(68,2) = 2278 pairwise Euclidean distances into a
2482-dim geometric vector. PCA (fitted on training frames, keeping >= 99.5%
of variance) reduces the dimension; sequences are downsampled to 1 Hz and cut
into sliding windows of W samples overlapped by O, discarding any window that
contains a failed-tracking frame (0-tolerance).

Memory: the distances are computed from the three (n, 68) coordinate planes,
so no (n, 2278, 3) gather is made. ``fit_pca`` takes the training frames as
row blocks (one per session) and concatenates them itself, so it owns the only
n x d matrix; it centres that matrix in place and drops it before the
eigen-solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import LandmarkSequence, N_LANDMARKS

GEOMETRIC_DIM = 3 * N_LANDMARKS + (N_LANDMARKS * (N_LANDMARKS - 1)) // 2  # 2482
DEFAULT_WINDOW = 60
DEFAULT_OVERLAP = 30
DEFAULT_VARIANCE_KEEP = 0.995


class DegenerateFrameError(ValueError):
    pass


def geometric_frames(seq: LandmarkSequence) -> np.ndarray:
    """Geometric vectors for every frame of a sequence, shape (n, 2482).

    Per frame: the 204 normalized coordinates (all x, all y, all z), then
    the 2278 pairwise distances of the normalized points.
    """
    pts = seq.points
    centered = pts - pts.mean(axis=1, keepdims=True)
    scale = np.linalg.norm(centered, axis=2).mean(axis=1)
    if np.any(scale == 0.0):
        bad = int(np.argmax(scale == 0.0))
        raise DegenerateFrameError(
            f"frame {bad} (timestamp {seq.timestamps[bad]:g} s) has all landmarks identical; cannot normalize"
        )
    normed = centered / scale[:, None, None]
    coords = normed.transpose(0, 2, 1).reshape(len(pts), -1)
    iu, ju = np.triu_indices(pts.shape[1], k=1)
    x, y, z = np.split(coords, 3, axis=1)
    dists = x[:, iu]
    dists -= x[:, ju]
    dists *= dists
    for plane in (y, z):  # x, y, z summed in the order of np.linalg.norm(..., axis=2): same bytes
        gaps = plane[:, iu]
        gaps -= plane[:, ju]
        gaps *= gaps
        dists += gaps
    return np.concatenate([coords, np.sqrt(dists, out=dists)], axis=1)


@dataclass(frozen=True)
class PcaProjection:
    """Mean vector + orthonormal component rows retaining >= DEFAULT_VARIANCE_KEEP."""

    mean: np.ndarray
    components: np.ndarray  # (q, d)
    explained_ratio: float  # cumulative ratio at q

    @property
    def q(self) -> int:
        return self.components.shape[0]

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean) @ self.components.T


def fit_pca(blocks) -> PcaProjection:
    """PCA by eigen-decomposition, keeping the smallest q with cumulative
    explained variance >= DEFAULT_VARIANCE_KEEP.

    ``blocks`` is an iterable of (rows, d) arrays, for example one session's
    frames each. The fit concatenates them into a matrix of its own, so the
    caller's arrays are never modified and a generator lets the caller keep
    no frames at all. That matrix is centred in place; with at least as many
    rows as columns it is dropped once the covariance is formed, so nothing
    of size n x d is alive during the eigen-solve. With fewer rows than
    columns the Gram trick is used and the centred matrix is kept, because
    the components are recovered from it. Covariance is 1/(n-1)-normalized.
    """
    X = np.concatenate(list(blocks), dtype=np.float64)
    if X.ndim != 2 or len(X) < 2:
        raise ValueError("need row blocks of a 2-d matrix with at least 2 rows")
    n, d = X.shape
    mean = X.mean(axis=0)
    X -= mean

    if n < d:
        gram = (X @ X.T) / (n - 1)
        evals, evecs = np.linalg.eigh(gram)
        order = np.argsort(evals)[::-1]
        evals, evecs = evals[order], evecs[:, order]
        keep = evals > max(evals.max(), 0.0) * 1e-12
        comps = (X.T @ evecs[:, keep]).T
        norms = np.linalg.norm(comps, axis=1)
        comps = comps / norms[:, None]
        evals = evals[keep]
    else:
        cov = X.T @ X
        del X
        cov /= n - 1
        evals, evecs = np.linalg.eigh(cov)
        del cov
        order = np.argsort(evals)[::-1]
        evals = evals[order]

    evals = np.clip(evals, 0.0, None)
    total = evals.sum()
    if total == 0.0:
        raise ValueError("zero-variance matrix; PCA undefined")
    ratios = np.cumsum(evals) / total
    q = int(np.searchsorted(ratios, DEFAULT_VARIANCE_KEEP - 1e-12) + 1)
    q = min(q, len(evals))
    comps = comps[:q] if n < d else evecs[:, order[:q]].T
    return PcaProjection(mean, comps, float(ratios[q - 1]))


@dataclass(frozen=True)
class WindowBatch:
    """PCA-projected sliding windows of one session, all tracking-clean."""

    windows: np.ndarray  # (n_windows, W, q)


def downsample_indices(timestamps: np.ndarray) -> np.ndarray:
    """Index of the frame nearest each integer second covered by the sequence."""
    ts = np.asarray(timestamps, dtype=np.float64)
    if len(ts) == 0:
        return np.array([], dtype=int)
    seconds = np.arange(np.ceil(ts[0]), np.floor(ts[-1]) + 1.0)
    idx = np.searchsorted(ts, seconds)
    lo = np.maximum(idx - 1, 0)
    hi = np.minimum(idx, len(ts) - 1)
    # ties go to the earlier frame
    return np.where(np.abs(ts[lo] - seconds) <= np.abs(ts[hi] - seconds), lo, hi)


def window_sequence(
    seq: LandmarkSequence,
    pca: PcaProjection,
    window: int = DEFAULT_WINDOW,
    overlap: int = DEFAULT_OVERLAP,
) -> WindowBatch:
    """1 Hz downsampling + sliding windows with the 0-tolerance success filter.

    Windows start every ``overlap`` samples; any window containing a sample
    whose source frame has success=False is discarded. An empty batch is a
    valid output.
    """
    if window < 1 or overlap < 1:
        raise ValueError("window and overlap must be positive")
    idx = downsample_indices(seq.timestamps)
    ok = seq.success[idx]
    feats = None  # projected lazily, only if some window survives
    kept = []
    for start in range(0, len(idx) - window + 1, overlap):
        if not ok[start : start + window].all():
            continue
        if feats is None:
            feats = pca.transform(geometric_frames(seq))[idx]
        kept.append(feats[start : start + window])
    if not kept:
        return WindowBatch(np.zeros((0, window, pca.q)))
    return WindowBatch(np.array(kept))


def aggregate_predictions(predictions) -> float:
    """Session score = arithmetic mean of its window-level predictions."""
    preds = np.asarray(predictions, dtype=np.float64)
    if preds.size == 0:
        raise ValueError("no window predictions to aggregate")
    return float(preds.mean())
