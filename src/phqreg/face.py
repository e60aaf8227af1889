"""Facial-landmark geometry pipeline.

Per frame: remove the 3D bias (subtract the centroid), rescale so the mean
distance of the 68 points to the origin is 1, then stack the 204 normalized
coordinates with all C(68,2) = 2278 pairwise Euclidean distances into a
2482-dim geometric vector. PCA (fitted on training frames, keeping >= 99.5%
of variance) reduces the dimension; sequences are downsampled to 1 Hz and cut
into sliding windows of W samples overlapped by O, discarding any window that
contains a failed-tracking frame (0-tolerance).

Memory and time: geometric_frames writes the distances into the (n, 2482)
result one point at a time, from row slices of the three coordinate planes
with the frames along the contiguous axis, so no gather of point pairs is
made and its work buffer holds 3 x 67 rows of the frames. window_sequence
computes distances only for the 1 Hz samples it keeps, and sampled_frames
keeps just the frames it reads, so a caller can cut a session's windows
after the PCA fit without reading its landmarks again. ``fit_pca`` appends
the training frames' row blocks to one n x d matrix of its own as they
arrive, so a caller that passes a generator holds one block at a time; it
centres that matrix in place and drops it before the eigen-solve.

Eigen-solve: a block Krylov method (_leading_eigenpairs) computes only the
leading eigenpairs that reach DEFAULT_VARIANCE_KEEP of the covariance's
trace, from a start block with a fixed seed, so the fit does not depend on
the run seed. Beyond the matrix it solves, it holds a basis of at most half
the matrix's order and that basis's projection of the matrix; a spectrum too
flat to converge within that basis falls back to ``np.linalg.eigh`` of the
whole matrix. Each component's
largest-magnitude loading is positive, so its sign does not depend on the
solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import LandmarkSequence, N_LANDMARKS

GEOMETRIC_DIM = 3 * N_LANDMARKS + (N_LANDMARKS * (N_LANDMARKS - 1)) // 2  # 2482
DEFAULT_WINDOW = 60
DEFAULT_OVERLAP = 30
DEFAULT_VARIANCE_KEEP = 0.995


def normalized_coords(points: np.ndarray) -> np.ndarray:
    """The 204 normalized coordinates of each frame of (n, 68, 3) points (all x, all y, all z), shape (n, 204).

    Each frame is centred on its centroid and scaled so that the mean
    distance of its points to the origin is 1. corpus.load_landmarks refuses
    the frames that cannot be scaled: points that coincide or lie beyond corpus.FAR_MM.
    """
    centered = points - points.mean(axis=1, keepdims=True)
    normed = centered / np.linalg.norm(centered, axis=2).mean(axis=1)[:, None, None]
    return normed.transpose(0, 2, 1).reshape(len(points), 3 * N_LANDMARKS)


def geometric_frames(coords: np.ndarray) -> np.ndarray:
    """Geometric vectors of frames given by their normalized_coords, shape (n, 2482).

    Per frame: the 204 normalized coordinates, then the 2278 pairwise
    distances of the normalized points, in np.triu_indices order. Point p's
    distances to points p+1..67 come from one row slice of each coordinate
    plane, with the frames along the contiguous axis so that every inner
    loop runs over the frames, and are written into the result: no gather
    of point pairs and no concatenate.
    """
    n = len(coords)
    out = np.empty((n, GEOMETRIC_DIM))
    out[:, : 3 * N_LANDMARKS] = coords
    planes = np.ascontiguousarray(coords.T).reshape(3, N_LANDMARKS, n)  # (plane, point, frame)
    squares = np.empty((3, N_LANDMARKS - 1, n))
    lo = 3 * N_LANDMARKS
    for p in range(N_LANDMARKS - 1):
        sq = squares[:, : N_LANDMARKS - 1 - p]
        np.subtract(planes[:, p : p + 1], planes[:, p + 1 :], out=sq)
        sq *= sq
        dists = sq[0]
        dists += sq[1]  # x, y, z summed in the order of np.linalg.norm(..., axis=2): same bytes
        dists += sq[2]
        np.sqrt(dists.T, out=out[:, lo : lo + len(dists)])
        lo += len(dists)
    return out


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
    """PCA keeping the smallest q with cumulative explained variance >= DEFAULT_VARIANCE_KEEP.

    ``blocks`` is an iterable of (rows, d) arrays, for example a few hundred
    frames of one session each. The fit appends each block to one matrix of
    its own as it arrives, so the caller's arrays are never modified, and a
    generator's blocks are dropped once copied: the frames are held once,
    plus the block being copied. That matrix is centred in place and dropped
    once the covariance is formed, so nothing of size n x d is alive during
    the eigen-solve. Covariance is 1/(n-1)-normalized and solved with
    _leading_eigenpairs, whatever the shape (a training split holds far more
    frames than the 2482 columns). Each component's sign is fixed: its
    largest-magnitude loading is positive.
    """
    X = None
    for block in blocks:
        block = np.asarray(block)
        if block.ndim != 2 or (X is not None and block.shape[1] != X.shape[1]):
            raise ValueError("need row blocks of a 2-d matrix with at least 2 rows")
        if X is None:
            X = np.empty((0, block.shape[1]))
        n = len(X)
        # grown by realloc, which remaps a large matrix rather than copying it
        X.resize((n + len(block), X.shape[1]), refcheck=False)
        X[n:] = block
    block = None
    if X is None or len(X) < 2:
        raise ValueError("need row blocks of a 2-d matrix with at least 2 rows")
    n = len(X)
    mean = X.mean(axis=0)
    X -= mean

    cov = X.T @ X
    del X
    cov /= n - 1
    comps, ratio = _leading_eigenpairs(cov)
    del cov
    comps *= np.sign(comps[np.arange(len(comps)), np.argmax(np.abs(comps), axis=1)])[:, None]
    return PcaProjection(mean, comps, ratio)


# Block Krylov solve of _leading_eigenpairs: directions added per step, and the residual, relative to the
# largest Ritz value, that every kept Ritz pair must reach
KRYLOV_BLOCK = 32
KRYLOV_TOL = 1e-12
# fixed, so the start block and the fit never depend on the run seed
KRYLOV_SEED = 20170918


def _kept_pairs(evals: np.ndarray, total: float) -> tuple[int, np.ndarray]:
    """How many of the descending ``evals`` reach DEFAULT_VARIANCE_KEEP of ``total``, and the cumulative ratios.

    Negative eigenvalues (rounding of a semi-definite matrix) count as 0,
    and a pair at most 1e-12 of the largest eigenvalue is never kept.
    """
    ratios = np.cumsum(np.clip(evals, 0.0, None)) / total
    q = int(np.searchsorted(ratios, DEFAULT_VARIANCE_KEEP - 1e-12) + 1)
    return min(q, int(np.count_nonzero(evals > evals[0] * 1e-12))), ratios


def _leading_eigenpairs(a: np.ndarray) -> tuple[np.ndarray, float]:
    """The leading eigenvectors of a symmetric positive semi-definite matrix that reach
    DEFAULT_VARIANCE_KEEP of its trace, as rows in descending eigenvalue order, and
    the share of the trace they explain.

    Block Krylov (block Lanczos) with full reorthogonalization: from a start
    block drawn with KRYLOV_SEED, each step adds A times the newest block of
    KRYLOV_BLOCK directions, orthogonalized against the whole basis. Once
    the basis holds the share of the trace, each step also makes a
    Rayleigh-Ritz solve of the basis, and the solve stops when the Ritz
    values reach the share and every kept Ritz pair has a residual of at
    most KRYLOV_TOL times the largest Ritz value. A new direction that is
    rounding noise (as of a rank-deficient matrix) is dropped, and the kept
    ones are orthogonalized against the basis again, so the basis stays
    orthonormal. When the basis would grow past half of the matrix's order,
    or no new direction is left, the whole matrix is solved with
    ``np.linalg.eigh`` instead: a flat spectrum converges no faster than
    that, and a small matrix costs little.
    """
    d = len(a)
    total = float(np.trace(a))
    if total <= 0.0:
        raise ValueError("zero-variance matrix; PCA undefined")
    limit = d // 2
    basis = np.empty((limit, d))  # orthonormal rows
    ritz = np.empty((limit, limit))  # basis @ a @ basis.T
    block = np.linalg.qr(np.random.default_rng(KRYLOV_SEED).standard_normal((d, KRYLOV_BLOCK)))[0].T
    m = 0
    while 0 < len(block) <= limit - m:
        b = len(block)
        basis[m : m + b] = block
        m += b
        V = basis[:m]
        resid = block @ a
        scale = np.linalg.norm(resid)
        proj = V @ resid.T
        ritz[:m, m - b : m] = proj
        ritz[m - b : m, :m] = proj.T
        resid -= proj.T @ V  # the part of A times the block outside the basis
        p, sig, r = np.linalg.svd(resid, full_matrices=False)
        # the Ritz values sum to the trace of ritz: below the share, no solve of this basis can stop
        if np.trace(ritz[:m, :m]) >= (DEFAULT_VARIANCE_KEEP - 1e-12) * total:
            theta, s = np.linalg.eigh(ritz[:m, :m])
            theta, s = theta[::-1], s[:, ::-1]
            q, ratios = _kept_pairs(theta, total)
            # A @ (V.T @ s) - theta * (V.T @ s) is resid.T @ s[m - b:], whose norm is this
            norms = np.linalg.norm(sig[:, None] * (p.T @ s[m - b :, :q]), axis=0)
            if ratios[q - 1] >= DEFAULT_VARIANCE_KEEP - 1e-12 and np.all(norms <= KRYLOV_TOL * theta[0]):
                return s[:, :q].T @ V, float(ratios[q - 1])
        block = r[sig > 0.01 * KRYLOV_TOL * scale]  # the rest is rounding noise of the projection
        if len(block):
            block = np.linalg.qr((block - (block @ V.T) @ V).T)[0].T
    evals, evecs = np.linalg.eigh(a)
    q, ratios = _kept_pairs(evals[::-1], total)
    return evecs[:, ::-1][:, :q].T.copy(), float(ratios[q - 1])  # a copy, so the d x d evecs are freed


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


def sampled_frames(seq: LandmarkSequence) -> LandmarkSequence:
    """The frames of ``seq`` that downsample_indices samples, with its first and last frame.

    They cover the same seconds, and the frame nearest each second is the
    same frame, so window_sequence cuts the same windows from them as from
    ``seq``.
    """
    if len(seq) == 0:
        return seq
    keep = np.unique(np.r_[0, downsample_indices(seq.timestamps), len(seq) - 1])
    return LandmarkSequence(seq.timestamps[keep], seq.confidence[keep], seq.success[keep], seq.points[keep])


def window_sequence(
    seq: LandmarkSequence,
    pca: PcaProjection,
    window: int = DEFAULT_WINDOW,
    overlap: int = DEFAULT_OVERLAP,
) -> WindowBatch:
    """1 Hz downsampling + sliding windows with the 0-tolerance success filter.

    Windows start every ``overlap`` samples; any window containing a sample
    whose source frame has success=False is discarded. An empty batch is a
    valid output. Only the 1 Hz samples are normalized, get distances and
    a projection, and only when some window survives.
    """
    if window < 1 or overlap < 1:
        raise ValueError("window and overlap must be positive")
    idx = downsample_indices(seq.timestamps)
    ok = seq.success[idx]
    starts = [s for s in range(0, len(idx) - window + 1, overlap) if ok[s : s + window].all()]
    if not starts:
        return WindowBatch(np.zeros((0, window, pca.q)))
    feats = pca.transform(geometric_frames(normalized_coords(seq.points[idx])))
    return WindowBatch(np.array([feats[s : s + window] for s in starts]))
