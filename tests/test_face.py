import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phqreg import face
from phqreg.corpus import LandmarkSequence, N_LANDMARKS
from phqreg.face import (
    GEOMETRIC_DIM,
    DegenerateFrameError,
    aggregate_predictions,
    downsample_indices,
    fit_pca,
    geometric_frames,
    window_sequence,
)


def normalize_landmarks(points: np.ndarray) -> np.ndarray:
    """One frame: center the cloud and scale it so the mean point norm is 1."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (n, 3) points, got {pts.shape}")
    centered = pts - pts.mean(axis=0)
    scale = np.linalg.norm(centered, axis=1).mean()
    if scale == 0.0:
        raise DegenerateFrameError("all landmarks identical; cannot normalize")
    return centered / scale


def geometric_vector(normalized: np.ndarray) -> np.ndarray:
    """One frame: 204 normalized coordinates (all x, all y, all z) + 2278 pairwise distances."""
    pts = np.asarray(normalized, dtype=np.float64)
    coords = pts.T.reshape(-1)
    iu, ju = np.triu_indices(len(pts), k=1)
    dists = np.linalg.norm(pts[iu] - pts[ju], axis=1)
    return np.concatenate([coords, dists])


def random_cloud(rng, n=N_LANDMARKS):
    return rng.normal(0, 30.0, (n, 3))


def gathered_geometric_frames(seq: LandmarkSequence) -> np.ndarray:
    """Batch geometry with the distances taken by gathering both points of every
    pair into (n, 2278, 3) arrays and reducing them with ``np.linalg.norm``."""
    pts = seq.points
    centered = pts - pts.mean(axis=1, keepdims=True)
    normed = centered / np.linalg.norm(centered, axis=2).mean(axis=1)[:, None, None]
    iu, ju = np.triu_indices(pts.shape[1], k=1)
    dists = np.linalg.norm(normed[:, iu, :] - normed[:, ju, :], axis=2)
    coords = normed.transpose(0, 2, 1).reshape(len(pts), -1)
    return np.concatenate([coords, dists], axis=1)


class TestNormalize:
    def test_two_point_symmetry(self):
        pts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        out = normalize_landmarks(pts)
        np.testing.assert_allclose(out, [[-1, 0, 0], [1, 0, 0]], atol=1e-15)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        pts = random_cloud(rng)
        np.testing.assert_allclose(normalize_landmarks(pts), normalize_landmarks(7.0 * pts), atol=1e-12)

    def test_random_cloud_invariants(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            out = normalize_landmarks(random_cloud(rng))
            assert np.linalg.norm(out.mean(axis=0)) < 1e-12
            assert abs(np.linalg.norm(out, axis=1).mean() - 1.0) < 1e-12

    def test_degenerate_frame(self):
        with pytest.raises(DegenerateFrameError):
            normalize_landmarks(np.ones((68, 3)))


class TestGeometricVector:
    def test_length_and_pair_count(self):
        rng = np.random.default_rng(2)
        vec = geometric_vector(normalize_landmarks(random_cloud(rng)))
        assert len(vec) == GEOMETRIC_DIM == 2482
        assert GEOMETRIC_DIM - 3 * 68 == 68 * 67 // 2 == 2278

    def test_distances_match_brute_force(self):
        rng = np.random.default_rng(3)
        pts = normalize_landmarks(random_cloud(rng))
        vec = geometric_vector(pts)
        dists = vec[204:]
        assert np.all(dists >= 0.0)
        k = 0
        for i in range(68):
            for j in range(i + 1, 68):
                want = float(np.sqrt(sum((pts[i][a] - pts[j][a]) ** 2 for a in range(3))))
                assert abs(dists[k] - want) < 1e-12
                k += 1

    def test_coordinate_layout(self):
        rng = np.random.default_rng(4)
        pts = normalize_landmarks(random_cloud(rng))
        vec = geometric_vector(pts)
        np.testing.assert_array_equal(vec[:68], pts[:, 0])
        np.testing.assert_array_equal(vec[68:136], pts[:, 1])
        np.testing.assert_array_equal(vec[136:204], pts[:, 2])

    def test_rigid_translation_and_scale_invariance(self):
        rng = np.random.default_rng(5)
        raw = random_cloud(rng)
        a = geometric_vector(normalize_landmarks(raw))
        b = geometric_vector(normalize_landmarks(3.5 * raw + np.array([10.0, -4.0, 2.0])))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rotation_not_invariant(self):
        rng = np.random.default_rng(6)
        raw = random_cloud(rng)
        th = 0.7
        rot = np.array([[np.cos(th), -np.sin(th), 0], [np.sin(th), np.cos(th), 0], [0, 0, 1]])
        a = geometric_vector(normalize_landmarks(raw))
        b = geometric_vector(normalize_landmarks(raw @ rot.T))
        # distances survive rotation, raw coordinates must not
        assert not np.allclose(a[:204], b[:204], atol=1e-6)
        np.testing.assert_allclose(a[204:], b[204:], atol=1e-9)

    def test_batch_matches_single_frame(self):
        rng = np.random.default_rng(7)
        pts = np.stack([random_cloud(rng) for _ in range(3)])
        seq = LandmarkSequence(np.arange(3.0), np.ones(3), np.ones(3, bool), pts)
        batch = geometric_frames(seq)
        for i in range(3):
            np.testing.assert_allclose(batch[i], geometric_vector(normalize_landmarks(pts[i])), atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 40),
        st.floats(1e-6, 1e6),
        st.integers(0, 2**32 - 1),
    )
    def test_batch_bytes_match_gathered_norm(self, n, scale, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(0.0, scale, (n, N_LANDMARKS, 3)) + rng.normal(0.0, 10.0 * scale, 3)
        seq = LandmarkSequence(np.arange(float(n)), np.ones(n), np.ones(n, bool), pts)
        got = geometric_frames(seq)
        assert got.shape == (n, GEOMETRIC_DIM)
        assert got.tobytes() == gathered_geometric_frames(seq).tobytes()


def pca_oracle_q(X, keep):
    """Independent eigen-solve via SVD of the centered matrix."""
    Xc = X - X.mean(axis=0)
    s = np.linalg.svd(Xc, compute_uv=False)
    lam = s**2 / (len(X) - 1)
    ratios = np.cumsum(lam) / lam.sum()
    return int(np.searchsorted(ratios, keep - 1e-12) + 1)


def fit_pca_keeping(blocks, keep):
    """fit_pca with DEFAULT_VARIANCE_KEEP set to ``keep`` for this one fit."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(face, "DEFAULT_VARIANCE_KEEP", keep)
        return fit_pca(blocks)


class TestPca:
    def test_exact_rank_recovery(self):
        rng = np.random.default_rng(8)
        basis = np.linalg.qr(rng.normal(size=(40, 3)))[0]  # (40, 3) orthonormal cols
        Z = rng.normal(size=(200, 3)) * np.array([3.0, 2.0, 1.5])
        X = Z @ basis.T
        pca = fit_pca([X])
        assert pca.q == 3
        assert pca.explained_ratio >= 0.995

    def test_isotropic_needs_all_dims(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(500, 10))
        pca = fit_pca([X])
        assert pca.q == 10
        assert pca.q == pca_oracle_q(X, 0.995)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(50, 12)) * np.linspace(3, 0.1, 12)
        pca = fit_pca_keeping([X], 0.9)
        gram = pca.components @ pca.components.T
        np.testing.assert_allclose(gram, np.eye(pca.q), atol=1e-9)

    def test_gram_trick_path_matches_oracle(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(20, 100))  # rows < columns
        pca = fit_pca([X])
        assert pca.q == pca_oracle_q(X, 0.995)
        gram = pca.components @ pca.components.T
        np.testing.assert_allclose(gram, np.eye(pca.q), atol=1e-9)

    def test_roundtrip_retains_variance(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(80, 30)) * np.linspace(5, 0.01, 30)
        pca = fit_pca([X])
        recon = pca.transform(X) @ pca.components + pca.mean
        total = ((X - X.mean(axis=0)) ** 2).sum()
        resid = ((X - recon) ** 2).sum()
        assert 1.0 - resid / total >= 0.995

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            fit_pca([np.ones((5, 4))])

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            fit_pca([np.ones((1, 4))])

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(60, 8), (12, 30)]), st.integers(0, 2**32 - 1), st.data())
    def test_any_row_split_gives_the_same_bytes(self, shape, seed, data):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=shape) * np.linspace(4.0, 0.1, shape[1])
        cuts = sorted(data.draw(st.lists(st.integers(0, shape[0]), max_size=6)))
        blocks = np.split(X, cuts)
        copies = [b.copy() for b in blocks]
        whole, split = fit_pca_keeping([X], 0.99), fit_pca_keeping(blocks, 0.99)
        for b, c in zip(blocks, copies):
            assert b.tobytes() == c.tobytes()
        assert split.mean.tobytes() == whole.mean.tobytes()
        assert split.components.tobytes() == whole.components.tobytes()
        assert split.explained_ratio == whole.explained_ratio

    def test_bare_matrix_rejected(self):
        # a 2-d array iterates as 1-d rows, which concatenate to a vector
        with pytest.raises(ValueError):
            fit_pca(np.random.default_rng(15).normal(size=(20, 4)))

    def test_no_n_by_d_array_alive_during_eigen_solve(self, monkeypatch):
        n, d = 4000, 60
        rng = np.random.default_rng(16)
        traced_at_solve = []
        eigh = np.linalg.eigh

        def traced_eigh(a, *args, **kwargs):
            traced_at_solve.append(tracemalloc.get_traced_memory()[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", traced_eigh)
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            pca = fit_pca(rng.normal(size=(n // 8, d)) for _ in range(8))
        finally:
            tracemalloc.stop()
        assert pca.components.shape[1] == d
        assert len(traced_at_solve) == 1
        assert traced_at_solve[0] - baseline < n * d * 8


def make_sequence(n_seconds, fps=1.0, fail_at=(), rng=None):
    rng = rng or np.random.default_rng(0)
    n = int(n_seconds * fps)
    ts = np.arange(n) / fps
    pts = rng.normal(0, 20, (1, N_LANDMARKS, 3)) + rng.normal(0, 1.0, (n, N_LANDMARKS, 3))
    success = np.ones(n, bool)
    for i in fail_at:
        success[i] = False
    return LandmarkSequence(ts, np.ones(n), success, pts)


def downsample_oracle(timestamps) -> list[int]:
    """Per-second loop: the frame nearest each integer second covered, ties to the earlier frame."""
    ts = np.asarray(timestamps, dtype=np.float64)
    if len(ts) == 0:
        return []
    seconds = np.arange(np.ceil(ts[0]), np.floor(ts[-1]) + 1.0)
    out = []
    for s, i in zip(seconds, np.searchsorted(ts, seconds)):
        lo, hi = max(i - 1, 0), min(i, len(ts) - 1)
        out.append(lo if abs(ts[lo] - s) <= abs(ts[hi] - s) else hi)
    return out


def window_oracle(n_samples, success, W, O):
    """Enumerate window starts and apply the 0-tolerance rule directly."""
    starts = []
    s = 0
    while s + W <= n_samples:
        if all(success[s : s + W]):
            starts.append(s)
        s += O
    return starts


def windows_oracle(seq, pca, W, O):
    """The expected window starts and the (n, W, q) windows cut at them from the projected 1 Hz samples."""
    idx = downsample_oracle(seq.timestamps)
    starts = window_oracle(len(idx), seq.success[idx], W, O)
    feats = pca.transform(geometric_frames(seq))[idx]
    return starts, np.array([feats[s : s + W] for s in starts]).reshape(len(starts), W, pca.q)


class TestWindows:
    def fitted_pca(self):
        rng = np.random.default_rng(13)
        seq = make_sequence(30, rng=rng)
        return fit_pca_keeping([geometric_frames(seq)], 0.9)

    def test_120_clean_samples_three_windows(self):
        seq = make_sequence(120)
        pca = self.fitted_pca()
        batch = window_sequence(seq, pca, 60, 30)
        starts, want = windows_oracle(seq, pca, 60, 30)
        assert starts == [0, 30, 60]
        assert batch.windows.shape == (3, 60, pca.q)
        assert batch.windows.tobytes() == want.tobytes()

    def test_failure_at_45_discards_overlapping_windows(self):
        seq = make_sequence(120, fail_at=[45])
        pca = self.fitted_pca()
        batch = window_sequence(seq, pca, 60, 30)
        starts, want = windows_oracle(seq, pca, 60, 30)
        assert starts == [60]
        assert batch.windows.shape == (1, 60, pca.q)
        assert batch.windows.tobytes() == want.tobytes()

    def test_59_samples_no_windows(self):
        seq = make_sequence(59)
        batch = window_sequence(seq, self.fitted_pca(), 60, 30)
        assert len(batch.windows) == 0

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(14)
        pca = self.fitted_pca()
        for trial in range(10):
            n = int(rng.integers(50, 200))
            fails = rng.choice(n, size=rng.integers(0, 6), replace=False)
            seq = make_sequence(n, fail_at=fails, rng=np.random.default_rng(trial))
            batch = window_sequence(seq, pca, 60, 30)
            _, want = windows_oracle(seq, pca, 60, 30)
            assert batch.windows.shape == want.shape
            assert batch.windows.tobytes() == want.tobytes()

    def test_downsampling_picks_nearest_frame(self):
        ts = np.array([0.0, 0.4, 1.1, 1.9, 3.05])
        idx = downsample_indices(ts)
        # seconds 0,1,2,3 -> nearest frames
        assert idx.tolist() == [0, 2, 3, 4]

    def test_downsampling_ties_and_single_frames(self):
        assert downsample_indices(np.array([0.5, 1.5, 2.5])).tolist() == [0, 1]  # each second is a tie
        assert downsample_indices(np.array([3.0])).tolist() == [0]
        assert downsample_indices(np.array([3.5])).tolist() == []
        assert downsample_indices(np.array([])).tolist() == []

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            # quarter seconds: a frame on each side of a second at the same distance is a tie
            st.lists(st.integers(-8, 120), min_size=1, max_size=40, unique=True).map(lambda q: np.sort(q) / 4.0),
            st.lists(st.floats(-5.0, 60.0), min_size=1, max_size=40, unique=True).map(np.sort),
        )
    )
    def test_downsampling_matches_per_second_loop(self, ts):
        idx = downsample_indices(ts)
        assert idx.dtype == np.array([], dtype=int).dtype
        assert idx.tolist() == downsample_oracle(ts)

    def test_no_failed_samples_inside_windows(self):
        rng = np.random.default_rng(15)
        pca = self.fitted_pca()
        seq = make_sequence(150, fail_at=rng.choice(150, 10, replace=False))
        batch = window_sequence(seq, pca, 60, 30)
        starts, want = windows_oracle(seq, pca, 60, 30)
        assert batch.windows.shape == want.shape and batch.windows.tobytes() == want.tobytes()
        idx = downsample_oracle(seq.timestamps)
        for s in starts:
            assert seq.success[idx[s : s + 60]].all()


class TestAggregate:
    def test_mean(self):
        assert aggregate_predictions([4.0, 6.0]) == 5.0

    def test_single(self):
        assert aggregate_predictions([3.3]) == 3.3

    def test_matches_brute_force(self):
        rng = np.random.default_rng(16)
        preds = rng.normal(0, 5, 100)
        want = sum(float(p) for p in preds) / 100.0
        assert aggregate_predictions(preds) == pytest.approx(want, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_predictions([])
