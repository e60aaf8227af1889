import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phqreg import face
from phqreg.corpus import COINCIDENT_MM, FAR_MM, LandmarkSequence, N_LANDMARKS
from phqreg.face import (
    GEOMETRIC_DIM,
    downsample_indices,
    fit_pca,
    geometric_frames,
    normalized_coords,
    sampled_frames,
    window_sequence,
)


def normalize_landmarks(points: np.ndarray) -> np.ndarray:
    """One frame: center the cloud and scale it so the mean point norm is 1."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (n, 3) points, got {pts.shape}")
    centered = pts - pts.mean(axis=0)
    return centered / np.linalg.norm(centered, axis=1).mean()


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

    def test_smallest_spread_the_loader_accepts(self):
        """One point COINCIDENT_MM from the 67 others on one axis: the frame still scales to a mean norm of 1."""
        points = np.zeros((1, N_LANDMARKS, 3))
        points[0, 0, 0] = COINCIDENT_MM
        normed = normalized_coords(points).reshape(3, N_LANDMARKS).T
        assert np.isfinite(normed).all()
        assert abs(np.linalg.norm(normed, axis=1).mean() - 1.0) < 1e-12

    def test_farthest_points_the_loader_accepts(self):
        """Points at +-FAR_MM on every axis: the squares normalization sums stay finite, with no overflow warning."""
        points = np.where(np.random.default_rng(5).random((1, N_LANDMARKS, 3)) < 0.5, -FAR_MM, FAR_MM)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            normed = normalized_coords(points).reshape(3, N_LANDMARKS).T
        assert abs(np.linalg.norm(normed, axis=1).mean() - 1.0) < 1e-12


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
        batch = geometric_frames(normalized_coords(seq.points))
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
        got = geometric_frames(normalized_coords(seq.points))
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


def eigh_pca_oracle(X, keep) -> face.PcaProjection:
    """PCA by the full np.linalg.eigh of the covariance, or of the Gram matrix when n < d (the smaller solve).

    Every eigenpair is computed; the kept rows are the leading eigenvectors
    whose clipped eigenvalues reach ``keep`` of their sum, in eigh's own
    signs.
    """
    n, d = X.shape
    Xc = X - X.mean(axis=0)
    evals, evecs = np.linalg.eigh((Xc @ Xc.T if n < d else Xc.T @ Xc) / (n - 1))
    evals, evecs = np.clip(evals[::-1], 0.0, None), evecs[:, ::-1]
    ratios = np.cumsum(evals) / evals.sum()
    q = int(np.searchsorted(ratios, keep - 1e-12) + 1)
    comps = evecs[:, :q].T
    if n < d:
        comps = comps @ Xc
        comps /= np.linalg.norm(comps, axis=1)[:, None]
    return face.PcaProjection(X.mean(axis=0), comps, float(ratios[q - 1]))


def spectrum_matrix(rng, n, d, scales):
    """n x d rows around a random mean whose covariance has eigenvalues scales**2 / (n - 1), on random directions."""
    k = len(scales)
    U = rng.normal(size=(n, k))
    U = np.linalg.qr(U - U.mean(axis=0))[0]
    B = np.linalg.qr(rng.normal(size=(d, k)))[0]
    return (U * scales) @ B.T + rng.normal(size=d)


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

    def test_fewer_rows_than_columns_matches_oracle(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(20, 100))  # rows < columns: the covariance has rank 19
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
        """A list of blocks, or a generator of them, fits the bytes of the one concatenated matrix."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=shape) * np.linspace(4.0, 0.1, shape[1])
        cuts = sorted(data.draw(st.lists(st.integers(0, shape[0]), max_size=6)))
        blocks = np.split(X, cuts)
        copies = [b.copy() for b in blocks]
        whole, split = fit_pca_keeping([X], 0.99), fit_pca_keeping(blocks, 0.99)
        streamed = fit_pca_keeping((b.copy() for b in blocks), 0.99)
        for b, c in zip(blocks, copies):
            assert b.tobytes() == c.tobytes()
        for fit in (split, streamed):
            assert fit.mean.tobytes() == whole.mean.tobytes()
            assert fit.components.tobytes() == whole.components.tobytes()
            assert fit.explained_ratio == whole.explained_ratio

    def test_bare_matrix_rejected(self):
        # a 2-d array iterates as 1-d rows, which concatenate to a vector
        with pytest.raises(ValueError):
            fit_pca(np.random.default_rng(15).normal(size=(20, 4)))

    def test_no_n_by_d_array_alive_during_eigen_solve(self, monkeypatch):
        """At the solve, what is alive beyond the covariance is smaller than the n x d frames, whichever is wider."""
        rng = np.random.default_rng(16)
        solve = face._leading_eigenpairs

        def traced_solve(a):
            traced_at_solve.append(tracemalloc.get_traced_memory()[0] - a.nbytes)
            return solve(a)

        monkeypatch.setattr(face, "_leading_eigenpairs", traced_solve)
        for n, d in ((4000, 60), (200, 600)):
            traced_at_solve = []
            tracemalloc.start()
            try:
                baseline = tracemalloc.get_traced_memory()[0]
                pca = fit_pca(rng.normal(size=(n // 8, d)) for _ in range(8))
            finally:
                tracemalloc.stop()
            assert pca.components.shape[1] == d
            assert len(traced_at_solve) == 1
            assert traced_at_solve[0] - baseline < n * d * 8, (n, d)

    @settings(max_examples=24, deadline=None)
    @given(st.sampled_from(["decaying", "flat", "exact-rank", "n<d"]), st.integers(0, 2**32 - 1))
    def test_matches_the_eigh_oracle(self, kind, seed):
        """The block Krylov solve gives the full eigh's q, ratio and components, with a fixed sign and bytes.

        Decaying and exact-rank spectra, with fewer rows than columns or not,
        converge in a basis of at most half the covariance's order d; a flat
        one falls back to eigh on the whole covariance. A Ritz solve's order
        can equal n, so the fallback is told by order d.
        """
        rng = np.random.default_rng(seed)
        n, d = {"decaying": (520, 340), "flat": (300, 160), "exact-rank": (360, 260), "n<d": (360, 520)}[kind]
        n, d = n + int(rng.integers(0, 40)), d + int(rng.integers(0, 40))
        if kind == "flat":
            X = rng.normal(size=(n, d)) + rng.normal(size=d)
        else:
            k = int(rng.integers(5, 41)) if kind == "exact-rank" else min(n - 1, d)
            X = spectrum_matrix(rng, n, d, rng.uniform(0.5, 0.8) ** np.arange(k))
            if kind != "exact-rank":
                X += 1e-4 * rng.normal(size=(n, d))
        want = eigh_pca_oracle(X, face.DEFAULT_VARIANCE_KEEP)
        orders = []
        with pytest.MonkeyPatch.context() as m:
            eigh = np.linalg.eigh
            m.setattr(np.linalg, "eigh", lambda a: orders.append(len(a)) or eigh(a))
            got = fit_pca([X])
        assert (d in orders) == (kind == "flat")
        assert got.q == want.q
        assert abs(got.explained_ratio - want.explained_ratio) <= 1e-12
        signs = np.sign(np.sum(got.components * want.components, axis=1))[:, None]
        np.testing.assert_allclose(got.components, signs * want.components, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(got.components @ got.components.T, np.eye(got.q), rtol=0.0, atol=1e-12)
        rows = np.arange(got.q)
        assert np.all(got.components[rows, np.argmax(np.abs(got.components), axis=1)] > 0.0)
        again = fit_pca([X])
        assert again.components.tobytes() == got.components.tobytes()
        assert again.mean.tobytes() == got.mean.tobytes() and again.explained_ratio == got.explained_ratio


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
    feats = pca.transform(geometric_frames(normalized_coords(seq.points)))[idx]
    return starts, np.array([feats[s : s + W] for s in starts]).reshape(len(starts), W, pca.q)


# gaps of whole seconds, (first second, length): a frame on either side stands in for each missing second
GAPS = st.lists(st.tuples(st.integers(0, 40), st.integers(1, 4)), max_size=3)


def without_gaps(seq, gaps):
    """``seq`` without the frames timed within any of ``gaps``."""
    keep = np.ones(len(seq), bool)
    for start, length in gaps:
        keep &= (seq.timestamps < start) | (seq.timestamps >= start + length)
    return LandmarkSequence(seq.timestamps[keep], seq.confidence[keep], seq.success[keep], seq.points[keep])


class TestWindows:
    def fitted_pca(self):
        rng = np.random.default_rng(13)
        seq = make_sequence(30, rng=rng)
        return fit_pca_keeping([geometric_frames(normalized_coords(seq.points))], 0.9)

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


    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 30), st.integers(12, 40), GAPS, st.integers(0, 2**32 - 1))
    def test_matches_projecting_every_frame(self, fps, seconds, gaps, seed):
        """Any rate of 1-30 fps, with gaps of whole seconds that make one frame the sample of several seconds.

        Projecting only the 1 Hz samples moves last bits where few rows or
        few components are projected, so the windows agree to 1e-9, not to
        the byte.
        """
        rng = np.random.default_rng(seed)
        seq = make_sequence(seconds, fps=float(fps), fail_at=rng.choice(seconds * fps, 2, replace=False), rng=rng)
        seq = without_gaps(seq, gaps)
        pca = self.fitted_pca()
        got = window_sequence(seq, pca, 5, 3).windows
        _, want = windows_oracle(seq, pca, 5, 3)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.5, 30.0), st.floats(0.0, 1.0), st.integers(12, 40), GAPS, st.integers(0, 2**32 - 1))
    def test_sampled_frames_give_the_windows_of_the_whole_sequence(self, fps, start, seconds, gaps, seed):
        """A fractional first timestamp, gaps of whole seconds and failed frames, at 0.5-30 fps."""
        rng = np.random.default_rng(seed)
        seq = make_sequence(seconds, fps=fps, rng=rng)
        seq = LandmarkSequence(seq.timestamps + start, seq.confidence, rng.random(len(seq)) >= 0.02, seq.points)
        seq = without_gaps(seq, gaps)
        kept = sampled_frames(seq)
        idx, kept_idx = downsample_indices(seq.timestamps), downsample_indices(kept.timestamps)
        assert len(kept_idx) == len(idx)  # the tracer's window candidates
        assert kept.timestamps[kept_idx].tobytes() == seq.timestamps[idx].tobytes()
        pca = self.fitted_pca()
        for window, overlap in ((5, 3), (2, 1)):
            got = window_sequence(kept, pca, window, overlap).windows
            assert got.tobytes() == window_sequence(seq, pca, window, overlap).windows.tobytes()

    def test_gap_repeats_frames_in_the_samples(self):
        seq = make_sequence(20)
        keep = np.r_[0:8, 12:20]  # seconds 8-11 missing: frames 7 and 12 stand in for them
        seq = LandmarkSequence(seq.timestamps[keep], seq.confidence[keep], seq.success[keep], seq.points[keep])
        assert downsample_indices(seq.timestamps).tolist()[6:14] == [6, 7, 7, 7, 8, 8, 8, 9]
        pca = self.fitted_pca()
        got = window_sequence(seq, pca, 5, 3).windows
        _, want = windows_oracle(seq, pca, 5, 3)
        assert got.shape == want.shape == (6, 5, pca.q)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)
