import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phqreg.relief as relief_mod
from phqreg.relief import (
    binarize_labels,
    relief_weights,
    relief_weights_by_k,
    select_top,
    stratified_folds,
    tune_relief,
)


def relief_oracle(X, y_class, k):
    """Plain-loop Relief: min-max normalize, Manhattan k-NN hits/misses."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    mins, maxs = X.min(axis=0), X.max(axis=0)
    Xn = np.zeros_like(X)
    for f in range(d):
        r = maxs[f] - mins[f]
        if r > 0:
            Xn[:, f] = (X[:, f] - mins[f]) / r
    weights = np.zeros(d)
    for i in range(n):
        dists = [sum(abs(Xn[i, f] - Xn[j, f]) for f in range(d)) for j in range(n)]
        hits = sorted(
            (j for j in range(n) if j != i and y_class[j] == y_class[i]),
            key=lambda j: (dists[j], j),
        )[:k]
        misses = sorted(
            (j for j in range(n) if y_class[j] != y_class[i]),
            key=lambda j: (dists[j], j),
        )[:k]
        for f in range(d):
            weights[f] += sum(abs(Xn[i, f] - Xn[j, f]) for j in misses)
            weights[f] -= sum(abs(Xn[i, f] - Xn[j, f]) for j in hits)
    return weights / (n * k)


def relief_tensor_oracle(X, y_class, k):
    """The n x n x d formulation: one distance matrix, then k neighbors per row.

    Kept as a byte oracle: the row-wise pass must give the same bits.
    """
    X = np.asarray(X, dtype=np.float64)
    y_class = np.asarray(y_class).astype(int)
    for cls in np.unique(y_class):
        count = int(np.sum(y_class == cls))
        if count < k + 1:
            raise ValueError(f"class {cls} has {count} instances, need at least k+1 = {k + 1}")
    mins, maxs = X.min(axis=0), X.max(axis=0)
    ranges = maxs - mins
    Xn = np.zeros_like(X)
    ok = ranges > 0
    Xn[:, ok] = (X[:, ok] - mins[ok]) / ranges[ok]
    n, d = Xn.shape
    dist = np.abs(Xn[:, None, :] - Xn[None, :, :]).sum(axis=2)
    weights = np.zeros(d)
    idx = np.arange(n)
    for i in range(n):
        same = y_class == y_class[i]
        hits = idx[same & (idx != i)]
        misses = idx[~same]
        hits = hits[np.lexsort((hits, dist[i, hits]))][:k]
        misses = misses[np.lexsort((misses, dist[i, misses]))][:k]
        weights += np.abs(Xn[misses] - Xn[i]).sum(axis=0) - np.abs(Xn[hits] - Xn[i]).sum(axis=0)
    weights /= n * k
    return weights


@st.composite
def relief_inputs(draw):
    """Data with ties, constant columns, unbalanced classes and d = 1 at large k."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([1, 1, 2, 7, 40, 300]))
    k_max = draw(st.sampled_from([1, 3, 5, 10, 15, 20]))
    n_min = 2 * (k_max + 1)
    n = draw(st.integers(max(12, n_min), max(12, n_min) + 60))
    minority = draw(st.integers(k_max + 1, n - k_max - 1))
    y = np.zeros(n, dtype=int)
    y[rng.choice(n, minority, replace=False)] = 1
    X = rng.normal(0.0, 1.0, (n, d))
    decimals = draw(st.sampled_from([None, 0, 1]))
    if decimals is not None:
        X = np.round(X, decimals)  # tied distances and tied column values
    if d > 1 and draw(st.booleans()):
        X[:, rng.integers(0, d)] = 2.5  # a constant column
    ks = sorted(set(draw(st.lists(st.integers(1, k_max), max_size=3))) | {k_max})
    return X, y, ks


def separable_data(rng, n=40, d=5, shift=3.0):
    y = np.array([0, 1] * (n // 2))
    X = rng.normal(0, 1, (n, d))
    X[:, 0] += shift * y
    return X, y


class TestWeights:
    def test_constant_feature_weight_zero(self):
        rng = np.random.default_rng(0)
        X, y = separable_data(rng)
        X[:, 3] = 7.7
        assert relief_weights(X, y, k=5)[3] == 0.0

    def test_separating_feature_wins(self):
        rng = np.random.default_rng(1)
        X, y = separable_data(rng, n=40, d=2)
        w = relief_weights(X, y, k=5)
        assert w[0] > w[1]
        np.testing.assert_allclose(w, relief_oracle(X, y, 5), atol=1e-9)

    def test_matches_oracle_small_instances(self):
        rng = np.random.default_rng(2)
        for trial in range(8):
            n = int(rng.integers(10, 31))
            n += n % 2
            d = int(rng.integers(2, 7))
            k = int(rng.integers(1, min(4, n // 2)))
            X = rng.normal(0, 1, (n, d))
            y = np.array([0, 1] * (n // 2))
            got = relief_weights(X, y, k)
            np.testing.assert_allclose(got, relief_oracle(X, y, k), atol=1e-9)

    def test_duplication_keeps_ranking(self):
        rng = np.random.default_rng(3)
        X, y = separable_data(rng, n=30, d=4)
        X[:, 1] += 1.0 * y  # weakly informative second feature
        base = relief_weights(X, y, k=5)
        X2 = np.vstack([X, X])
        y2 = np.concatenate([y, y])
        dup = relief_weights(X2, y2, k=5)
        np.testing.assert_allclose(dup, relief_oracle(X2, y2, 5), atol=1e-9)
        assert np.argsort(-base).tolist() == np.argsort(-dup).tolist()

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(4)
        X, y = separable_data(rng)
        base = relief_weights(X, y, k=5)
        X2 = X.copy()
        X2[:, 0] = 1000.0 * X2[:, 0] - 42.0
        scaled = relief_weights(X2, y, k=5)
        np.testing.assert_allclose(base, scaled, atol=1e-9)

    @settings(max_examples=120, deadline=None)
    @given(relief_inputs())
    def test_bytes_equal_tensor_oracle_and_every_k_of_one_pass(self, case):
        X, y, ks = case
        by_k = relief_weights_by_k(X, y, ks)
        assert sorted(by_k) == ks
        for k in ks:
            single = relief_weights(X, y, k)
            assert single.tobytes() == relief_tensor_oracle(X, y, k).tobytes(), k
            assert by_k[k].tobytes() == single.tobytes(), k

    def test_one_column_large_k_bytes_equal_tensor_oracle(self):
        # (k, 1) slices are summed pairwise by numpy: a running prefix sum
        # over the sorted neighbors gives different last bits here
        rng = np.random.default_rng(12)
        for n in (42, 60, 107):
            X = rng.normal(0.0, 1.0, (n, 1))
            y = np.arange(n) % 2
            by_k = relief_weights_by_k(X, y, (10, 15, 20))
            for k in (10, 15, 20):
                assert by_k[k].tobytes() == relief_tensor_oracle(X, y, k).tobytes(), (n, k)

    def test_memory_linear_in_rows_at_merged_width(self):
        rng = np.random.default_rng(13)
        X = rng.normal(0.0, 1.0, (107, 1440))
        y = np.arange(107) % 2
        relief_weights(X[:12], y[:12], 2)  # warm-up: first-call allocations do not count
        tracemalloc.start()
        try:
            relief_weights(X, y, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the n x n x d difference tensor alone is 107 * 107 * 1440 * 8 B = 132 MB
        assert peak <= 16e6, peak

    def test_single_class_rejected_with_missing_class_name(self):
        X = np.random.default_rng(14).normal(0.0, 1.0, (30, 3))
        with pytest.raises(ValueError, match="class 1 has no instances"):
            relief_weights(X, np.zeros(30), k=5)
        with pytest.raises(ValueError, match="class 0 has no instances"):
            relief_weights_by_k(X, np.ones(30), (1, 2))

    def test_small_class_rejected_with_name(self):
        X = np.zeros((10, 2))
        y = np.array([0] * 9 + [1])
        with pytest.raises(ValueError, match="class 1"):
            relief_weights(X, y, k=3)

    def test_binarize_at_cutoff(self):
        assert binarize_labels([0, 9, 10, 24]).tolist() == [0, 0, 1, 1]


class TestSelectTop:
    def test_threshold_filter(self):
        assert select_top(np.array([0.5, 0.01, 0.03]), threshold=0.02) == [0, 2]

    def test_truncated_to_n_max(self):
        w = np.linspace(1.0, 0.1, 30)
        sel = select_top(w, threshold=0.02)
        assert len(sel) == 20
        assert sel == list(range(20))

    def test_all_below_threshold_empty(self):
        assert select_top(np.array([0.0, -0.5, 0.01]), threshold=0.02) == []

    def test_tie_break_by_index(self):
        sel = select_top(np.array([0.3, 0.5, 0.3]), threshold=0.0)
        assert sel == [1, 0, 2]


class _NearestMean:
    """Tiny downstream regressor for tuning tests: grand-mean predictor."""

    def fit(self, X, y):
        self.mean = float(np.mean(y))
        return self

    def predict(self, X):
        return np.full(len(X), self.mean)


def tuning_data(rng, n=36, d=6):
    y = rng.uniform(0, 24, n)
    y[: n // 2] = rng.uniform(0, 8, n // 2)
    y[n // 2 :] = rng.uniform(12, 24, n - n // 2)
    X = rng.normal(0, 1, (n, d))
    X[:, 0] = y + rng.normal(0, 1.0, n)
    return X, y


def set_grid(monkeypatch, thresholds, ks):
    """Tune over a grid other than the paper's for one test."""
    monkeypatch.setattr(relief_mod, "GRID_THRESHOLDS", thresholds)
    monkeypatch.setattr(relief_mod, "GRID_KS", ks)


class TestTune:
    def test_single_pair_grid(self, monkeypatch):
        rng = np.random.default_rng(5)
        X, y = tuning_data(rng)
        set_grid(monkeypatch, (0.02,), (5,))
        th, k, scores = tune_relief(X, y, _NearestMean().fit, seed=3)
        assert (th, k) == (0.02, 5)
        assert len(scores) == 1

    def test_only_feasible_threshold_wins(self, monkeypatch):
        rng = np.random.default_rng(6)
        X, y = tuning_data(rng)
        set_grid(monkeypatch, (0.9, 0.5, 0.02), (5,))
        th, k, scores = tune_relief(X, y, _NearestMean().fit, seed=3)
        assert th == 0.02
        assert scores[(0.9, 5)] == float("inf")

    def test_full_grid_runs_twelve_points(self):
        rng = np.random.default_rng(7)
        X, y = tuning_data(rng, n=72)
        th, k, scores = tune_relief(X, y, _NearestMean().fit, seed=3)
        assert len(scores) == 12
        assert th in (0.02, 0.0, -0.02)
        assert k in (5, 10, 15, 20)

    def test_oversized_k_skipped(self, monkeypatch):
        rng = np.random.default_rng(8)
        X, y = tuning_data(rng, n=24)  # folds of 8: k=20 infeasible
        set_grid(monkeypatch, (0.0,), (20, 3))
        th, k, scores = tune_relief(X, y, _NearestMean().fit, seed=3)
        assert k == 3
        assert scores[(0.0, 20)] == float("inf")

    def test_weights_once_per_fold_and_k_with_unchanged_scores(self, monkeypatch):
        rng = np.random.default_rng(11)
        X, y = tuning_data(rng, n=36)  # 12 per class in each training part: k=15 and k=20 infeasible
        thresholds, ks = (0.02, 0.0, -0.02), (5, 10, 15, 20)  # the paper's grid
        y_class = binarize_labels(y)
        folds = stratified_folds(y_class, seed=3)
        # grid scores from the n x n x d oracle, one (fold, k) at a time
        oracle = {}
        for th in thresholds:
            for k in ks:
                maes = []
                for fold in folds:
                    train = np.setdiff1d(np.arange(len(y)), fold)
                    try:
                        sel = select_top(relief_tensor_oracle(X[train], y_class[train], k), th)
                    except ValueError:
                        break
                    if not sel:
                        break
                    pred = _NearestMean().fit(X[np.ix_(train, sel)], y[train]).predict(X[np.ix_(fold, sel)])
                    maes.append(float(np.mean(np.abs(pred - y[fold]))))
                oracle[(th, k)] = float(np.mean(maes)) if len(maes) == len(folds) else float("inf")

        calls = []
        real = relief_mod.relief_weights_by_k

        def counting(X, y_class, ks):
            calls.append(tuple(ks))
            return real(X, y_class, ks)

        monkeypatch.setattr(relief_mod, "relief_weights_by_k", counting)
        th, k, scores = tune_relief(X, y, _NearestMean().fit, seed=3)
        assert scores == oracle
        assert scores[(0.0, 15)] == scores[(0.0, 20)] == float("inf")
        # one pass per fold serves both feasible ks
        assert calls == [(5, 10)] * 3

    def test_all_infeasible_raises(self, monkeypatch):
        rng = np.random.default_rng(9)
        X, y = tuning_data(rng, n=24)
        set_grid(monkeypatch, (0.9,), (20,))
        with pytest.raises(ValueError, match="no feasible"):
            tune_relief(X, y, _NearestMean().fit, seed=3)


class TestStratifiedFolds:
    def test_partition_and_balance(self):
        rng = np.random.default_rng(10)
        y = rng.integers(0, 2, 31)
        folds = stratified_folds(y, seed=1)
        all_idx = sorted(int(i) for f in folds for i in f)
        assert all_idx == list(range(31))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        y = np.array([0, 1] * 15)
        a = stratified_folds(y, seed=5)
        b = stratified_folds(y, seed=5)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)
