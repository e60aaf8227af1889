import itertools
import json

import numpy as np
import pytest

from phqreg.models import load_model, save_model
from phqreg.models.svr import SvrModel, kernel_matrix, svr_train


def svr_dual_objective(K, y, epsilon, alpha, alpha_star) -> float:
    """f(z) = 1/2 beta^T K beta + eps * sum(alpha + alpha*) - y^T beta, the dual that SMO minimizes."""
    beta = alpha - alpha_star
    return float(0.5 * beta @ K @ beta + epsilon * np.sum(alpha + alpha_star) - y @ beta)


def qp_oracle(K, y, C, epsilon, tol=1e-9):
    """Exhaustive active-set enumeration of the epsilon-SVR dual.

    Works in beta space: minimize 1/2 b^T K b + eps*sum|b| - y^T b subject to
    sum(b) = 0 and |b_i| <= C. Every variable is assigned one of five states
    (zero, free+, at +C, free-, at -C); the stationary point of each pattern
    is checked for feasibility and the best feasible objective returned.
    Convexity guarantees the optimum shows up as its own pattern's solution.
    """
    n = len(y)
    best = np.inf
    states = ("Z", "F+", "C+", "F-", "C-")
    for pattern in itertools.product(states, repeat=n):
        beta = np.zeros(n)
        free, signs = [], {}
        for i, st in enumerate(pattern):
            if st == "C+":
                beta[i] = C
            elif st == "C-":
                beta[i] = -C
            elif st in ("F+", "F-"):
                free.append(i)
                signs[i] = 1.0 if st == "F+" else -1.0
        fixed_sum = beta.sum()

        if free:
            m = len(free)
            A = np.zeros((m + 1, m + 1))
            A[:m, :m] = K[np.ix_(free, free)]
            A[:m, m] = 1.0
            A[m, :m] = 1.0
            coupling = K[free] @ beta  # interaction with variables fixed at +-C
            rhs = np.concatenate(
                [[-(epsilon * signs[i] - y[i]) - c for i, c in zip(free, coupling)], [-fixed_sum]]
            )
            sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
            if np.linalg.norm(A @ sol - rhs) > 1e-7:
                continue  # inconsistent pattern
            ok = True
            for i, b in zip(free, sol[:m]):
                if signs[i] * b < -tol or signs[i] * b > C + tol:
                    ok = False
                    break
                beta[i] = b
            if not ok:
                continue
        elif abs(fixed_sum) > tol:
            continue

        obj = 0.5 * beta @ K @ beta + epsilon * np.abs(beta).sum() - y @ beta
        best = min(best, obj)
    return best


class TestTraining:
    def test_constant_target(self):
        X = np.linspace(0, 1, 6).reshape(-1, 1)
        m = svr_train(X, np.full(6, 4.2), kernel="linear", epsilon=0.1)
        assert np.all(m.alpha == 0) and np.all(m.alpha_star == 0)
        assert m.bias == pytest.approx(4.2)
        np.testing.assert_allclose(m.predict(X), 4.2)

    def test_linear_data_fits_within_tube(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (20, 2))
        y = 3.0 * X[:, 0] - 1.5 * X[:, 1] + 0.5
        eps = 0.1
        m = svr_train(X, y, kernel="linear", C=100.0, epsilon=eps, tol=1e-8)
        assert np.max(np.abs(m.predict(X) - y)) <= eps + 1e-6

    def test_dual_feasibility_after_training(self):
        rng = np.random.default_rng(1)
        for kernel in ("linear", "rbf"):
            X = rng.normal(0, 1, (25, 3))
            y = rng.normal(0, 5, 25)
            m = svr_train(X, y, kernel=kernel, C=1.0, gamma=0.5, epsilon=0.1)
            assert np.all(m.alpha >= -1e-12) and np.all(m.alpha <= m.C + 1e-12)
            assert np.all(m.alpha_star >= -1e-12) and np.all(m.alpha_star <= m.C + 1e-12)
            assert abs((m.alpha - m.alpha_star).sum()) <= 1e-6
            # complementarity: alpha and alpha* never both active
            assert np.max(np.minimum(m.alpha, m.alpha_star)) <= 1e-6

    @pytest.mark.parametrize("kernel,gamma", [("linear", 0.0), ("rbf", 0.5)])
    def test_five_point_dual_matches_enumeration_oracle(self, kernel, gamma):
        rng = np.random.default_rng(2)
        X = np.array([[0.0], [0.3], [0.45], [0.8], [1.0]])
        y = np.array([0.2, 1.1, -0.4, 2.0, 1.4]) + rng.normal(0, 0.1, 5)
        C, eps = 1.0, 0.1
        m = svr_train(X, y, kernel=kernel, C=C, gamma=gamma, epsilon=eps, tol=1e-10)
        K = kernel_matrix(kernel, m.train_X, m.train_X, gamma)
        want = qp_oracle(K, y, C, eps)
        assert svr_dual_objective(K, y, eps, m.alpha, m.alpha_star) == pytest.approx(want, abs=1e-6)

    def test_affine_rescaling_leaves_predictions_unchanged(self):
        rng = np.random.default_rng(3)
        X = rng.normal(0, 1, (30, 4))
        y = rng.normal(10, 4, 30)
        scale = np.array([1000.0, 0.01, 3.0, 42.0])
        shift = np.array([-5.0, 7.0, 0.0, 100.0])
        m1 = svr_train(X, y, kernel="rbf", gamma=0.2, epsilon=0.1)
        m2 = svr_train(X * scale + shift, y, kernel="rbf", gamma=0.2, epsilon=0.1)
        Xq = rng.normal(0, 1, (10, 4))
        np.testing.assert_allclose(m1.predict(Xq), m2.predict(Xq * scale + shift), atol=1e-6)

    @pytest.mark.parametrize("tol", [1e-3, 1e-8])
    def test_final_kkt_gap_is_kept_and_within_tol(self, tol):
        rng = np.random.default_rng(7)
        X = rng.normal(0, 1, (25, 3))
        y = rng.normal(0, 5, 25)
        m = svr_train(X, y, kernel="rbf", gamma=0.5, epsilon=0.1, tol=tol)
        # the maximal KKT violation recomputed from the dual variables
        n, C = len(y), m.C
        z = np.concatenate([m.alpha, m.alpha_star])
        u = np.concatenate([np.ones(n), -np.ones(n)])
        Q = np.tile(kernel_matrix("rbf", m.train_X, m.train_X, 0.5), (2, 2)) * np.outer(u, u)
        crit = -u * (Q @ z + np.concatenate([0.1 - y, 0.1 + y]))
        up = ((u > 0) & (z < C)) | ((u < 0) & (z > 0))
        low = ((u > 0) & (z > 0)) | ((u < 0) & (z < C))
        assert m.kkt_gap <= tol
        assert m.kkt_gap == pytest.approx(crit[up].max() - crit[low].min(), abs=1e-9)

    def test_rbf_gamma_affects_model(self):
        rng = np.random.default_rng(4)
        X = rng.normal(0, 1, (15, 2))
        y = rng.normal(0, 3, 15)
        m1 = svr_train(X, y, kernel="rbf", gamma=0.01, epsilon=0.01)
        m2 = svr_train(X, y, kernel="rbf", gamma=5.0, epsilon=0.01)
        assert not np.allclose(m1.predict(X), m2.predict(X))


class TestValidation:
    def test_non_finite_inputs_rejected(self):
        X = np.array([[0.0], [np.nan]])
        with pytest.raises(ValueError, match="non-finite"):
            svr_train(X, np.array([1.0, 2.0]))

    def test_bad_hyperparameters(self):
        X = np.zeros((3, 1))
        y = np.zeros(3)
        with pytest.raises(ValueError):
            svr_train(X, y, C=-1.0)
        with pytest.raises(ValueError):
            svr_train(X, y, epsilon=-0.1)
        with pytest.raises(ValueError):
            svr_train(X, y, kernel="poly")

    def test_predict_dimension_mismatch(self):
        X = np.random.default_rng(0).normal(size=(5, 2))
        m = svr_train(X, np.arange(5.0), kernel="linear")
        with pytest.raises(ValueError, match="expected"):
            m.predict(np.zeros((2, 3)))

    def test_iteration_cap_raises_with_diagnostics(self):
        from phqreg.models.svr import SvrConvergenceError

        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 2))
        y = rng.normal(0, 5, 20)
        with pytest.raises(SvrConvergenceError, match="did not converge"):
            svr_train(X, y, kernel="rbf", gamma=0.5, epsilon=0.01, max_iter=1)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.normal(0, 1, (12, 3))
        y = rng.normal(0, 2, 12)
        m = svr_train(X, y, kernel="rbf", gamma=0.3, epsilon=0.05)
        save_model(m, tmp_path / "m.json", {"note": "t"})
        back, extra = load_model(tmp_path / "m.json")
        assert isinstance(back, SvrModel)
        assert extra == {"note": "t"}
        assert (back.n_iter, back.kkt_gap) == (m.n_iter, m.kkt_gap)
        np.testing.assert_allclose(back.predict(X), m.predict(X), atol=1e-12)

    def test_format_2_file_fails_loudly(self, tmp_path):
        from phqreg.models import ModelFormatError

        m = svr_train(np.arange(6.0).reshape(-1, 1), np.arange(6.0), kernel="linear")
        path = tmp_path / "m.json"
        save_model(m, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 2  # a format-2 file: no kkt_gap
        del payload["model"]["kkt_gap"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="version 2, expected 4"):
            load_model(path)
