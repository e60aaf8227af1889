import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phqreg.metrics import MetricError, evs, mae, rmse


def brute_force_metrics(y, yhat):
    """Independent oracle: direct formula evaluation with python loops."""
    n = len(y)
    sq = sum((a - b) ** 2 for a, b in zip(y, yhat)) / n
    ab = sum(abs(a - b) for a, b in zip(y, yhat)) / n
    resid = [a - b for a, b in zip(y, yhat)]
    rmean = sum(resid) / n
    var_r = sum((r - rmean) ** 2 for r in resid) / n
    ymean = sum(y) / n
    var_y = sum((v - ymean) ** 2 for v in y) / n
    return sq**0.5, ab, 1.0 - var_r / var_y


class TestExamples:
    def test_perfect_prediction(self):
        y = [3, 7, 11]
        assert (rmse(y, y), mae(y, y), evs(y, y)) == (0.0, 0.0, 1.0)

    def test_constant_shift_residual(self):
        y, yhat = [1, 2, 3], [2, 3, 4]
        assert rmse(y, yhat) == pytest.approx(1.0)
        assert mae(y, yhat) == pytest.approx(1.0)
        assert evs(y, yhat) == 1.0

    def test_brute_force_pair(self):
        y, yhat = [0.0, 2.0], [0.0, 0.0]
        want = brute_force_metrics(y, yhat)
        assert rmse(y, yhat) == pytest.approx(np.sqrt(2.0), abs=1e-15)
        assert mae(y, yhat) == pytest.approx(1.0, abs=1e-15)
        assert evs(y, yhat) == pytest.approx(want[2], abs=1e-15)


class TestErrors:
    def test_length_mismatch(self):
        for metric in (rmse, mae, evs):
            with pytest.raises(MetricError):
                metric([1, 2], [1, 2, 3])

    def test_zero_variance_evs(self):
        with pytest.raises(MetricError, match="Var"):
            evs([5, 5, 5], [1, 2, 3])
        # rmse/mae still available via the separate calls
        assert rmse([5, 5, 5], [1, 2, 3]) > 0
        assert mae([5, 5, 5], [1, 2, 3]) > 0

    def test_min_length(self):
        with pytest.raises(MetricError):
            evs([1], [1])
        with pytest.raises(MetricError):
            rmse([], [])


@st.composite
def paired_vectors(draw):
    n = draw(st.integers(2, 30))
    vals = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    y = draw(st.lists(vals, min_size=n, max_size=n))
    yhat = draw(st.lists(vals, min_size=n, max_size=n))
    return y, yhat


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(paired_vectors())
    def test_mae_never_exceeds_rmse(self, pair):
        y, yhat = pair
        assert mae(y, yhat) <= rmse(y, yhat) + 1e-9 * max(1.0, rmse(y, yhat))

    def test_mae_equals_rmse_iff_equal_abs_residuals(self):
        assert mae([0, 0], [2, -2]) == pytest.approx(rmse([0, 0], [2, -2]))
        assert mae([0, 0], [1, 3]) < rmse([0, 0], [1, 3])

    @settings(max_examples=50, deadline=None)
    @given(paired_vectors(), st.floats(-100, 100, allow_nan=False))
    def test_evs_shift_invariance(self, pair, c):
        y, yhat = pair
        try:
            base = evs(y, yhat)
        except MetricError:
            return
        shifted = evs(y, [v + c for v in yhat])
        assert shifted == pytest.approx(base, abs=1e-6, rel=1e-6)

    def test_evs_one_iff_constant_residual(self):
        assert evs([1, 2, 3], [4, 5, 6]) == 1.0
        assert evs([1, 2, 3], [4, 5, 7]) < 1.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = rng.integers(2, 40)
            y = rng.normal(0, 10, n)
            yhat = rng.normal(0, 10, n)
            want = brute_force_metrics(y.tolist(), yhat.tolist())
            assert rmse(y, yhat) == pytest.approx(want[0], abs=1e-12)
            assert mae(y, yhat) == pytest.approx(want[1], abs=1e-12)
            assert evs(y, yhat) == pytest.approx(want[2], abs=1e-12)
