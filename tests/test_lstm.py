import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phqreg.models import load_model, save_model
from phqreg.models import lstm as lstm_mod
from phqreg.models.lstm import (
    LstmDivergenceError,
    LstmModel,
    _sigmoid,
    forward,
    init_params,
    lstm_train,
    mse_loss_and_grads,
)

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# oracles: the boolean-mask sigmoid and the per-gate step code that the
# production hot path must reproduce bit for bit
# ---------------------------------------------------------------------------


def sigmoid_oracle(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def layer_forward_oracle(W, U, b, X):
    B, T, _ = X.shape
    H = W.shape[0] // 4
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    Hs = np.zeros((B, T, H))
    steps = []
    for t in range(T):
        a = X[:, t] @ W.T + h @ U.T + b
        i = sigmoid_oracle(a[:, :H])
        f = sigmoid_oracle(a[:, H : 2 * H])
        g = np.tanh(a[:, 2 * H : 3 * H])
        o = sigmoid_oracle(a[:, 3 * H :])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        steps.append((X[:, t], h, c, i, f, g, o, tanh_c))
        h = o * tanh_c
        c = c_new
        Hs[:, t] = h
    return Hs, steps


def layer_backward_oracle(W, U, dHs, steps):
    B, T, H = dHs.shape
    dW = np.zeros_like(W)
    dU = np.zeros_like(U)
    db = np.zeros(4 * H)
    dX = np.zeros((B, T, W.shape[1]))
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    for t in reversed(range(T)):
        x_t, h_prev, c_prev, i, f, g, o, tanh_c = steps[t]
        dh = dHs[:, t] + dh_next
        dc = dc_next + dh * o * (1.0 - tanh_c**2)
        da = np.concatenate(
            [
                dc * g * i * (1.0 - i),
                dc * c_prev * f * (1.0 - f),
                dc * i * (1.0 - g**2),
                dh * tanh_c * o * (1.0 - o),
            ],
            axis=1,
        )
        dW += da.T @ x_t
        dU += da.T @ h_prev
        db += da.sum(axis=0)
        dX[:, t] = da @ W
        dh_next = da @ U
        dc_next = dc * f
    return dX, dW, dU, db


def gradient_check(model: LstmModel, window: np.ndarray, target: float, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Runs in deterministic mode (dropout off, batch-norm frozen). Differences
    are taken for every parameter element; per parameter tensor the error is
    ||g_num - g_ana|| / (||g_num|| + ||g_ana||) and the max over tensors is
    returned, so near-zero entries do not drown the check in round-off noise.
    """
    X = np.asarray(window, dtype=np.float64)
    if X.ndim == 2:
        X = X[None]
    y = np.atleast_1d(np.asarray(target, dtype=np.float64))
    params = {k: v.copy() for k, v in model.params.items()}
    state = model.state

    _, grads, _ = mse_loss_and_grads(params, state, X, y, training=False)

    def loss_at(p):
        pred, _ = forward(p, state, X, training=False)
        return float(np.mean((pred - y) ** 2))

    worst = 0.0
    for name in params:
        flat = params[name].reshape(-1)
        numeric = np.zeros_like(flat)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_at(params)
            flat[idx] = orig - h
            down = loss_at(params)
            flat[idx] = orig
            numeric[idx] = (up - down) / (2.0 * h)
        analytic = grads[name].reshape(-1)
        denom = max(np.linalg.norm(numeric) + np.linalg.norm(analytic), 1e-12)
        worst = max(worst, float(np.linalg.norm(numeric - analytic) / denom))
    return worst


def oracle_layer_forward(W, U, b, X):
    """The oracle forward on time-major X, returned in the production layer cache layout.

    The oracle reads a (B, T, D) C-ordered copy, the layout the per-step code
    always ran on; the cell state after the last step is not part of the
    oracle's steps, so it is NaN here and any use of it shows.
    """
    T, B, _ = X.shape
    H = U.shape[1]
    Hs_bt, steps = layer_forward_oracle(W, U, b, np.ascontiguousarray(X.transpose(1, 0, 2)))
    Hs = np.zeros((T + 1, B, H))
    Cs = np.full((T + 1, B, H), np.nan)
    S = np.empty((T, 4, B, H))
    TC = np.empty((T, B, H))
    for t, (_, h_prev, c_prev, i, f, g, o, tanh_c) in enumerate(steps):
        Hs[t], Cs[t], TC[t] = h_prev, c_prev, tanh_c
        S[t] = i, f, g, o
    Hs[T] = Hs_bt[:, -1]
    return X, Hs, Cs, S, TC


def layer_steps(layer):
    """Per-step (x_t, h_prev, c_prev, i, f, g, o, tanh_c) tuples of a production layer cache."""
    X, Hs, Cs, S, TC = layer
    return [(X[t], Hs[t], Cs[t], *S[t], TC[t]) for t in range(len(X))]


def oracle_layer_backward(W, U, dHs, layer, input_grad=True):
    """The oracle backward on a production layer cache and time-major upstream gradients."""
    dX, dW, dU, db = layer_backward_oracle(W, U, dHs.transpose(1, 0, 2), layer_steps(layer))
    return (dX.transpose(1, 0, 2) if input_grad else None), dW, dU, db


@contextmanager
def oracle_steps(monkeypatch):
    """Swap the oracle step code into the module for the duration of the block.

    Fails unless every ``forward`` ran both its layers through the oracle and
    every ``backward`` both of its layers, so a hot path that stops calling
    the swapped functions cannot be compared with itself.
    """
    calls = dict(forward=0, backward=0, layer_forward=0, layer_backward=0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    with monkeypatch.context() as m:
        m.setattr(lstm_mod, "forward", counted("forward", lstm_mod.forward))
        m.setattr(lstm_mod, "backward", counted("backward", lstm_mod.backward))
        m.setattr(lstm_mod, "_layer_forward", counted("layer_forward", oracle_layer_forward))
        m.setattr(lstm_mod, "_layer_backward", counted("layer_backward", oracle_layer_backward))
        yield
    assert calls["forward"] > 0 and calls["layer_forward"] == 2 * calls["forward"], calls
    assert calls["backward"] > 0 and calls["layer_backward"] == 2 * calls["backward"], calls


def train_oracle(monkeypatch, *args, **kwargs):
    """lstm_train with the oracle step code swapped in."""
    with oracle_steps(monkeypatch):
        return lstm_train(*args, **kwargs)


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
           1e-310, -1e-310, 709.8, -745.2, 800.0, -800.0, np.nan, -np.nan]
elements = st.one_of(
    st.floats(min_value=-800.0, max_value=800.0, allow_subnormal=True),
    st.floats(min_value=-1e-300, max_value=1e-300, allow_subnormal=True),
    st.sampled_from(SPECIAL),
)


gate_matrices = hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 70)), elements=elements)


def same_bytes(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def tiny_model(q=3, seed=7):
    return LstmModel(init_params(q, seed), np.full(16, 0.1), np.full(16, 0.9))


class TestGradientCheck:
    def test_small_model_under_1e4(self):
        rng = np.random.default_rng(0)
        model = tiny_model(q=3)
        err = gradient_check(model, rng.normal(size=(4, 3)), 1.3, h=1e-5)
        assert err < 1e-4

    def test_zero_weight_head_bias_gradient_closed_form(self):
        model = tiny_model()
        model.params["w_out"][:] = 0.0
        model.params["b_out"][:] = 0.0
        rng = np.random.default_rng(1)
        X = rng.normal(size=(1, 4, 3))
        target = np.array([0.7])
        # prediction is exactly b_out = 0, so dL/db_out = 2*(pred-target)
        _, grads, _ = mse_loss_and_grads(model.params, model.state, X, target, training=False)
        assert grads["b_out"][0] == pytest.approx(2.0 * (0.0 - 0.7), abs=1e-12)

    def test_doubling_loss_doubles_gradients(self):
        model = tiny_model()
        rng = np.random.default_rng(2)
        X = rng.normal(size=(2, 4, 3))
        y = rng.normal(size=2)
        pred, cache = forward(model.params, model.state, X, training=False)
        dpred = 2.0 * (pred - y) / len(y)
        from phqreg.models.lstm import backward

        g1 = backward(model.params, cache, dpred)
        pred, cache = forward(model.params, model.state, X, training=False)
        g2 = backward(model.params, cache, 2.0 * dpred)
        for k in g1:
            np.testing.assert_allclose(g2[k], 2.0 * g1[k], atol=1e-12)


class TestForward:
    def test_gate_activations_bounded(self):
        model = tiny_model()
        rng = np.random.default_rng(3)
        X = rng.normal(0, 2, size=(6, 5, 3))
        _, cache = forward(model.params, model.state, X, training=False)
        for layer in (cache["layer1"], cache["layer2"]):
            for (_, _, _, i, f, g, o, _) in layer_steps(layer):
                assert np.all((i > 0) & (i < 1))
                assert np.all((f > 0) & (f < 1))
                assert np.all((o > 0) & (o < 1))
                assert np.all((g > -1) & (g < 1))

    def test_deterministic_inference(self):
        model = tiny_model()
        rng = np.random.default_rng(4)
        X = rng.normal(size=(3, 6, 3))
        np.testing.assert_array_equal(model.predict(X), model.predict(X))

    def test_predict_shape_validation(self):
        model = tiny_model(q=3)
        with pytest.raises(ValueError):
            model.predict(np.zeros((2, 4, 5)))


class TestTraining:
    def test_planted_signal_reduces_mse_90pct(self):
        rng = np.random.default_rng(42)
        N, W, q = 256, 6, 3
        X = rng.normal(size=(N, W, q))
        y = 3.0 * X[:, :, 0].mean(axis=1)
        model = lstm_train(X, y, 100, 3)
        assert len(model.curve) == 101
        assert min(model.curve) <= 0.10 * model.curve[0]

    def test_validation_snapshot_at_minimum(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(96, 5, 2))
        y = X[:, :, 0].mean(axis=1)
        model = lstm_train(X[:64], y[:64], 25, 1, X_val=X[64:], y_val=y[64:])
        assert len(model.curve) == 26
        stored_min = min(model.curve)
        assert stored_min <= model.curve[-1]
        assert model.curve[model.best_epoch] == stored_min
        # the returned parameters reproduce the best validation loss
        assert np.mean((model.predict(X[64:]) - y[64:]) ** 2) == pytest.approx(stored_min, abs=1e-12)

    @pytest.mark.parametrize("with_val", [True, False])
    def test_one_deterministic_forward_per_epoch(self, monkeypatch, with_val):
        # the curve scores only the windows that choose the snapshot
        rng = np.random.default_rng(13)
        X = rng.normal(size=(20, 4, 2))
        y = rng.normal(size=20)
        monkeypatch.setattr(lstm_mod, "DEFAULT_BATCH", 8)
        max_epochs = 4
        val = dict(X_val=X[14:], y_val=y[14:]) if with_val else {}
        modes = []

        def recorder(params, state, X, training, dropout_mask=None):
            modes.append(training)
            return forward(params, state, X, training, dropout_mask)

        monkeypatch.setattr(lstm_mod, "forward", recorder)
        model = lstm_train(X[:14], y[:14], max_epochs, 0, **val)
        assert modes.count(False) == max_epochs + 1 == len(model.curve)
        assert modes.count(True) == max_epochs * 2  # two batches of 8 per epoch

    @pytest.mark.parametrize(
        "n_labels, val, match",
        [
            (13, None, "10 training windows"),
            (10, (2, 1), "2 validation windows"),
            (10, (2, None), "together"),
        ],
        ids=["labels_for_training", "labels_for_validation", "windows_without_labels"],
    )
    def test_label_mismatch_rejected(self, n_labels, val, match):
        rng = np.random.default_rng(14)
        kwargs = {}
        if val is not None:
            n_val, n_val_labels = val
            kwargs["X_val"] = rng.normal(size=(n_val, 4, 2))
            kwargs["y_val"] = None if n_val_labels is None else rng.normal(size=n_val_labels)
        with pytest.raises(ValueError, match=match):
            lstm_train(rng.normal(size=(10, 4, 2)), rng.normal(size=n_labels), 2, 0, **kwargs)

    def test_divergence_raises_with_config(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(32, 4, 2))
        y = rng.normal(size=32)
        y[5] = np.nan  # poisoned target -> NaN loss on the first batch
        with pytest.raises(LstmDivergenceError, match=r"diverged at epoch 1 \(seed 0\)"):
            lstm_train(X, y, 3, 0)

    def test_clip_norm_does_not_depend_on_gradient_dict_order(self, monkeypatch):
        rng = np.random.default_rng(14)
        X = rng.normal(0, 2, size=(40, 7, 3))
        y = rng.normal(size=40)
        # a clip norm this small clips every step, so the norm's last bits reach the parameters
        monkeypatch.setattr(lstm_mod, "DEFAULT_CLIP", 0.01)
        assert sorted(lstm_mod.CLIP_ORDER) == sorted(init_params(3, 2))
        want = lstm_train(X, y, 3, 2)
        backward, orders = lstm_mod.backward, []

        def reversed_backward(params, cache, dpred):
            grads = backward(params, cache, dpred)
            orders.append(tuple(reversed(grads)))
            return {k: grads[k] for k in orders[-1]}

        with monkeypatch.context() as m:
            m.setattr(lstm_mod, "backward", reversed_backward)
            got = lstm_train(X, y, 3, 2)
        assert orders and orders[0] != lstm_mod.CLIP_ORDER
        assert got.curve == want.curve
        for k in want.params:
            assert same_bytes(got.params[k], want.params[k]), k

    def test_same_seed_reproduces_training(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 4, 2))
        y = rng.normal(size=40)
        a = lstm_train(X, y, 5, 9)
        b = lstm_train(X, y, 5, 9)
        assert a.curve == b.curve
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])


class TestBitIdentity:
    @settings(max_examples=300, deadline=None)
    @given(gate_matrices, st.data())
    def test_sigmoid_bytes_match_mask_oracle(self, x, data):
        assert same_bytes(_sigmoid(x), sigmoid_oracle(x))
        lo = data.draw(st.integers(0, x.shape[1] - 1))
        hi = data.draw(st.integers(lo + 1, x.shape[1]))
        step = data.draw(st.integers(1, 3))
        view = x[:, lo:hi:step]  # non-contiguous column slice
        assert same_bytes(_sigmoid(view), sigmoid_oracle(view))
        # the forward pass slices gates out of one activation of the whole row
        assert same_bytes(_sigmoid(x)[:, lo:hi:step], sigmoid_oracle(view))

    def test_sigmoid_special_values(self):
        payload_nan = np.frombuffer(bytes.fromhex("010000000000f87f"), dtype=np.float64)[0]
        x = np.array(SPECIAL + [payload_nan, -payload_nan, np.inf, -np.inf])
        assert same_bytes(_sigmoid(x), sigmoid_oracle(x))

    @pytest.mark.parametrize(
        "B, T, D, zero_resid",
        [
            (7, 9, 5, False),
            (1, 9, 5, False),
            (7, 1, 5, False),
            (7, 9, 1, False),
            # y equal to the prediction: the per-step gradients are signed
            # zeros, and the time sums must start from +0.0 as the oracle's do
            (7, 9, 5, True),
        ],
        ids=["B7_T9_D5", "B1", "T1", "D1", "zero_residual"],
    )
    def test_forward_and_grads_match_oracle(self, monkeypatch, B, T, D, zero_resid):
        rng = np.random.default_rng(11)
        model = tiny_model(q=D)
        X = rng.normal(0, 3, size=(B, T, D))
        y = rng.normal(size=B)
        mask = (rng.random((B, 16)) < 0.5) / 0.5
        if zero_resid:
            y = forward(model.params, model.state, X, training=True, dropout_mask=mask)[0]
        got = mse_loss_and_grads(model.params, model.state, X, y, training=True, dropout_mask=mask)
        with oracle_steps(monkeypatch):
            want = mse_loss_and_grads(model.params, model.state, X, y, training=True, dropout_mask=mask)
        assert got[0] == want[0]
        if zero_resid:
            assert got[0] == 0.0
            assert not any(g.any() or np.signbit(g).any() for g in got[1].values())
        for k in want[1]:
            assert same_bytes(got[1][k], want[1][k]), k
        for key in ("layer1", "layer2"):
            got_steps, want_steps = layer_steps(got[2][key]), layer_steps(want[2][key])
            assert len(got_steps) == len(want_steps) == T
            for got_step, want_step in zip(got_steps, want_steps):
                for a, b in zip(got_step, want_step):
                    assert same_bytes(a, b)
        assert same_bytes(got[2]["hT"], want[2]["hT"])

    @pytest.mark.parametrize("with_val", [True, False])
    def test_training_matches_oracle(self, monkeypatch, with_val):
        rng = np.random.default_rng(12)
        X = rng.normal(0, 2, size=(30, 7, 4))
        y = 4.0 * X[:, :, 2].mean(axis=1) + rng.normal(0, 0.1, size=30)
        monkeypatch.setattr(lstm_mod, "DEFAULT_BATCH", 8)
        val = dict(X_val=X[22:], y_val=y[22:]) if with_val else {}
        got = lstm_train(X[:22], y[:22], 12, 5, **val)
        want = train_oracle(monkeypatch, X[:22], y[:22], 12, 5, **val)
        assert got.curve == want.curve
        assert len(got.curve) == 13
        assert got.best_epoch == want.best_epoch
        for k in want.params:
            assert same_bytes(got.params[k], want.params[k]), k
        assert same_bytes(got.running_mean, want.running_mean)
        assert same_bytes(got.running_var, want.running_var)
        assert same_bytes(got.predict(X), want.predict(X))


class TestGolden:
    def test_prediction_matches_golden_file(self, monkeypatch):
        golden = json.loads((DATA / "lstm_golden.json").read_text())
        rng = np.random.default_rng(golden["data_seed"])
        N, W, q = golden["n"], golden["W"], golden["q"]
        X = rng.normal(size=(N, W, q))
        y = 2.0 * X[:, :, 1].mean(axis=1)
        monkeypatch.setattr(lstm_mod, "DEFAULT_BATCH", golden["batch_size"])
        model = lstm_train(X, y, golden["epochs"], golden["model_seed"])
        window = rng.normal(size=(W, q))
        got = float(model.predict(window[None])[0])
        assert got == pytest.approx(golden["prediction"], abs=1e-9)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(24, 4, 3))
        y = rng.normal(size=24)
        m = lstm_train(X, y, 3, 2)
        save_model(m, tmp_path / "m.json", {"q": 3})
        back, extra = load_model(tmp_path / "m.json")
        assert isinstance(back, LstmModel)
        assert extra["q"] == 3
        np.testing.assert_allclose(back.predict(X), m.predict(X), atol=1e-12)

    def test_version_mismatch_fails_loudly(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"format_version": 99, "kind": "lstm", "model": {}}))
        from phqreg.models import ModelFormatError

        with pytest.raises(ModelFormatError, match="version"):
            load_model(p)
