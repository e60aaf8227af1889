"""Two-layer LSTM sequence regressor trained with backprop through time.

Architecture: two stacked LSTM layers of hidden size 16; the last timestep's
hidden state goes through batch normalization, dropout (0.5, training only)
and a linear dense head producing one scalar per window. Loss is MSE,
optimized with Adam (step 1e-3, batch 32, global gradient-norm clip 5.0).
The head's bias starts at the training-label mean. Training runs up to 100
epochs and keeps the parameter snapshot with the lowest validation loss (the
training loss without a validation set), scored once per epoch; inference is
deterministic (dropout off, frozen batch-norm statistics).

Everything is plain numpy in double precision so the analytic gradients can
be verified against central finite differences.

Each time step takes one sigmoid call over all four gate pre-activations (the
input, forget and output gates are column views of it) and writes its gate
gradients into one reused buffer. Parameters, the loss curve and predictions are
bit-identical to a step that activates each gate separately with a
boolean-mask sigmoid; tests/test_lstm.py keeps that form as its oracle.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

HIDDEN_SIZE = 16
DEFAULT_DROPOUT = 0.5
DEFAULT_LR = 1e-3
DEFAULT_BATCH = 32
DEFAULT_EPOCHS = 100
DEFAULT_CLIP = 5.0
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


class LstmDivergenceError(RuntimeError):
    pass


def _sigmoid(x):
    """Logistic function, stable for large |x|, without boolean-mask indexing.

    Each element takes the same float operations as the two-branch form
    1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) otherwise, so the result
    is bit-identical to it (signed zeros and NaN signs included).
    """
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0, e) / (1.0 + e)


@dataclass
class LstmConfig:
    input_dim: int
    hidden: int = HIDDEN_SIZE
    dropout: float = DEFAULT_DROPOUT
    lr: float = DEFAULT_LR
    batch_size: int = DEFAULT_BATCH
    max_epochs: int = DEFAULT_EPOCHS
    clip_norm: float = DEFAULT_CLIP
    seed: int = 0


def init_params(config: LstmConfig) -> dict:
    """Uniform fan-in initialization; forget-gate biases start at 1.0."""
    rng = np.random.default_rng(config.seed)
    H, D = config.hidden, config.input_dim

    def unif(shape, fan_in):
        s = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-s, s, size=shape)

    params = {}
    for layer, din in ((1, D), (2, H)):
        params[f"W{layer}"] = unif((4 * H, din), din)
        params[f"U{layer}"] = unif((4 * H, H), H)
        b = np.zeros(4 * H)
        b[H : 2 * H] = 1.0  # forget gate
        params[f"b{layer}"] = b
    params["gamma"] = np.ones(H)
    params["beta"] = np.zeros(H)
    params["w_out"] = unif(H, H)
    params["b_out"] = np.zeros(1)
    return params


def _layer_forward(W, U, b, X):
    """One LSTM layer over (B, T, D) input.

    Returns the hidden sequence, the per-step cache tuples and each step's
    (B, 4H) sigmoid of all four gate pre-activations, of which the cached
    i, f and o are column views.
    """
    B, T, _ = X.shape
    H = W.shape[0] // 4
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    Hs = np.zeros((B, T, H))
    steps, gates = [], []
    for t in range(T):
        a = X[:, t] @ W.T + h @ U.T + b
        # one activation call for i, f and o (the g block's sigmoid is unused)
        s = _sigmoid(a)
        i, f, o = s[:, :H], s[:, H : 2 * H], s[:, 3 * H :]
        g = np.tanh(a[:, 2 * H : 3 * H])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        steps.append((X[:, t], h, c, i, f, g, o, tanh_c))
        gates.append(s)
        h = o * tanh_c
        c = c_new
        Hs[:, t] = h
    return Hs, steps, gates


def _layer_backward(W, U, dHs, steps, gates, input_grad=True):
    """Backprop through one layer; dX is None unless ``input_grad``."""
    B, T, H = dHs.shape
    dW = np.zeros_like(W)
    dU = np.zeros_like(U)
    db = np.zeros(4 * H)
    dX = np.zeros((B, T, W.shape[1])) if input_grad else None
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    # the i, f and o gradients are upstream * s * (1 - s) over the whole
    # (B, 4H) row; the g block of upstream stays 0 and its gradient is
    # written separately
    upstream = np.zeros((B, 4 * H))
    da = np.empty((B, 4 * H))
    for t in reversed(range(T)):
        x_t, h_prev, c_prev, i, f, g, o, tanh_c = steps[t]
        s = gates[t]
        dh = dHs[:, t] + dh_next
        dc = dc_next + dh * o * (1.0 - tanh_c**2)
        np.multiply(dc, g, out=upstream[:, :H])
        np.multiply(dc, c_prev, out=upstream[:, H : 2 * H])
        np.multiply(dh, tanh_c, out=upstream[:, 3 * H :])
        np.multiply(upstream, s, out=da)
        da *= 1.0 - s
        da[:, 2 * H : 3 * H] = dc * i * (1.0 - g**2)
        dW += da.T @ x_t
        dU += da.T @ h_prev
        db += da.sum(axis=0)
        if input_grad:
            dX[:, t] = da @ W
        dh_next = da @ U
        dc_next = dc * f
    return dX, dW, dU, db


def forward(params: dict, state: dict, X: np.ndarray, training: bool, dropout_mask=None):
    """Windows (B, T, D) -> predictions (B,) plus a cache for backward."""
    Hs1, steps1, gates1 = _layer_forward(params["W1"], params["U1"], params["b1"], X)
    Hs2, steps2, gates2 = _layer_forward(params["W2"], params["U2"], params["b2"], Hs1)
    hT = Hs2[:, -1]

    if training:
        mu = hT.mean(axis=0)
        var = hT.var(axis=0)
    else:
        mu = state["running_mean"]
        var = state["running_var"]
    istd = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (hT - mu) * istd
    ybn = params["gamma"] * xhat + params["beta"]

    if training and dropout_mask is not None:
        ydo = ybn * dropout_mask
    else:
        dropout_mask = None
        ydo = ybn

    pred = ydo @ params["w_out"] + params["b_out"][0]
    cache = dict(
        X=X, steps1=steps1, steps2=steps2, gates1=gates1, gates2=gates2, Hs1=Hs1, hT=hT,
        xhat=xhat, istd=istd, ydo=ydo, mask=dropout_mask, training=training,
    )
    return pred, cache


def backward(params: dict, cache: dict, dpred: np.ndarray) -> dict:
    B = len(dpred)
    grads = {}
    grads["w_out"] = cache["ydo"].T @ dpred
    grads["b_out"] = np.array([dpred.sum()])
    dydo = np.outer(dpred, params["w_out"])
    dybn = dydo * cache["mask"] if cache["mask"] is not None else dydo

    xhat, istd = cache["xhat"], cache["istd"]
    grads["gamma"] = (dybn * xhat).sum(axis=0)
    grads["beta"] = dybn.sum(axis=0)
    dxhat = dybn * params["gamma"]
    if cache["training"]:
        dhT = istd / B * (B * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
    else:
        dhT = dxhat * istd

    dHs2 = np.zeros_like(cache["Hs1"])
    dHs2[:, -1] = dhT
    dHs1, grads["W2"], grads["U2"], grads["b2"] = _layer_backward(
        params["W2"], params["U2"], dHs2, cache["steps2"], cache["gates2"]
    )
    # nothing reads the gradient with respect to the input windows
    _, grads["W1"], grads["U1"], grads["b1"] = _layer_backward(
        params["W1"], params["U1"], dHs1, cache["steps1"], cache["gates1"], input_grad=False
    )
    return grads


def mse_loss_and_grads(params, state, X, y, training=False, dropout_mask=None):
    """Mean squared error of ``forward`` on (X, y), its parameter gradients and the forward cache."""
    pred, cache = forward(params, state, X, training, dropout_mask)
    resid = pred - y
    loss = float(np.mean(resid**2))
    grads = backward(params, cache, 2.0 * resid / len(y))
    return loss, grads, cache


@dataclass
class LstmModel:
    config: LstmConfig
    params: dict
    running_mean: np.ndarray
    running_var: np.ndarray
    curve: list = field(default_factory=list)
    best_epoch: int = 0
    kind: str = field(default="lstm", init=False)

    @property
    def state(self) -> dict:
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 3 or X.shape[2] != self.config.input_dim:
            raise ValueError(f"expected (n, W, {self.config.input_dim}) windows, got {X.shape}")
        pred, _ = forward(self.params, self.state, X, training=False)
        return pred

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "params": {k: v.tolist() for k, v in self.params.items()},
            "running_mean": self.running_mean.tolist(),
            "running_var": self.running_var.tolist(),
            "curve": self.curve,
            "best_epoch": self.best_epoch,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LstmModel":
        config = LstmConfig(**d["config"])
        params = {k: np.array(v) for k, v in d["params"].items()}
        return cls(
            config=config, params=params,
            running_mean=np.array(d["running_mean"]), running_var=np.array(d["running_var"]),
            curve=list(d["curve"]), best_epoch=d["best_epoch"],
        )


def lstm_train(X, y, config: LstmConfig, X_val=None, y_val=None) -> LstmModel:
    """Fit on windows (N, T, D); keeps the snapshot with the lowest curve loss.

    The curve holds the deterministic-mode MSE before training (index 0) and
    after each epoch, on the validation windows when they are given and on
    the training windows otherwise; ``best_epoch`` indexes its minimum.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 3 or len(X) == 0:
        raise ValueError("need a non-empty (n, W, q) window array")
    if X.shape[2] != config.input_dim:
        raise ValueError(f"window dimension {X.shape[2]} does not match config input_dim {config.input_dim}")
    if X_val is not None:
        X_val = np.asarray(X_val, dtype=np.float64)
        y_val = np.asarray(y_val, dtype=np.float64)
        if X_val.shape[1:] != X.shape[1:]:
            raise ValueError("validation windows must match training window shape")

    params = init_params(config)
    # the head starts at the label mean: from 0, the 1e-3 Adam steps cannot
    # reach labels far from 0 (PHQ-8 spans 0-24) within the paper's epochs
    params["b_out"][:] = y.mean()
    state = {"running_mean": np.zeros(config.hidden), "running_var": np.ones(config.hidden)}
    rng = np.random.default_rng(config.seed + 1)

    adam_m = {k: np.zeros_like(v) for k, v in params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in params.items()}
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    step = 0
    keep = 1.0 - config.dropout

    X_score, y_score = (X, y) if X_val is None else (X_val, y_val)

    def score():
        pred, _ = forward(params, state, X_score, training=False)
        return float(np.mean((pred - y_score) ** 2))

    curve = [score()]
    best = {k: v.copy() for k, v in params.items()}
    best_state = {k: v.copy() for k, v in state.items()}
    best_epoch = 0

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(X))
        for lo in range(0, len(X), config.batch_size):
            batch = order[lo : lo + config.batch_size]
            Xb, yb = X[batch], y[batch]

            if keep < 1.0:
                mask = (rng.random((len(batch), config.hidden)) < keep) / keep
            else:
                mask = None
            loss, grads, cache = mse_loss_and_grads(params, state, Xb, yb, training=True, dropout_mask=mask)
            if not np.isfinite(loss):
                raise LstmDivergenceError(f"training loss diverged at epoch {epoch} (config={config})")
            # update running statistics from this batch
            mu, var = cache["hT"].mean(axis=0), cache["hT"].var(axis=0)
            state["running_mean"] = (1 - BN_MOMENTUM) * state["running_mean"] + BN_MOMENTUM * mu
            state["running_var"] = (1 - BN_MOMENTUM) * state["running_var"] + BN_MOMENTUM * var

            gnorm = np.sqrt(sum(float((g**2).sum()) for g in grads.values()))
            if config.clip_norm > 0 and gnorm > config.clip_norm:
                scale = config.clip_norm / gnorm
                grads = {k: g * scale for k, g in grads.items()}

            step += 1
            for k in params:
                adam_m[k] = beta1 * adam_m[k] + (1 - beta1) * grads[k]
                adam_v[k] = beta2 * adam_v[k] + (1 - beta2) * grads[k] ** 2
                mhat = adam_m[k] / (1 - beta1**step)
                vhat = adam_v[k] / (1 - beta2**step)
                params[k] = params[k] - config.lr * mhat / (np.sqrt(vhat) + adam_eps)

        curve.append(score())
        if curve[-1] < curve[best_epoch]:
            best = {k: v.copy() for k, v in params.items()}
            best_state = {k: v.copy() for k, v in state.items()}
            best_epoch = epoch

    return LstmModel(
        config=config, params=best,
        running_mean=best_state["running_mean"], running_var=best_state["running_var"],
        curve=curve, best_epoch=best_epoch,
    )
