"""Two-layer LSTM sequence regressor trained with backprop through time.

Architecture: two stacked LSTM layers of hidden size 16; the last timestep's
hidden state goes through batch normalization, dropout (0.5, training only)
and a linear dense head producing one scalar per window. Loss is MSE,
optimized with Adam (step 1e-3, batch 32, global gradient-norm clip 5.0).
These are the paper's fixed values and the module constants HIDDEN_SIZE,
DEFAULT_DROPOUT, DEFAULT_LR, DEFAULT_BATCH and DEFAULT_CLIP; ``lstm_train``
takes only the epoch budget and the seed, and the input width comes from the
windows. The head's bias starts at the training-label mean. Training runs up
to ``max_epochs`` epochs (the pipeline passes the paper's 100, MAX_EPOCHS)
and keeps the parameter snapshot with the lowest validation loss (the
training loss without a validation set), scored once per epoch; inference
is deterministic (dropout off, frozen batch-norm statistics).

Everything is plain numpy in double precision so the analytic gradients can
be verified against central finite differences.

Each layer runs over time-major (T, B, .) buffers allocated once per call.
The forward pass computes every step's input projection X[t] @ W.T in one
stacked matmul before the loop; each step adds h @ U.T and the bias, takes one
sigmoid call over all four gate pre-activations (the g block then gets its
tanh) and writes its gates (gate by gate, so each is a contiguous block), cell
state and tanh(c) into the buffers. The backward loop keeps only the
recurrence (dh, dc, the gate gradients and da @ U); the weight and bias
gradients and the second layer's input gradient are stacked products after
it, summed over reversed time from +0.0. The weight gradients are formed
SUM_CHUNK_STEPS steps at a time, so no T x 4H x D stack of per-step products
is ever alive. numpy's stacked matmul runs the same per-slice GEMM as a
per-step product, whatever the stack's length, and the sums keep the per-step
accumulation order, so parameters, the loss curve and predictions are
bit-identical to a per-step loop that activates each gate separately with a
boolean-mask sigmoid; tests/test_lstm.py keeps that form as its oracle. One
(T*B) x D GEMM over all steps would not keep these bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HIDDEN_SIZE = 16
DEFAULT_DROPOUT = 0.5
DEFAULT_LR = 1e-3
DEFAULT_BATCH = 32
DEFAULT_CLIP = 5.0
MAX_EPOCHS = 100
# the order in which lstm_train sums the squared gradients for the clip norm:
# the norm's last bits, and so the trained parameters, depend on it. It is
# the order backward fills its dict in, written out so that no dict order
# can change it.
CLIP_ORDER = ("w_out", "b_out", "gamma", "beta", "W2", "U2", "b2", "W1", "U1", "b1")
# steps per stacked product of the weight-gradient sums: bounds the stack of
# per-step (4H, D) products whatever the window length
SUM_CHUNK_STEPS = 8
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


class LstmDivergenceError(RuntimeError):
    pass


def _sigmoid(x, out=None):
    """Logistic function exp(min(x, 0)) / (1 + exp(-|x|)), stable for large |x|.

    Each element takes the same float operations as the two-branch form
    1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) otherwise, so the result
    is bit-identical to it (signed zeros and NaN signs included).
    """
    den = np.exp(-np.abs(x))
    den += 1.0
    out = np.exp(np.minimum(x, 0.0), out=out)
    out /= den
    return out


def init_params(input_dim: int, seed: int) -> dict:
    """Uniform fan-in initialization; forget-gate biases start at 1.0."""
    rng = np.random.default_rng(seed)
    H, D = HIDDEN_SIZE, input_dim

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
    """One LSTM layer over time-major (T, B, D) input; returns the layer's cache.

    The cache is the tuple (X, Hs, Cs, S, TC). Hs and Cs are (T + 1, B, H):
    index 0 holds the zero initial state and index t + 1 the state after step
    t. S is (T, 4, B, H): S[t] holds step t's activated gates i, f, g, o, each
    a contiguous (B, H) block. TC is (T, B, H), the tanh of each new cell state.
    """
    T, B, _ = X.shape
    H = U.shape[1]
    # X[t] @ W.T for every t at once: numpy runs the same (B, D) x (D, 4H)
    # GEMM per slice, so each step's pre-activation keeps its bytes
    A = np.matmul(X, W.T)
    Hs = np.zeros((T + 1, B, H))
    Cs = np.zeros((T + 1, B, H))
    S = np.empty((T, 4, B, H))
    TC = np.empty((T, B, H))
    A_g = A[:, :, 2 * H : 3 * H]
    UT = U.T
    hu = np.empty((B, 4 * H))
    sg = np.empty((B, 4 * H))
    ig = np.empty((B, H))
    for t in range(T):
        a = A[t]
        a += np.dot(Hs[t], UT, hu)
        a += b
        # one sigmoid call over the whole row, stored gate by gate; the g
        # gate's sigmoid is then overwritten by its tanh
        i, f, g, o = s = S[t]
        np.copyto(s, _sigmoid(a, out=sg).reshape(B, 4, H).transpose(1, 0, 2))
        np.tanh(A_g[t], out=g)
        c = np.multiply(f, Cs[t], out=Cs[t + 1])
        c += np.multiply(i, g, out=ig)
        np.multiply(o, np.tanh(c, out=TC[t]), out=Hs[t + 1])
    return X, Hs, Cs, S, TC


def _sum_over_time(P):
    """Sum of P[t] over t in reversed time, starting from +0.0 (the per-step accumulation order)."""
    total = np.zeros(P.shape[1:])
    for p in P[::-1]:
        total += p
    return total


def _sum_products_over_time(dA_T, X):
    """Sum of dA_T[t] @ X[t] over reversed time from +0.0, stacked SUM_CHUNK_STEPS steps at a time."""
    total = np.zeros((dA_T.shape[1], X.shape[2]))
    for hi in range(len(X), 0, -SUM_CHUNK_STEPS):
        lo = max(hi - SUM_CHUNK_STEPS, 0)
        for p in np.matmul(dA_T[lo:hi], X[lo:hi])[::-1]:
            total += p
    return total


def _layer_backward(W, U, dHs, layer, input_grad=True):
    """Backprop through one layer given (T, B, H) upstream gradients; dX is None unless ``input_grad``.

    The loop runs only the recurrence; the parameter gradients and dX are
    per-step products stacked over time, so each keeps its per-step bytes.
    """
    X, Hs, Cs, S, TC = layer
    T, B, H = dHs.shape
    one_minus_s = 1.0 - S
    dtanh_g = 1.0 - S[:, 2] ** 2
    dtanh_c = 1.0 - TC**2
    # the gate gradients of one step, gate by gate: the i, f and o blocks are
    # upstream * s * (1 - s); the g block is written after that product
    dg = np.zeros((4, B, H))
    # row t holds step t's (B, 4H) pre-activation gradient
    dA = np.empty((T, B, 4 * H))
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    for t in reversed(range(T)):
        i, f, g, o = S[t]
        dh = dHs[t] + dh_next
        dc = np.multiply(dh, o)
        dc *= dtanh_c[t]
        np.add(dc_next, dc, out=dc)
        np.multiply(dc, g, out=dg[0])
        np.multiply(dc, Cs[t], out=dg[1])
        np.multiply(dh, TC[t], out=dg[3])
        dg *= S[t]
        dg *= one_minus_s[t]
        np.multiply(dc, i, out=dg[2])
        dg[2] *= dtanh_g[t]
        da = dA[t]
        np.copyto(da.reshape(B, 4, H), dg.transpose(1, 0, 2))
        dh_next = np.dot(da, U)
        dc_next = dc * f
    dA_T = dA.transpose(0, 2, 1)
    dW = _sum_products_over_time(dA_T, X)
    dU = _sum_products_over_time(dA_T, Hs[:-1])
    db = _sum_over_time(dA.sum(axis=1))
    dX = np.matmul(dA, W) if input_grad else None
    return dX, dW, dU, db


def forward(params: dict, state: dict, X: np.ndarray, training: bool, dropout_mask=None):
    """Windows (B, T, D) -> predictions (B,) plus a cache for backward."""
    layer1 = _layer_forward(params["W1"], params["U1"], params["b1"], X.transpose(1, 0, 2))
    Hs1 = layer1[1]
    layer2 = _layer_forward(params["W2"], params["U2"], params["b2"], Hs1[1:])
    Hs2 = layer2[1]
    hT = Hs2[-1]

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
        layer1=layer1, layer2=layer2, hT=hT,
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

    Hs2 = cache["layer2"][1]
    dHs2 = np.zeros_like(Hs2[1:])
    dHs2[-1] = dhT
    dHs1, grads["W2"], grads["U2"], grads["b2"] = _layer_backward(
        params["W2"], params["U2"], dHs2, cache["layer2"]
    )
    # nothing reads the gradient with respect to the input windows
    _, grads["W1"], grads["U1"], grads["b1"] = _layer_backward(
        params["W1"], params["U1"], dHs1, cache["layer1"], input_grad=False
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
        q = self.params["W1"].shape[1]
        if X.ndim != 3 or X.shape[2] != q:
            raise ValueError(f"expected (n, W, {q}) windows, got {X.shape}")
        pred, _ = forward(self.params, self.state, X, training=False)
        return pred

    def to_dict(self) -> dict:
        return {
            "params": {k: v.tolist() for k, v in self.params.items()},
            "running_mean": self.running_mean.tolist(),
            "running_var": self.running_var.tolist(),
            "curve": self.curve,
            "best_epoch": self.best_epoch,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LstmModel":
        """The model a saved body describes; every array must have the shape init_params gives its input width."""
        params = {k: np.asarray(v, dtype=np.float64) for k, v in d["params"].items()}
        running_mean, running_var = (np.asarray(d[k], dtype=np.float64) for k in ("running_mean", "running_var"))
        W1 = params.get("W1")
        if W1 is None or W1.ndim != 2 or W1.shape[1] < 1:
            raise ValueError("params.W1 is not a (4 * hidden, input width) matrix")
        want = {k: v.shape for k, v in init_params(W1.shape[1], 0).items()}
        want.update(running_mean=(HIDDEN_SIZE,), running_var=(HIDDEN_SIZE,))
        got = {k: v.shape for k, v in params.items()}
        got.update(running_mean=running_mean.shape, running_var=running_var.shape)
        wrong = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
        if wrong:
            raise ValueError(f"for input width {W1.shape[1]}, these arrays are missing or misshapen: {', '.join(wrong)}")
        return cls(
            params=params, running_mean=running_mean, running_var=running_var,
            curve=[float(v) for v in d["curve"]], best_epoch=int(d["best_epoch"]),
        )


def lstm_train(X, y, max_epochs: int, seed: int, X_val=None, y_val=None) -> LstmModel:
    """Fit on windows (N, T, D); keeps the snapshot with the lowest curve loss.

    The curve holds the deterministic-mode MSE before training (index 0) and
    after each epoch, on the validation windows when they are given and on
    the training windows otherwise; ``best_epoch`` indexes its minimum.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 3 or len(X) == 0:
        raise ValueError("need a non-empty (n, W, q) window array")
    if y.shape != (len(X),):
        raise ValueError(f"{len(X)} training windows but labels of shape {y.shape}")
    if (X_val is None) != (y_val is None):
        raise ValueError("X_val and y_val must be given together")
    if X_val is not None:
        X_val = np.asarray(X_val, dtype=np.float64)
        y_val = np.asarray(y_val, dtype=np.float64)
        if X_val.shape[1:] != X.shape[1:]:
            raise ValueError("validation windows must match training window shape")
        if y_val.shape != (len(X_val),):
            raise ValueError(f"{len(X_val)} validation windows but labels of shape {y_val.shape}")

    params = init_params(X.shape[2], seed)
    # the head starts at the label mean: from 0, the 1e-3 Adam steps cannot
    # reach labels far from 0 (PHQ-8 spans 0-24) within the paper's epochs
    params["b_out"][:] = y.mean()
    state = {"running_mean": np.zeros(HIDDEN_SIZE), "running_var": np.ones(HIDDEN_SIZE)}
    rng = np.random.default_rng(seed + 1)

    adam_m = {k: np.zeros_like(v) for k, v in params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in params.items()}
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    step = 0
    keep = 1.0 - DEFAULT_DROPOUT

    X_score, y_score = (X, y) if X_val is None else (X_val, y_val)

    def score():
        pred, _ = forward(params, state, X_score, training=False)
        return float(np.mean((pred - y_score) ** 2))

    curve = [score()]
    best = {k: v.copy() for k, v in params.items()}
    best_state = {k: v.copy() for k, v in state.items()}
    best_epoch = 0

    for epoch in range(1, max_epochs + 1):
        order = rng.permutation(len(X))
        for lo in range(0, len(X), DEFAULT_BATCH):
            batch = order[lo : lo + DEFAULT_BATCH]
            Xb, yb = X[batch], y[batch]

            mask = (rng.random((len(batch), HIDDEN_SIZE)) < keep) / keep
            loss, grads, cache = mse_loss_and_grads(params, state, Xb, yb, training=True, dropout_mask=mask)
            if not np.isfinite(loss):
                raise LstmDivergenceError(f"training loss diverged at epoch {epoch} (seed {seed})")
            # update running statistics from this batch
            mu, var = cache["hT"].mean(axis=0), cache["hT"].var(axis=0)
            state["running_mean"] = (1 - BN_MOMENTUM) * state["running_mean"] + BN_MOMENTUM * mu
            state["running_var"] = (1 - BN_MOMENTUM) * state["running_var"] + BN_MOMENTUM * var

            gnorm = np.sqrt(sum(float((grads[k] ** 2).sum()) for k in CLIP_ORDER))
            if gnorm > DEFAULT_CLIP:
                scale = DEFAULT_CLIP / gnorm
                grads = {k: g * scale for k, g in grads.items()}

            step += 1
            for k in params:
                adam_m[k] = beta1 * adam_m[k] + (1 - beta1) * grads[k]
                adam_v[k] = beta2 * adam_v[k] + (1 - beta2) * grads[k] ** 2
                mhat = adam_m[k] / (1 - beta1**step)
                vhat = adam_v[k] / (1 - beta2**step)
                params[k] = params[k] - DEFAULT_LR * mhat / (np.sqrt(vhat) + adam_eps)

        curve.append(score())
        if curve[-1] < curve[best_epoch]:
            best = {k: v.copy() for k, v in params.items()}
            best_state = {k: v.copy() for k, v in state.items()}
            best_epoch = epoch

    return LstmModel(
        params=best,
        running_mean=best_state["running_mean"], running_var=best_state["running_var"],
        curve=curve, best_epoch=best_epoch,
    )
