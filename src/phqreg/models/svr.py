"""Epsilon-SVR trained by sequential minimal optimization on the dual.

The dual is solved in the 2n-variable form z = [alpha; alpha*],
u = [+1...; -1...]:

    min  f(z) = 1/2 z^T Qhat z + p^T z
    s.t. u^T z = 0,  0 <= z <= C

with Qhat[s,t] = u_s u_t K(x_s, x_t) and p = [eps - y; eps + y]. Working pairs
are chosen by maximal KKT violation; training stops when the violation gap
drops below ``tol``, and the model keeps that final gap as ``kkt_gap``.
Inputs are min-max normalized to [0,1] with ranges stored from the training
data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import min_max_scale

DEFAULT_C = 1.0
DEFAULT_GAMMA = 0.01
DEFAULT_EPSILON = 1e-3
DEFAULT_TOL = 1e-3
KERNELS = ("linear", "rbf")


class SvrConvergenceError(RuntimeError):
    pass


def _check_finite(a: np.ndarray, what: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite values")
    return a


def kernel_matrix(kind: str, A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    if kind == "linear":
        return A @ B.T
    if kind == "rbf":
        sq = (A**2).sum(axis=1)[:, None] + (B**2).sum(axis=1)[None, :] - 2.0 * (A @ B.T)
        return np.exp(-gamma * np.maximum(sq, 0.0))
    raise ValueError(f"unknown kernel {kind!r}, expected one of {KERNELS}")


@dataclass
class SvrModel:
    kernel: str
    C: float
    gamma: float
    alpha: np.ndarray  # (n,)
    alpha_star: np.ndarray  # (n,)
    bias: float
    train_X: np.ndarray  # normalized training inputs (n, d)
    mins: np.ndarray
    maxs: np.ndarray
    n_iter: int
    kkt_gap: float  # the KKT violation gap at which SMO stopped: <= tol, below 0 when no pair violates
    kind: str = field(default="svr", init=False)

    @property
    def beta(self) -> np.ndarray:
        return self.alpha - self.alpha_star

    def predict(self, X) -> np.ndarray:
        X = _check_finite(X, "X")
        if X.ndim != 2 or X.shape[1] != self.train_X.shape[1]:
            raise ValueError(f"expected (n, {self.train_X.shape[1]}) inputs, got {X.shape}")
        K = kernel_matrix(self.kernel, min_max_scale(X, self.mins, self.maxs), self.train_X, self.gamma)
        return K @ self.beta + self.bias

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel, "C": self.C, "gamma": self.gamma,
            "alpha": self.alpha.tolist(), "alpha_star": self.alpha_star.tolist(),
            "bias": self.bias, "train_X": self.train_X.tolist(),
            "mins": self.mins.tolist(), "maxs": self.maxs.tolist(),
            "n_iter": self.n_iter, "kkt_gap": self.kkt_gap,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SvrModel":
        return cls(
            kernel=d["kernel"], C=d["C"], gamma=d["gamma"],
            alpha=np.array(d["alpha"]), alpha_star=np.array(d["alpha_star"]),
            bias=d["bias"], train_X=np.array(d["train_X"]).reshape(len(d["alpha"]), -1),
            mins=np.array(d["mins"]), maxs=np.array(d["maxs"]),
            n_iter=d["n_iter"], kkt_gap=d["kkt_gap"],
        )


def svr_train(
    X,
    y,
    kernel: str = "rbf",
    C: float = DEFAULT_C,
    gamma: float = DEFAULT_GAMMA,
    epsilon: float = DEFAULT_EPSILON,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
) -> SvrModel:
    """Fit epsilon-SVR by SMO to KKT violation <= tol."""
    X = _check_finite(X, "X")
    y = _check_finite(y, "y")
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be (n, d) with one target per row")
    n = len(X)
    if n < 2:
        raise ValueError("need at least 2 training instances")
    if C <= 0 or epsilon < 0:
        raise ValueError("C must be positive and epsilon non-negative")
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}, expected one of {KERNELS}")

    mins, maxs = X.min(axis=0), X.max(axis=0)
    Xn = min_max_scale(X, mins, maxs)

    K = kernel_matrix(kernel, Xn, Xn, gamma)
    u = np.concatenate([np.ones(n), -np.ones(n)])
    p = np.concatenate([epsilon - y, epsilon + y])
    src = np.concatenate([np.arange(n), np.arange(n)])  # 2n -> kernel row

    z = np.zeros(2 * n)
    grad = p.copy()  # Qhat @ 0 + p
    if max_iter is None:
        max_iter = max(100_000, 2000 * n)

    it = 0
    while True:
        up = ((u > 0) & (z < C)) | ((u < 0) & (z > 0))
        low = ((u > 0) & (z > 0)) | ((u < 0) & (z < C))
        crit = -u * grad
        i = int(np.where(up)[0][np.argmax(crit[up])])
        j = int(np.where(low)[0][np.argmin(crit[low])])
        gap = crit[i] - crit[j]
        if gap <= tol:
            bias = float((crit[i] + crit[j]) / 2.0)  # midpoint of the final KKT bracket
            break
        if it >= max_iter:
            raise SvrConvergenceError(
                f"SMO did not converge: gap {gap:.3g} > tol {tol:.3g} after {it} iterations "
                f"(n={n}, C={C}, epsilon={epsilon}, kernel={kernel})"
            )

        qi = u * u[i] * K[src, src[i]]
        qj = u * u[j] * K[src, src[j]]
        a = qi[i] + qj[j] - 2.0 * u[i] * u[j] * qi[j]
        a = max(a, 1e-12)
        lam = gap / a
        # box clipping: z_i moves by +u_i*lam, z_j by -u_j*lam
        lam = min(lam, C - z[i] if u[i] > 0 else z[i])
        lam = min(lam, z[j] if u[j] > 0 else C - z[j])

        z[i] += u[i] * lam
        z[j] -= u[j] * lam
        grad += lam * (u[i] * qi - u[j] * qj)
        it += 1

    return SvrModel(
        kernel=kernel, C=C, gamma=gamma,
        alpha=z[:n].copy(), alpha_star=z[n:].copy(), bias=bias,
        train_X=Xn, mins=mins, maxs=maxs,
        n_iter=it, kkt_gap=float(gap),
    )
