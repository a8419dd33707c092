"""Single-hidden-layer perceptron trained by limited-memory quasi-Newton steps.

tanh hidden units, a sigmoid output unit, mean cross-entropy loss with a
light L2 penalty on the weight matrices.  Initialization is seeded and the
optimizer is full-batch, so training is bit-reproducible.
"""

from __future__ import annotations

import numpy as np

from .linear import sigmoid
from .optim import lbfgs


def _unpack(theta: np.ndarray, d: int, h: int):
    i = 0
    w1 = theta[i : i + d * h].reshape(d, h)
    i += d * h
    b1 = theta[i : i + h]
    i += h
    w2 = theta[i : i + h]
    i += h
    b2 = theta[i]
    return w1, b1, w2, b2


def nn_loss_grad(theta: np.ndarray, X: np.ndarray, y: np.ndarray, h: int, reg: float):
    """Loss and analytic gradient for the packed parameter vector.

    The gradient blocks are written into one vector laid out like ``theta``.
    """
    n, d = X.shape
    w1, b1, w2, b2 = _unpack(theta, d, h)
    a = X @ w1
    a += b1
    np.tanh(a, out=a)
    z = a @ w2
    z += b2
    loss = float(
        np.add.reduce(np.logaddexp(0.0, z) - y * z) / n
        + reg * (np.add.reduce(w1 * w1, axis=None) + np.add.reduce(w2 * w2)) / (2 * n)
    )
    dz = sigmoid(z)
    dz -= y
    dz /= n
    grad = np.empty_like(theta)
    gw1, gb1, gw2, _ = _unpack(grad, d, h)
    np.matmul(a.T, dz, out=gw2)
    gw2 += reg * w2 / n
    grad[-1] = np.add.reduce(dz)
    dpre = dz[:, None] * w2
    a *= a
    dpre *= np.subtract(1.0, a, out=a)
    np.matmul(X.T, dpre, out=gw1)
    gw1 += reg * w1 / n
    np.add.reduce(dpre, axis=0, out=gb1)
    return loss, grad


def init_params(d: int, h: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    s1 = np.sqrt(6.0 / (d + h))
    s2 = np.sqrt(6.0 / (h + 1))
    w1 = rng.uniform(-s1, s1, size=(d, h))
    w2 = rng.uniform(-s2, s2, size=h)
    return np.concatenate([w1.ravel(), np.zeros(h), w2, [0.0]])


def fit_nn(X: np.ndarray, y: np.ndarray, hp: dict, seed: int) -> dict:
    h = int(hp["hidden_size"])
    reg = float(hp["regularization"])
    theta0 = init_params(X.shape[1], h, seed)
    theta, n_iter, converged = lbfgs(
        lambda t: nn_loss_grad(t, X, y, h, reg),
        theta0,
        max_iter=int(hp["max_iter"]),
        tol=float(hp["tol"]),
    )
    w1, b1, w2, b2 = _unpack(theta, X.shape[1], h)
    return {
        "w1": w1,
        "b1": b1,
        "w2": w2,
        "b2": float(b2),
        "n_iter": int(n_iter),
        "converged": bool(converged),
    }


def score_nn(params: dict, X: np.ndarray) -> np.ndarray:
    a = np.tanh(X @ params["w1"] + params["b1"])
    return sigmoid(a @ params["w2"] + params["b2"])
