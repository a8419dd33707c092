"""Linear-family models: least squares, logistic regression, linear SVM."""

from __future__ import annotations

import numpy as np

from .optim import armijo_step


def _with_intercept(X: np.ndarray) -> np.ndarray:
    return np.hstack([X, np.ones((X.shape[0], 1))])


def score_linear(params: dict, X: np.ndarray) -> np.ndarray:
    return X @ np.asarray(params["weights"]) + params["bias"]


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1/(1+e^-z) for z >= 0 and e^z/(1+e^z) otherwise, so exp never overflows.

    ``minimum(z, -z)`` is -|z| that keeps the sign bit of a NaN input.
    """
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def score_log(params: dict, X: np.ndarray) -> np.ndarray:
    return sigmoid(score_linear(params, X))


def fit_lin(X: np.ndarray, y: np.ndarray) -> dict:
    """Least squares on the 0/1 labels; raw output is the ranking score."""
    theta, *_ = np.linalg.lstsq(_with_intercept(X), y, rcond=None)
    return {"weights": theta[:-1], "bias": float(theta[-1])}


def log_loss_grad(theta: np.ndarray, X: np.ndarray, y: np.ndarray, reg: float):
    """Mean cross-entropy with an L2 penalty on the weights (bias excluded)."""
    n, d = X.shape
    w, b = theta[:d], theta[d]
    z = X @ w + b
    # softplus(z) - y*z is the stable per-row cross entropy
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z) + reg * (w @ w) / (2 * n))
    p = sigmoid(z)
    gw = X.T @ (p - y) / n + reg * w / n
    gb = float(np.mean(p - y))
    return loss, np.concatenate([gw, [gb]])


def _log_hessian(theta: np.ndarray, X: np.ndarray, reg: float) -> np.ndarray:
    """Hessian of ``log_loss_grad``: X'SX/n with S = diag(p(1-p)), plus reg/n on the
    weights; the bias row and column come from sums, so X gets no intercept column."""
    n, d = X.shape
    p = sigmoid(X @ theta[:d] + theta[d])
    s = p * (1.0 - p) / n
    root = X * np.sqrt(s)[:, None]
    hess = np.empty((d + 1, d + 1))
    hess[:d, :d] = root.T @ root + (reg / n) * np.eye(d)
    hess[:d, d] = hess[d, :d] = X.T @ s
    hess[d, d] = s.sum()
    return hess


def fit_log(X: np.ndarray, y: np.ndarray, hp: dict) -> dict:
    """Regularized maximum likelihood by damped Newton (IRLS) steps with Armijo
    backtracking; stops when the gradient norm is below ``tol`` and half the
    squared Newton decrement (the loss gap to the optimum that the quadratic
    model predicts) is below ``tol**2``, after ``max_iter`` steps, or when no
    step decreases the loss.  The decrement matters where the Hessian is flat:
    a gradient under ``tol`` can still leave a loss gap of order 1e-10 there.
    ``converged`` is True only when that first rule ended the fit."""
    reg = float(hp["regularization"])
    max_iter, tol = int(hp["max_iter"]), float(hp["tol"])

    def fun_grad(t):
        return log_loss_grad(t, X, y, reg)

    theta = np.zeros(X.shape[1] + 1)
    f, g = fun_grad(theta)
    n_iter = 0
    converged = False
    while n_iter < max_iter:
        hess = _log_hessian(theta, X, reg)
        try:
            direction = np.linalg.solve(hess, -g)
        except np.linalg.LinAlgError:  # exactly singular, e.g. reg=0 with a constant column
            direction = np.linalg.lstsq(hess, -g, rcond=None)[0]
        converged = float(np.linalg.norm(g)) < tol and -float(g @ direction) < 2.0 * tol**2
        if converged:
            break
        res = armijo_step(fun_grad, theta, f, g, direction, 1.0)
        if res is None:
            break
        theta, f, g, _ = res
        n_iter += 1
    return {
        "weights": theta[:-1],
        "bias": float(theta[-1]),
        "n_iter": n_iter,
        "converged": converged,
    }


def fit_svm(X: np.ndarray, y: np.ndarray, hp: dict) -> dict:
    """L2-regularized hinge loss via deterministic full-batch subgradient steps."""
    reg = float(hp["regularization"])
    max_iter = int(hp["max_iter"])
    n, d = X.shape
    y_pm = 2.0 * y - 1.0
    w = np.zeros(d)
    b = 0.0
    for t in range(max_iter):
        margins = y_pm * (X @ w + b)
        viol = margins < 1.0
        gw = reg * w - (X[viol].T @ y_pm[viol]) / n
        gb = -float(np.sum(y_pm[viol])) / n
        eta = 1.0 / (reg * (t + 1))
        w -= eta * gw
        b -= eta * gb
    return {"weights": w, "bias": float(b)}
