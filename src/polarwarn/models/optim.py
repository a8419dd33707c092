"""Deterministic full-batch optimizers shared by the trainable models: the
Armijo line search that every Newton (``linear.fit_log``) and quasi-Newton
step goes through, and ``lbfgs``, which trains the perceptron (``mlp.fit_nn``)."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

FunGrad = Callable[[np.ndarray], tuple[float, np.ndarray]]

_ARMIJO_C1 = 1e-4
_BACKTRACK_SHRINK = 0.5
_MAX_BACKTRACKS = 60
_LBFGS_MEMORY = 10  # curvature pairs kept


def armijo_step(fun_grad: FunGrad, x, f, g, direction, step0: float):
    """Backtracking line search; returns (x_new, f_new, g_new, step) or None."""
    descent = float(g.dot(direction))
    if descent >= 0.0:
        return None
    step = step0
    for _ in range(_MAX_BACKTRACKS):
        x_new = direction * step
        x_new += x
        f_new, g_new = fun_grad(x_new)
        if math.isfinite(f_new) and f_new <= f + _ARMIJO_C1 * step * descent:
            return x_new, f_new, g_new, step
        step *= _BACKTRACK_SHRINK
    return None


def lbfgs(
    fun_grad: FunGrad,
    x0: np.ndarray,
    max_iter: int,
    tol: float,
) -> tuple[np.ndarray, int, bool]:
    """Limited-memory quasi-Newton minimization (two-loop recursion).

    Curvature pairs with non-positive s.y are skipped; the search direction
    falls back to steepest descent whenever the two-loop direction is not a
    descent direction.  Deterministic given the starting point.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun_grad(x)
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []  # (s, y, rho), oldest first
    sy = yy = 0.0  # s.y and y.y of the newest pair
    buf = np.empty_like(x)  # holds a*y, then (a-b)*s
    for it in range(max_iter):
        if math.sqrt(g.dot(g)) < tol:
            return x, it, True
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            a = rho * float(s.dot(q))
            alphas.append(a)
            q -= np.multiply(y, a, out=buf)
        if pairs:
            q *= sy / max(yy, 1e-300)
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            b = rho * float(y.dot(q))
            q += np.multiply(s, a - b, out=buf)
        res = armijo_step(fun_grad, x, f, g, np.negative(q, out=q), 1.0)
        if res is None:
            res = armijo_step(fun_grad, x, f, g, -g, 1.0)
            if res is None:
                return x, it, False
        x_new, f_new, g_new, _ = res
        s = x_new - x
        yv = g_new - g
        s_y = float(s.dot(yv))
        if s_y > 1e-10:
            pairs.append((s, yv, 1.0 / s_y))
            sy, yy = s_y, float(yv.dot(yv))
            if len(pairs) > _LBFGS_MEMORY:
                pairs.pop(0)
        x, f, g = x_new, f_new, g_new
    return x, max_iter, math.sqrt(g.dot(g)) < tol
