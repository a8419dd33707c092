"""Deterministic full-batch optimizers shared by the trainable models: the
Armijo line search that every Newton (``linear.fit_log``) and quasi-Newton
step goes through, and ``lbfgs``, which trains the perceptron (``mlp.fit_nn``)."""

from __future__ import annotations

from typing import Callable

import numpy as np

FunGrad = Callable[[np.ndarray], tuple[float, np.ndarray]]

_ARMIJO_C1 = 1e-4
_BACKTRACK_SHRINK = 0.5
_MAX_BACKTRACKS = 60


def armijo_step(fun_grad: FunGrad, x, f, g, direction, step0: float):
    """Backtracking line search; returns (x_new, f_new, g_new, step) or None."""
    descent = float(g @ direction)
    if descent >= 0.0:
        return None
    step = step0
    for _ in range(_MAX_BACKTRACKS):
        x_new = x + step * direction
        f_new, g_new = fun_grad(x_new)
        if np.isfinite(f_new) and f_new <= f + _ARMIJO_C1 * step * descent:
            return x_new, f_new, g_new, step
        step *= _BACKTRACK_SHRINK
    return None


def lbfgs(
    fun_grad: FunGrad,
    x0: np.ndarray,
    max_iter: int,
    tol: float,
    memory: int = 10,
) -> tuple[np.ndarray, int, bool]:
    """Limited-memory quasi-Newton minimization (two-loop recursion).

    Curvature pairs with non-positive s.y are skipped; the search direction
    falls back to steepest descent whenever the two-loop direction is not a
    descent direction.  Deterministic given the starting point.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun_grad(x)
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []
    for it in range(max_iter):
        if float(np.linalg.norm(g)) < tol:
            return x, it, True
        q = g.copy()
        alphas = []
        for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = rho * float(s @ q)
            alphas.append(a)
            q -= a * y
        if y_hist:
            y_last = y_hist[-1]
            gamma = float(s_hist[-1] @ y_last) / max(float(y_last @ y_last), 1e-300)
            q *= gamma
        for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
            b = rho * float(y @ q)
            q += (a - b) * s
        direction = -q
        res = armijo_step(fun_grad, x, f, g, direction, 1.0)
        if res is None:
            res = armijo_step(fun_grad, x, f, g, -g, 1.0)
            if res is None:
                return x, it, False
        x_new, f_new, g_new, _ = res
        s = x_new - x
        yv = g_new - g
        sy = float(s @ yv)
        if sy > 1e-10:
            s_hist.append(s)
            y_hist.append(yv)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > memory:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        x, f, g = x_new, f_new, g_new
    return x, max_iter, float(np.linalg.norm(g)) < tol
