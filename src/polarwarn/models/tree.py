"""Greedy binary decision tree split on Gini impurity.

A node splits whenever it is impure, the depth budget allows it, and some
feature still separates the rows under the leaf-size floor; the split with
the lowest child-weighted Gini wins, ties going to the lowest feature index
and then the lowest threshold.  Splitting on zero Gini gain is allowed,
which is what lets XOR-style patterns resolve at depth 2.  A split's
threshold is the midpoint of the two values it separates, or the lower value
where that midpoint rounds up to the upper one.
"""

from __future__ import annotations

import numpy as np


def _best_split(X: np.ndarray, y: np.ndarray, min_leaf: int):
    """Lowest child-weighted Gini over all (feature, midpoint) candidates.

    Every feature is scored in one pass over the column-wise stable sort.
    """
    n = X.shape[0]
    total_pos = float(np.sum(y))
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    lp = np.cumsum(y[order], axis=0)[:-1]
    left_sizes = np.arange(1, n)
    valid = (xs[:-1] < xs[1:]) & ((left_sizes >= min_leaf) & (n - left_sizes >= min_leaf))[:, None]
    if not valid.any():
        return None
    rp = total_pos - lp
    ln = left_sizes.astype(float)[:, None]
    rn = (n - left_sizes).astype(float)[:, None]
    g_left = 1.0 - (lp / ln) ** 2 - (1.0 - lp / ln) ** 2
    g_right = 1.0 - (rp / rn) ** 2 - (1.0 - rp / rn) ** 2
    weighted = np.where(valid, (ln * g_left + rn * g_right) / n, np.inf)
    j = int(np.argmin(weighted.min(axis=0)))  # first minimum = lowest feature
    i = int(np.argmin(weighted[:, j]))  # first minimum = lowest threshold
    lo, hi = float(xs[i, j]), float(xs[i + 1, j])
    mid = (lo + hi) / 2.0
    # between adjacent floats the midpoint can round up to hi (or overflow), and
    # `_grow` would then send the rows at hi left, against the scored split
    return float(weighted[i, j]), j, mid if mid < hi else lo


def _grow(X: np.ndarray, y: np.ndarray, depth: int, max_depth, min_leaf: int) -> dict:
    n = len(y)
    n_pos = float(np.sum(y))
    if n_pos in (0.0, float(n)) or (max_depth is not None and depth >= max_depth) or n < 2 * min_leaf:
        return {"leaf": True, "score": n_pos / n, "n": n}
    split = _best_split(X, y, min_leaf)
    if split is None:
        return {"leaf": True, "score": n_pos / n, "n": n}
    _, feature, threshold = split
    mask = X[:, feature] <= threshold
    return {
        "leaf": False,
        "feature": feature,
        "threshold": threshold,
        "left": _grow(X[mask], y[mask], depth + 1, max_depth, min_leaf),
        "right": _grow(X[~mask], y[~mask], depth + 1, max_depth, min_leaf),
    }


def fit_dt(X: np.ndarray, y: np.ndarray, hp: dict) -> dict:
    max_depth = hp["max_depth"]
    min_leaf = hp["min_leaf"]
    root = _grow(X, y.astype(float), 0, max_depth, min_leaf)
    return {"root": root}


def _walk(node: dict, row: np.ndarray) -> float:
    while not node["leaf"]:
        node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
    return node["score"]


def score_dt(params: dict, X: np.ndarray) -> np.ndarray:
    root = params["root"]
    return np.array([_walk(root, row) for row in X])

