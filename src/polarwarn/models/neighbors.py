"""K-nearest-neighbors by exact Euclidean search over the stored training set."""

from __future__ import annotations

import numpy as np


def fit_knn(X: np.ndarray, y: np.ndarray, hp: dict) -> dict:
    return {"train_x": X.copy(), "train_y": y.astype(np.int8), "k": int(hp["k"])}


# Floats in one block's (rows, train rows, features) gap array: 256 KB.
_BLOCK_FLOATS = 1 << 15


def score_knn(params: dict, X: np.ndarray) -> np.ndarray:
    """Fraction of positive labels among the k nearest training rows.

    Squared distances are sums of squared feature gaps, computed for a block
    of query rows at a time.  Exact distance ties resolve to the lowest
    training-row index: a row's neighbors are every training row nearer than
    its k-th distance plus the lowest-index rows at that distance, the first
    k of a stable sort.
    """
    train_x = params["train_x"]
    train_pos = params["train_y"] == 1
    n = train_x.shape[0]
    k = min(int(params["k"]), n)
    rows = max(1, _BLOCK_FLOATS // max(1, train_x.size))
    scores = np.empty(X.shape[0])
    for start in range(0, X.shape[0], rows):
        gaps = train_x[None] - X[start : start + rows, None]
        d2 = np.add.reduce(np.square(gaps, out=gaps), axis=2)
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
        nearer = d2 < kth
        tied = d2 == kth
        need = k - np.count_nonzero(nearer, axis=1)[:, None]
        nearest = nearer | (tied & (np.cumsum(tied, axis=1) <= need))
        scores[start : start + rows] = np.count_nonzero(nearest & train_pos, axis=1) / k
    return scores
