"""Uniform fit/predict contract over the six benchmark classifiers.

Every model standardizes its inputs with statistics learned on the training
split, trains deterministically given (data, seed), and scores rows with a
ranking value: raw output for LIN, sigmoid probability for LOG, signed
margin for SVM, positive-neighbor fraction for KNN, leaf positive fraction
for DT and the output unit for NN.  Labels threshold the score at 0.5
(0 for the SVM margin).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import linear, mlp, neighbors, tree


class _Algorithm(NamedTuple):
    defaults: dict
    fit: Callable[[np.ndarray, np.ndarray, dict, int], dict]  # (X, y, hp, seed) -> params
    score: Callable[[dict, np.ndarray], np.ndarray]
    cut: float  # scores at or above the cut are labeled 1


_REGISTRY: dict[str, _Algorithm] = {
    "lin": _Algorithm({}, lambda X, y, hp, seed: linear.fit_lin(X, y), linear.score_linear, 0.5),
    "log": _Algorithm(
        {"regularization": 1.0, "max_iter": 2000, "tol": 1e-6},
        lambda X, y, hp, seed: linear.fit_log(X, y, hp), linear.score_log, 0.5,
    ),
    "svm": _Algorithm(
        {"regularization": 1.0, "max_iter": 1000},
        lambda X, y, hp, seed: linear.fit_svm(X, y, hp), linear.score_linear, 0.0,
    ),
    "knn": _Algorithm(
        {"k": 5}, lambda X, y, hp, seed: neighbors.fit_knn(X, y, hp), neighbors.score_knn, 0.5,
    ),
    "nn": _Algorithm(
        {"hidden_size": 16, "max_iter": 500, "regularization": 1e-4, "tol": 1e-6},
        mlp.fit_nn, mlp.score_nn, 0.5,
    ),
    "dt": _Algorithm(
        {"max_depth": 10, "min_leaf": 2},
        lambda X, y, hp, seed: tree.fit_dt(X, y, hp), tree.score_dt, 0.5,
    ),
}

ALGORITHMS = tuple(_REGISTRY)


class DegenerateFitError(Exception):
    """Training data cannot support a parametric fit (single class)."""


class ShapeError(Exception):
    """Prediction rows do not match the training feature width."""


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with binary labels and stable column names."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    row_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=np.int8)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        if X.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        if X.shape[0] != len(y):
            raise ValueError("labels length must match feature rows")
        if X.shape[1] != len(self.feature_names):
            raise ValueError("feature_names must match feature columns")
        if not np.all(np.isfinite(X)):
            raise ValueError("features contain non-finite values")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ValueError("feature names must be unique")
        if y.size and not np.all((y == 0) | (y == 1)):
            raise ValueError("labels must be 0/1")
        if self.row_ids is not None and len(self.row_ids) != X.shape[0]:
            raise ValueError("row_ids length must match feature rows")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def take_columns(self, names: Sequence[str]) -> "Dataset":
        pos = {n: i for i, n in enumerate(self.feature_names)}
        idx = [pos[n] for n in names]
        return replace(self, features=self.features[:, idx], feature_names=tuple(names))


@dataclass(frozen=True)
class ModelSpec:
    algorithm: str
    hyperparameters: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        merged = dict(_REGISTRY[self.algorithm].defaults)
        merged.update(self.hyperparameters)
        object.__setattr__(self, "hyperparameters", merged)
        if self.algorithm == "knn":
            k = merged["k"]
            if not isinstance(k, int) or k < 1 or k % 2 == 0:
                raise ValueError(f"knn k must be an odd integer >= 1, got {k}")
        max_iter = merged.get("max_iter")
        number = isinstance(max_iter, numbers.Real) and not isinstance(max_iter, bool)
        if max_iter is not None and not (number and max_iter >= 1):
            raise ValueError(f"max_iter must be a number >= 1, got {max_iter!r}")


def default_specs(seed: int = 0) -> list[ModelSpec]:
    """One spec per benchmark algorithm with default hyperparameters."""
    return [ModelSpec(algorithm=a, seed=seed) for a in ALGORITHMS]


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    scale: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[1] != len(self.mean):
            raise ShapeError(f"expected {len(self.mean)} columns, got {X.shape[1]}")
        return (X - self.mean) / self.scale


def fit_standardizer(X: np.ndarray) -> Standardizer:
    """Per-column z-scoring statistics; zero-variance columns map to 0."""
    X = np.asarray(X, dtype=float)
    mean = X.mean(axis=0)
    scale = X.std(axis=0)  # population form
    scale = np.where(scale == 0.0, 1.0, scale)
    return Standardizer(mean=mean, scale=scale)


@dataclass(frozen=True)
class TrainedModel:
    spec: ModelSpec
    standardizer: Standardizer
    params: dict


def fit(train: Dataset, spec: ModelSpec) -> TrainedModel:
    """Train one model; deterministic given (data, spec.seed)."""
    if train.n == 0:
        raise ValueError("empty training set")
    classes = np.unique(train.labels)
    if len(classes) < 2 and spec.algorithm != "knn":
        raise DegenerateFitError(
            f"{spec.algorithm} requires both classes in training data (got {classes.tolist()})"
        )
    std = fit_standardizer(train.features)
    X = std.apply(train.features)
    y = train.labels.astype(float)
    params = _REGISTRY[spec.algorithm].fit(X, y, dict(spec.hyperparameters), spec.seed)
    return TrainedModel(spec=spec, standardizer=std, params=params)


def predict(model: TrainedModel, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores and 0/1 labels for a row matrix matching the training width."""
    algo = _REGISTRY[model.spec.algorithm]
    scores = algo.score(model.params, model.standardizer.apply(rows))
    labels = (scores >= algo.cut).astype(np.int8)
    return scores, labels
