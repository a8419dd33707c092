"""Uniform fit/predict contract over the six benchmark classifiers.

Every model standardizes its inputs with statistics learned on the training
split, trains deterministically given (data, seed), and scores rows with a
ranking value: raw output for LIN, sigmoid probability for LOG, signed
margin for SVM, positive-neighbor fraction for KNN, leaf positive fraction
for DT and the output unit for NN.  Labels threshold the score at 0.5
(0 for the SVM margin).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from ..errors import ConfigError, NumericError
from . import linear, mlp, neighbors, tree


def _real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


class _Rule(NamedTuple):
    holds: Callable[[object], bool]
    says: str  # what a valid value is, for the error message


_NON_NEGATIVE = _Rule(lambda v: _real(v) and math.isfinite(v) and v >= 0, "a finite number >= 0")
_POSITIVE = _Rule(lambda v: _real(v) and math.isfinite(v) and v > 0, "a finite number > 0")
_COUNT = _Rule(lambda v: _integer(v) and v >= 1, "an integer >= 1")
_ODD = _Rule(lambda v: _integer(v) and v >= 1 and v % 2 == 1, "an odd integer >= 1")
_DEPTH = _Rule(lambda v: v is None or (_integer(v) and v >= 1), "an integer >= 1 or null")


class _Algorithm(NamedTuple):
    hyperparameters: dict[str, tuple[object, _Rule]]  # name -> (default, rule)
    fit: Callable[[np.ndarray, np.ndarray, dict, int], dict]  # (X, y, hp, seed) -> params
    score: Callable[[dict, np.ndarray], np.ndarray]
    cut: float  # scores at or above the cut are labeled 1


_REGISTRY: dict[str, _Algorithm] = {
    "lin": _Algorithm({}, lambda X, y, hp, seed: linear.fit_lin(X, y), linear.score_linear, 0.5),
    "log": _Algorithm(
        {"regularization": (1.0, _NON_NEGATIVE), "max_iter": (2000, _COUNT),
         "tol": (1e-6, _NON_NEGATIVE)},
        lambda X, y, hp, seed: linear.fit_log(X, y, hp), linear.score_log, 0.5,
    ),
    "svm": _Algorithm(
        # the step size is 1 / (regularization * t)
        {"regularization": (1.0, _POSITIVE), "max_iter": (1000, _COUNT)},
        lambda X, y, hp, seed: linear.fit_svm(X, y, hp), linear.score_linear, 0.0,
    ),
    "knn": _Algorithm(
        {"k": (5, _ODD)}, lambda X, y, hp, seed: neighbors.fit_knn(X, y, hp), neighbors.score_knn, 0.5,
    ),
    "nn": _Algorithm(
        {"hidden_size": (16, _COUNT), "max_iter": (500, _COUNT),
         "regularization": (1e-4, _NON_NEGATIVE), "tol": (1e-6, _NON_NEGATIVE)},
        mlp.fit_nn, mlp.score_nn, 0.5,
    ),
    "dt": _Algorithm(
        {"max_depth": (10, _DEPTH), "min_leaf": (2, _COUNT)},
        lambda X, y, hp, seed: tree.fit_dt(X, y, hp), tree.score_dt, 0.5,
    ),
}

ALGORITHMS = tuple(_REGISTRY)


class ShapeError(NumericError):
    """A ``Dataset``'s feature rows are not finite."""


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
            raise ShapeError("features must be finite")
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
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        declared = _REGISTRY[self.algorithm].hyperparameters
        unknown = sorted(set(self.hyperparameters) - set(declared))
        if unknown:
            raise ConfigError(f"{self.algorithm} has no hyperparameter {', '.join(unknown)}")
        merged = {name: default for name, (default, _) in declared.items()}
        merged.update(self.hyperparameters)
        for name, value in merged.items():
            rule = declared[name][1]
            if not rule.holds(value):
                raise ConfigError(f"{name} must be {rule.says}, got {value!r}")
        object.__setattr__(self, "hyperparameters", merged)


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    scale: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
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
    """Train one model on a split holding both classes; deterministic given (data, spec.seed)."""
    std = fit_standardizer(train.features)
    X = std.apply(train.features)
    y = train.labels.astype(float)
    params = _REGISTRY[spec.algorithm].fit(X, y, dict(spec.hyperparameters), spec.seed)
    return TrainedModel(spec=spec, standardizer=std, params=params)


def predict(model: TrainedModel, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores and 0/1 labels for rows of a ``Dataset`` with the training columns."""
    algo = _REGISTRY[model.spec.algorithm]
    scores = algo.score(model.params, model.standardizer.apply(rows))
    labels = (scores >= algo.cut).astype(np.int8)
    return scores, labels
