"""Benchmark protocol: metrics, splits, rebalancing, AUC, stepwise selection.

The repeated-holdout protocol is: rebalance the classes by seeded
undersampling, split 60/40 stratified, fit, evaluate; repeat with derived
seeds and aggregate.  Rebalancing and splitting read only the labels and
return row indices, so ``Protocol.cycles`` draws the cycles once for every
evaluation on the same labels.  Aggregated reports pool the confusion counts
across cycles (cycles have identical sizes, so pooled accuracy equals the
mean) and keep the per-cycle AUCs, whose mean is the report's AUC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericError
from .models import Dataset, ModelSpec, fit, predict


class StratificationError(NumericError):
    """A class has no rows to rebalance with, or too few to appear on both sides of the split."""


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    fp_rate: float
    f1: float
    support: int
    flagged: tuple[str, ...] = ()


@dataclass(frozen=True)
class MetricsReport:
    per_class: dict[int, ClassMetrics]
    weighted: ClassMetrics
    accuracy: float
    mean_abs_err: float
    tp: int
    tn: int
    fp: int
    fn: int
    n: int
    aucs: tuple[float, ...]

    @property
    def auc(self) -> float:
        """The mean of the per-cycle AUCs."""
        return float(np.mean(self.aucs))

    def to_json_dict(self, class_names: dict[int, str]) -> dict:
        def cm(m: ClassMetrics) -> dict:
            return {
                "precision": m.precision,
                "recall": m.recall,
                "fp_rate": m.fp_rate,
                "f1": m.f1,
                "support": m.support,
                "flagged": list(m.flagged),
            }

        return {
            "per_class": {class_names[k]: cm(v) for k, v in sorted(self.per_class.items())},
            "weighted_avg": cm(self.weighted),
            "accuracy": self.accuracy,
            "mean_abs_err": self.mean_abs_err,
            "auc": self.auc,
            "counts": {"tp": self.tp, "tn": self.tn, "fp": self.fp, "fn": self.fn, "n": self.n},
        }


def rank_reports(reports: dict[str, MetricsReport]) -> list[str]:
    """Algorithms best first: by AUC, then accuracy, then name."""
    return sorted(reports, key=lambda a: (-reports[a].auc, -reports[a].accuracy, a))


def split_train_test(labels: np.ndarray, train_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded stratified shuffle split of balanced 0/1 labels, m rows per
    class; returns sorted ``(train, test)`` row indices.

    The train size t is round(train_fraction * 2m) within [2, 2m - 2], with
    ``train_fraction`` in (0, 1) as ``Protocol`` checks; class 0 trains on
    ceil(t / 2) rows and class 1 on floor(t / 2).
    """
    y = np.asarray(labels)
    m = len(y) // 2
    if m < 2:
        raise StratificationError(f"every class needs >= 2 rows for a stratified split: {{0: {m}, 1: {m}}}")
    total_train = min(max(int(round(train_fraction * len(y))), 2), 2 * m - 2)
    rng = np.random.default_rng(seed)
    train_parts = []
    test_parts = []
    for c, n_train in ((0, (total_train + 1) // 2), (1, total_train // 2)):
        shuffled = np.flatnonzero(y == c)[rng.permutation(m)]
        train_parts.append(shuffled[:n_train])
        test_parts.append(shuffled[n_train:])
    return np.sort(np.concatenate(train_parts)), np.sort(np.concatenate(test_parts))


def rebalance(labels: np.ndarray, seed: int) -> np.ndarray:
    """Sorted row indices kept by seeded undersampling of the majority class
    down to the minority count; every row when the classes are balanced."""
    y = np.asarray(labels)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise StratificationError("rebalance requires both classes")
    if n_pos == n_neg:
        return np.arange(len(y))
    minority, majority = (1, 0) if n_pos < n_neg else (0, 1)
    keep = np.flatnonzero(y == minority)
    maj_idx = np.flatnonzero(y == majority)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(maj_idx, size=len(keep), replace=False)
    return np.sort(np.concatenate([keep, chosen]))


def _class_metrics(tp: int, fp: int, fn: int, tn: int) -> ClassMetrics:
    """One class's metrics from its own confusion counts; a rate with no denominator is 0 and flagged."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    fp_rate = fp / (fp + tn) if fp + tn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    denominators = {"precision": tp + fp, "recall": tp + fn, "fp_rate": fp + tn}
    return ClassMetrics(precision, recall, fp_rate, f1, support=tp + fn,
                        flagged=tuple(name for name, d in denominators.items() if d == 0))


def confusion_metrics(
    labels: Sequence[int],
    predicted: Sequence[int],
    aucs: Sequence[float] = (),
) -> MetricsReport:
    """Exact confusion-matrix metrics of equal-length non-empty 0/1 vectors,
    per class and support-weighted, carrying the given per-cycle AUCs.

    Class 0's metrics come from class 1's counts with the roles swapped.
    """
    labels = np.asarray(labels, dtype=int)
    predicted = np.asarray(predicted, dtype=int)
    n = len(labels)
    tp = int(np.sum((predicted == 1) & (labels == 1)))
    fp = int(np.sum((predicted == 1) & (labels != 1)))
    fn = int(np.sum((predicted != 1) & (labels == 1)))
    tn = n - tp - fp - fn
    per_class = {0: _class_metrics(tn, fn, fp, tp), 1: _class_metrics(tp, fp, fn, tn)}
    averages = {k: sum(m.support / n * getattr(m, k) for m in per_class.values())
                for k in ("precision", "recall", "fp_rate", "f1")}
    flagged = tuple(sorted({f for m in per_class.values() for f in m.flagged}))
    weighted = ClassMetrics(**averages, support=n, flagged=flagged)
    return MetricsReport(
        per_class=per_class,
        weighted=weighted,
        accuracy=(tp + tn) / n,
        mean_abs_err=float(np.mean(np.abs(labels - predicted))),
        tp=tp,
        tn=tn,
        fp=fp,
        fn=fn,
        n=n,
        aucs=tuple(aucs),
    )


def roc_auc(labels: Sequence[int], scores: Sequence[float]) -> float:
    """Rank-based AUC of labels holding both classes: P(random positive
    outscores a random negative), ties 1/2.

    Computed from the Mann-Whitney statistic with midranks, which equals the
    trapezoidal area under the recall vs false-positive-rate curve.
    """
    labels = np.asarray(labels, dtype=int)
    scores = np.asarray(scores, dtype=float)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    # tie groups span sorted positions [start, end); 1-based midrank (start + end + 1) / 2
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], len(scores)]
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    rank_sum = float(np.sum(ranks[labels == 1]))
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


Cycles = tuple[tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class Protocol:
    """Repeated rebalance -> split -> fit -> evaluate cycles."""

    repeats: int = 10
    train_fraction: float = 0.6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ConfigError(f"repeats must be at least 1, got {self.repeats}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.seed < 0:
            raise ConfigError(f"seed must be at least 0, got {self.seed}")

    def cycles(self, labels: np.ndarray) -> Cycles:
        """Cycle i's sorted ``(train, test)`` rows: ``rebalance`` with seed + i,
        then ``split_train_test`` of the kept rows with the same seed."""
        drawn = []
        for seed in range(self.seed, self.seed + self.repeats):
            kept = rebalance(labels, seed)
            train, test = split_train_test(labels[kept], self.train_fraction, seed)
            drawn.append((kept[train], kept[test]))
        return tuple(drawn)


def run_cycles(dataset: Dataset, spec: ModelSpec, cycles: Cycles) -> MetricsReport:
    """Fit and score one model spec on each cycle's ``(train, test)`` rows of
    ``dataset``; only those slices of the feature matrix are copied.

    Returns the confusion metrics of every cycle's test rows, pooled in cycle
    order, with each cycle's AUC.
    """
    X, y = dataset.features, dataset.labels
    predicted, aucs = [], []
    for train, test in cycles:
        model = fit(Dataset(X[train], y[train], dataset.feature_names), spec)
        scores, labels = predict(model, X[test])
        predicted.append(labels)
        aucs.append(roc_auc(y[test], scores))
    return confusion_metrics(y[np.concatenate([test for _, test in cycles])], np.concatenate(predicted), aucs)


@dataclass(frozen=True)
class StepwiseResult:
    """Greedy forward selection order with the mean AUC after each addition."""

    features: tuple[str, ...]
    auc_trace: tuple[float, ...]


def forward_stepwise(
    dataset: Dataset,
    spec: ModelSpec,
    max_features: int,
    cycles: Cycles,
) -> StepwiseResult:
    """Add, per round, the unselected feature with the best mean test AUC.

    ``max_features`` is at most the number of columns.  Each round is one
    list of candidate AUCs, the selected columns plus each remaining one in
    column order; its first maximum wins, so ties break toward the lower
    feature index.
    """
    selected: list[str] = []
    trace: list[float] = []
    remaining = list(dataset.feature_names)
    for _ in range(max_features):
        aucs = [run_cycles(dataset.take_columns(selected + [name]), spec, cycles).auc for name in remaining]
        best = int(np.argmax(aucs))
        selected.append(remaining.pop(best))
        trace.append(aucs[best])
    return StepwiseResult(features=tuple(selected), auc_trace=tuple(trace))
