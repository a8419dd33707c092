"""Benchmark protocol: metrics, splits, rebalancing, AUC, stepwise selection.

The repeated-holdout protocol is: rebalance the classes by seeded
undersampling, split 60/40 stratified, fit, evaluate; repeat with derived
seeds and aggregate.  Rebalancing and splitting read only the labels and
return row indices.  Aggregated reports pool the confusion counts across
cycles (cycles have identical sizes, so pooled accuracy equals the mean) and
average the per-cycle AUC.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericError
from .models import Dataset, ModelSpec, fit, predict


class StratificationError(NumericError):
    """A class has no rows to rebalance with, or too few to appear on both sides of the split."""


class UndefinedAUCError(NumericError):
    """AUC needs at least one row of each class."""


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
    auc: float | None = None
    class_names: dict[int, str] = field(default_factory=lambda: {0: "negative", 1: "positive"})

    def to_json_dict(self) -> dict:
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
            "per_class": {self.class_names[k]: cm(v) for k, v in sorted(self.per_class.items())},
            "weighted_avg": cm(self.weighted),
            "accuracy": self.accuracy,
            "mean_abs_err": self.mean_abs_err,
            "auc": self.auc,
            "counts": {"tp": self.tp, "tn": self.tn, "fp": self.fp, "fn": self.fn, "n": self.n},
        }


def rank_reports(reports: dict[str, MetricsReport]) -> list[str]:
    """Algorithms best first: by AUC (a missing AUC counts as 0), then accuracy, then name."""
    return sorted(reports, key=lambda a: (-(reports[a].auc or 0.0), -reports[a].accuracy, a))


def split_train_test(labels: np.ndarray, train_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded stratified shuffle split; returns sorted ``(train, test)`` row indices.

    The train size is round(train_fraction * N), with ``train_fraction`` in
    (0, 1) as ``Protocol`` checks; per-class sizes follow a
    largest-remainder apportionment so the class ratio is preserved, with
    every class keeping at least one row on each side.
    """
    y = np.asarray(labels)
    classes = np.unique(y)
    counts = {int(c): int(np.sum(y == c)) for c in classes}
    if any(n < 2 for n in counts.values()):
        raise StratificationError(f"every class needs >= 2 rows for a stratified split: {counts}")
    total_train = int(round(train_fraction * len(y)))
    total_train = min(max(total_train, len(classes)), len(y) - len(classes))

    quotas = {c: train_fraction * n for c, n in counts.items()}
    base = {c: int(np.floor(q)) for c, q in quotas.items()}
    for c in counts:
        base[c] = min(max(base[c], 1), counts[c] - 1)
    remainder_order = sorted(counts, key=lambda c: (-(quotas[c] - np.floor(quotas[c])), c))
    i = 0
    while sum(base.values()) < total_train and i < 10 * len(counts):
        c = remainder_order[i % len(counts)]
        if base[c] < counts[c] - 1:
            base[c] += 1
        i += 1
    while sum(base.values()) > total_train:
        c = max(base, key=lambda cc: (base[cc] - quotas[cc], cc))
        if base[c] <= 1:
            break
        base[c] -= 1

    rng = np.random.default_rng(seed)
    train_parts = []
    test_parts = []
    for c in sorted(counts):
        shuffled = np.flatnonzero(y == c)[rng.permutation(counts[c])]
        train_parts.append(shuffled[: base[c]])
        test_parts.append(shuffled[base[c] :])
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
    class_names: dict[int, str] | None = None,
) -> MetricsReport:
    """Exact confusion-matrix metrics of equal-length non-empty 0/1 vectors, per class and support-weighted.

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
        class_names=class_names or {0: "negative", 1: "positive"},
    )


def roc_auc(labels: Sequence[int], scores: Sequence[float]) -> float:
    """Rank-based AUC: P(random positive outscores a random negative), ties 1/2.

    Computed from the Mann-Whitney statistic with midranks, which equals the
    trapezoidal area under the recall vs false-positive-rate curve.
    """
    labels = np.asarray(labels, dtype=int)
    scores = np.asarray(scores, dtype=float)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAUCError("AUC undefined: need both classes")
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


@dataclass(frozen=True)
class CycleOutcome:
    labels: np.ndarray
    predicted: np.ndarray
    auc: float


def run_cycles(dataset: Dataset, spec: ModelSpec, protocol: Protocol) -> list[CycleOutcome]:
    """Run every protocol cycle for one model spec; derived seed is seed + i.

    Each cycle picks its rows from the labels alone, so only the train and
    test slices of the feature matrix are copied.
    """
    X, y = dataset.features, dataset.labels
    outcomes = []
    for i in range(protocol.repeats):
        cycle_seed = protocol.seed + i
        kept = rebalance(y, cycle_seed)
        train, test = split_train_test(y[kept], protocol.train_fraction, cycle_seed)
        train, test = kept[train], kept[test]
        model = fit(Dataset(X[train], y[train], dataset.feature_names), spec)
        scores, predicted = predict(model, X[test])
        outcomes.append(CycleOutcome(labels=y[test], predicted=predicted, auc=roc_auc(y[test], scores)))
    return outcomes


def evaluate_spec(
    dataset: Dataset,
    spec: ModelSpec,
    protocol: Protocol,
    class_names: dict[int, str] | None = None,
) -> MetricsReport:
    """Confusion counts pooled over every cycle, with the mean per-cycle AUC."""
    outcomes = run_cycles(dataset, spec, protocol)
    labels = np.concatenate([o.labels for o in outcomes])
    predicted = np.concatenate([o.predicted for o in outcomes])
    report = confusion_metrics(labels, predicted, class_names=class_names)
    return replace(report, auc=float(np.mean([o.auc for o in outcomes])))


@dataclass(frozen=True)
class StepwiseResult:
    """Greedy forward selection order with the mean AUC after each addition."""

    features: tuple[str, ...]
    auc_trace: tuple[float, ...]


def forward_stepwise(
    dataset: Dataset,
    spec: ModelSpec,
    max_features: int,
    protocol: Protocol,
) -> StepwiseResult:
    """Add, per round, the unselected feature with the best mean test AUC.

    ``max_features`` is at most the number of columns.  Ties break toward
    the lower feature index.
    """
    selected: list[str] = []
    trace: list[float] = []
    remaining = list(dataset.feature_names)
    for _ in range(max_features):
        best_name = None
        best_auc = -1.0
        for name in remaining:  # feature-name order == column order: index tie-break
            candidate = dataset.take_columns(selected + [name])
            auc = evaluate_spec(candidate, spec, protocol).auc
            if auc > best_auc:
                best_auc, best_name = auc, name
        selected.append(best_name)
        remaining.remove(best_name)
        trace.append(best_auc)
    return StepwiseResult(features=tuple(selected), auc_trace=tuple(trace))
