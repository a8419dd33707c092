"""Early-warning stage: entity datasets, the benchmark, and disputed predictions.

The flow per entity sample is: compute the polarization measures, build
their exceedance curves, select data-driven thresholds, set the binary
indicators, benchmark the classifier suite on the disputed/undisputed task,
keep the two best models, refit them on the full balanced sample and score
every entity of the dataset.  The measures and indicators stay one column
table aligned with the sample's entities (:class:`features.EntityTable`),
and the predictions arrays aligned with the dataset's rows; both feed the
fake-news stage.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from itertools import compress
from typing import Mapping

import numpy as np

from .corpus import Corpus, EntitySample
from .errors import NumericError
from .features import EntityTable, entity_features
from .models import Dataset, ModelSpec, TrainedModel, fit, predict
from .evaluation import Cycles, MetricsReport, Protocol, rank_reports, rebalance, run_cycles
from . import thresholds as th

log = logging.getLogger(__name__)

CLASS_NAMES = {0: "undisputed", 1: "disputed"}

# Fixed dataset schemas; occurrences is log-scaled in the matrix (raw counts
# stay in features.csv).
E1_COLUMNS = (
    "occurrences",
    "post_sent_min",
    "post_sent_max",
    "post_sent_mean",
    "post_sent_std",
    "presentation_distance",
    "n_negative_posts",
    "controversy",
)
E2_COLUMNS = E1_COLUMNS + (
    "comment_sent_min",
    "comment_sent_max",
    "comment_sent_mean",
    "comment_sent_std",
    "response_dist_min",
    "response_dist_max",
    "response_dist_mean",
    "response_dist_std",
    "comments_count",
    "n_negative_comments",
    "perception",
    "captivation",
)


def build_entity_dataset(
    table: EntityTable, sample_name: str, requires_comment_sentiment: bool
) -> Dataset:
    """Fixed-schema matrix over the sample's entities, labeled by disputedness.

    Samples that do not require comment sentiment (E1-style) use the first
    eight columns, samples that do (E2-style) all twenty; ``sample_name``
    only labels the log.  Rows missing a mandatory value (no scored
    comments, or an indicator that was never set) are excluded and logged.
    """
    columns = E2_COLUMNS if requires_comment_sentiment else E1_COLUMNS
    complete = table.complete(columns)
    excluded = list(compress(table.entities, (~complete).tolist()))
    if excluded:
        log.warning(
            "build_entity_dataset(%s): excluded %d entities with missing features: %s",
            sample_name, len(excluded), ", ".join(excluded[:10]) + ("..." if len(excluded) > 10 else ""),
        )
    occurrences = map(math.log1p, table.columns["occurrences"].tolist())
    values = {**table.columns, "occurrences": np.fromiter(occurrences, float, len(table))}
    return Dataset(
        features=np.column_stack([values[c][complete] for c in columns]),
        labels=table.columns["disputed"][complete],
        feature_names=columns,
        row_ids=tuple(compress(table.entities, complete.tolist())),
    )


@dataclass(frozen=True)
class BenchmarkResult:
    reports: dict[str, MetricsReport]
    failures: dict[str, str]


def run_benchmark(
    dataset: Dataset,
    specs: list[ModelSpec],
    cycles: Cycles,
) -> BenchmarkResult:
    """Each algorithm's report on the same cycles of ``dataset``.

    An algorithm whose evaluation raises a ``NumericError`` is recorded as a
    failure and the others still run.  Any other error propagates.
    """
    reports: dict[str, MetricsReport] = {}
    failures: dict[str, str] = {}
    for spec in specs:
        try:
            reports[spec.algorithm] = run_cycles(dataset, spec, cycles)
        except NumericError as exc:
            failures[spec.algorithm] = f"{type(exc).__name__}: {exc}"
    for algo, err in failures.items():
        log.warning("benchmark failure for %s: %s", algo, err)
    return BenchmarkResult(reports=reports, failures=failures)


class TooFewModelsError(NumericError):
    """Fewer than two algorithms produced a benchmark report."""


def select_best_models(reports: dict[str, MetricsReport]) -> tuple[str, str]:
    """Top two algorithms by AUC, ties by accuracy then algorithm name."""
    if len(reports) < 2:
        raise TooFewModelsError(f"need at least two successful reports, got {len(reports)}")
    ranked = rank_reports(reports)
    return ranked[0], ranked[1]


def predict_disputed(
    dataset: Dataset, model_a: TrainedModel, model_b: TrainedModel
) -> tuple[np.ndarray, np.ndarray]:
    """Both models' labels and scores on every row of the full sample, as two arrays of shape (2, rows).

    Row 0 of either array holds ``model_a``'s values and row 1
    ``model_b``'s; the columns follow ``dataset.row_ids``.
    """
    scores_a, labels_a = predict(model_a, dataset.features)
    scores_b, labels_b = predict(model_b, dataset.features)
    return np.stack([labels_a, labels_b]), np.stack([scores_a, scores_b])


def with_indicators(table: EntityTable, cuts: Mapping[str, float]) -> EntityTable:
    """``table`` with each binary indicator set from the selected cuts.

    Each measure in ``cuts`` sets its ``thresholds.MEASURES`` row's
    indicator column to 1 where the entity's value reaches the cut, else 0;
    an indicator whose measure has no cut, or whose value is missing (NaN),
    stays NaN.
    """
    columns = dict(table.columns)
    for measure, cut in cuts.items():
        row = th.MEASURES[measure]
        value = table.columns[row.feature]
        columns[row.indicator] = np.where(np.isnan(value), np.nan, value >= cut)
    return replace(table, columns=columns)


def threshold_entities(
    corpus: Corpus, sample: EntitySample
) -> tuple[EntityTable, dict[str, th.RatioCurve], dict[str, th.ThresholdSelection]]:
    """Entity features, their exceedance curves, the selected cuts, the indicators.

    Every sample gets the presentation-distance curve; samples that require
    comment sentiment get every measure's curve, in ``thresholds.MEASURES``
    order.  A curve counts the entities with a value for its measure and is
    left out when none has one.  Returns ``(table, curves, selections)``
    with the table's indicators set from the selections' cuts.
    """
    table = entity_features(corpus, sample)
    disputed = table.columns["disputed"] == 1
    measures = th.MEASURES if sample.requires_comment_sentiment else (th.MEASURE_PRESENTATION,)
    curves = {}
    for measure in measures:
        row = th.MEASURES[measure]
        values = table.columns[row.feature]
        present = ~np.isnan(values)
        if present.any():
            curves[measure] = th.build_exceedance_curve(
                values[present], disputed[present], np.arange(0.0, row.grid_hi, 0.01)
            )
    selections = th.select_thresholds(curves)
    table = with_indicators(table, {m: s.threshold for m, s in selections.items()})
    return table, curves, selections


@dataclass
class EarlyWarningResult:
    sample: EntitySample
    features: EntityTable
    curves: dict[str, th.RatioCurve]
    selections: dict[str, th.ThresholdSelection]
    dataset: Dataset
    benchmark: BenchmarkResult
    best: tuple[str, str]
    predictions: tuple[np.ndarray, np.ndarray]  # predict_disputed's (labels, scores)


def run_early_warning(
    corpus: Corpus,
    sample: EntitySample,
    specs: list[ModelSpec],
    protocol: Protocol,
) -> EarlyWarningResult:
    """Full early-warning pass over one non-empty entity sample."""
    table, curves, selections = threshold_entities(corpus, sample)
    dataset = build_entity_dataset(table, sample.name, sample.requires_comment_sentiment)
    benchmark = run_benchmark(dataset, specs, protocol.cycles(dataset.labels))
    best = select_best_models(benchmark.reports)
    spec_by_algo = {s.algorithm: s for s in specs}
    kept = rebalance(dataset.labels, protocol.seed)
    balanced = Dataset(dataset.features[kept], dataset.labels[kept], dataset.feature_names)
    model_a = fit(balanced, spec_by_algo[best[0]])
    model_b = fit(balanced, spec_by_algo[best[1]])
    predictions = predict_disputed(dataset, model_a, model_b)
    return EarlyWarningResult(
        sample=sample,
        features=table,
        curves=curves,
        selections=selections,
        dataset=dataset,
        benchmark=benchmark,
        best=best,
        predictions=predictions,
    )
