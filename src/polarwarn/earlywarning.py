"""Early-warning stage: entity datasets, the benchmark, and disputed predictions.

The flow per entity sample is: compute the polarization measures, build
their exceedance curves, select data-driven thresholds, attach the binary
indicators, benchmark the classifier suite on the disputed/undisputed task,
keep the two best models, refit them on the full balanced sample and score
every entity.  Those per-entity predictions feed the fake-news stage.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .corpus import Corpus, EntitySample
from .errors import NumericError
from .features import EntityFeatures, entity_features
from .models import Dataset, ModelSpec, TrainedModel, fit, predict
from .evaluation import MetricsReport, Protocol, evaluate_spec, rank_reports, rebalance
from . import thresholds as th

log = logging.getLogger(__name__)

CLASS_NAMES = {0: "undisputed", 1: "disputed"}

# Fixed dataset schemas; occurrences is log-scaled in the matrix (raw counts
# stay in the CSV export of EntityFeatures).
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
    features: list[EntityFeatures], sample_name: str, requires_comment_sentiment: bool
) -> Dataset:
    """Fixed-schema matrix over the sample's entities, labeled by disputedness.

    Samples that do not require comment sentiment (E1-style) use the first
    eight columns, samples that do (E2-style) all twenty; ``sample_name``
    only labels the log.  Rows missing a mandatory field (no scored
    comments, or an indicator that was never filled) are excluded and logged.
    """
    columns = E2_COLUMNS if requires_comment_sentiment else E1_COLUMNS
    rows = []
    ids = []
    labels = []
    excluded = []
    for f in sorted(features, key=lambda f: f.entity):
        values = []
        ok = True
        for col in columns:
            v = getattr(f, col)
            if v is None:
                ok = False
                break
            if col == "occurrences":
                v = math.log1p(v)
            values.append(float(v))
        if not ok:
            excluded.append(f.entity)
            continue
        rows.append(values)
        ids.append(f.entity)
        labels.append(f.disputed)
    if excluded:
        log.warning(
            "build_entity_dataset(%s): excluded %d entities with missing features: %s",
            sample_name, len(excluded), ", ".join(excluded[:10]) + ("..." if len(excluded) > 10 else ""),
        )
    return Dataset(
        features=np.asarray(rows, dtype=float).reshape(len(rows), len(columns)),
        labels=np.asarray(labels, dtype=np.int8),
        feature_names=columns,
        row_ids=tuple(ids),
    )


@dataclass(frozen=True)
class BenchmarkResult:
    reports: dict[str, MetricsReport]
    failures: dict[str, str]


def run_benchmark(
    dataset: Dataset,
    specs: list[ModelSpec],
    protocol: Protocol,
) -> BenchmarkResult:
    """Average the benchmark protocol per algorithm, every algorithm on the same cycles.

    An algorithm whose evaluation raises a ``NumericError`` is recorded as a
    failure and the others still run; cycles that cannot be drawn fail every
    algorithm with the same error.  Any other error propagates.
    """
    reports: dict[str, MetricsReport] = {}
    failures: dict[str, str] = {}
    cycles = None
    for spec in specs:
        try:
            cycles = cycles or protocol.cycles(dataset.labels)
            reports[spec.algorithm] = evaluate_spec(dataset, spec, cycles, CLASS_NAMES)
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


@dataclass(frozen=True)
class EntityPrediction:
    entity: str
    pred_a: int
    pred_b: int
    score_a: float
    score_b: float
    model_a: str
    model_b: str


def predict_disputed(
    dataset: Dataset, model_a: TrainedModel, model_b: TrainedModel
) -> list[EntityPrediction]:
    """Score every row of the full sample with both selected models; ``row_ids`` name the entities."""
    scores_a, labels_a = predict(model_a, dataset.features)
    scores_b, labels_b = predict(model_b, dataset.features)
    return [
        EntityPrediction(
            entity=eid,
            pred_a=int(labels_a[i]),
            pred_b=int(labels_b[i]),
            score_a=float(scores_a[i]),
            score_b=float(scores_b[i]),
            model_a=model_a.spec.algorithm,
            model_b=model_b.spec.algorithm,
        )
        for i, eid in enumerate(dataset.row_ids)
    ]


def fill_indicators(features: list[EntityFeatures], cuts: Mapping[str, float]) -> None:
    """Set each entity's binary indicators from the selected cuts.

    Each measure in ``cuts`` sets its ``thresholds.MEASURES`` row's
    indicator to 1 where the entity's value reaches the cut, else 0; an
    indicator whose measure has no cut, or whose value is missing, stays None.
    """
    for measure, cut in cuts.items():
        row = th.MEASURES[measure]
        for f in features:
            value = getattr(f, row.feature)
            if value is not None:
                setattr(f, row.indicator, 1 if value >= cut else 0)


def threshold_entities(
    corpus: Corpus, sample: EntitySample
) -> tuple[list[EntityFeatures], dict[str, th.RatioCurve], dict[str, th.ThresholdSelection]]:
    """Entity features, their exceedance curves, the selected cuts, the indicators.

    Every sample gets the presentation-distance curve; samples that require
    comment sentiment get every measure's curve, in ``thresholds.MEASURES``
    order.  A curve counts the entities with a value for its measure and is
    left out when none has one.  Returns ``(features, curves, selections)``
    with every feature record's indicators filled from the selections' cuts.
    """
    features = entity_features(corpus, sample)
    disputed = {f.entity for f in features if f.disputed}
    measures = th.MEASURES if sample.requires_comment_sentiment else (th.MEASURE_PRESENTATION,)
    curves = {}
    for measure in measures:
        row = th.MEASURES[measure]
        values = {f.entity: v for f in features if (v := getattr(f, row.feature)) is not None}
        if values:
            curves[measure] = th.build_exceedance_curve(values, disputed, np.arange(0.0, row.grid_hi, 0.01))
    selections = th.select_thresholds(curves)
    fill_indicators(features, {m: s.threshold for m, s in selections.items()})
    return features, curves, selections


@dataclass
class EarlyWarningResult:
    sample: EntitySample
    features: list[EntityFeatures]
    curves: dict[str, th.RatioCurve]
    selections: dict[str, th.ThresholdSelection]
    dataset: Dataset
    benchmark: BenchmarkResult
    best: tuple[str, str]
    predictions: list[EntityPrediction]


def run_early_warning(
    corpus: Corpus,
    sample: EntitySample,
    specs: list[ModelSpec],
    protocol: Protocol,
) -> EarlyWarningResult:
    """Full early-warning pass over one non-empty entity sample."""
    features, curves, selections = threshold_entities(corpus, sample)
    dataset = build_entity_dataset(features, sample.name, sample.requires_comment_sentiment)
    benchmark = run_benchmark(dataset, specs, protocol)
    best = select_best_models(benchmark.reports)
    spec_by_algo = {s.algorithm: s for s in specs}
    kept = rebalance(dataset.labels, protocol.seed)
    balanced = Dataset(dataset.features[kept], dataset.labels[kept], dataset.feature_names)
    model_a = fit(balanced, spec_by_algo[best[0]])
    model_b = fit(balanced, spec_by_algo[best[1]])
    predictions = predict_disputed(dataset, model_a, model_b)
    return EarlyWarningResult(
        sample=sample,
        features=features,
        curves=curves,
        selections=selections,
        dataset=dataset,
        benchmark=benchmark,
        best=best,
        predictions=predictions,
    )
