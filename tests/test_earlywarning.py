"""Entity dataset schemas, benchmarking, model selection and predictions."""

import multiprocessing
import os
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from polarwarn import corpus as cm
from polarwarn import earlywarning as ew
from polarwarn import features as feat
from polarwarn import thresholds as th
from polarwarn.evaluation import ClassMetrics, MetricsReport, Protocol, rebalance, roc_auc
from polarwarn.models import ALGORITHMS, Dataset, ModelSpec, linear

from conftest import entity_rows, members


def subset_rows(dataset: Dataset, rows) -> Dataset:
    return Dataset(dataset.features[rows], dataset.labels[rows], dataset.feature_names)


def entity_feature(entity="e", disputed=0, with_comments=True, **overrides):
    """One entity's values, as ``entity_rows`` gives them."""
    f = dict(
        entity=entity, occurrences=3, post_sent_min=-0.5, post_sent_max=0.5,
        post_sent_mean=0.0, post_sent_std=0.2, presentation_distance=1.0,
        n_negative_posts=1, engaged_fraction=0.1, disputed=disputed,
        comments_count=0, n_negative_comments=0, comment_sent_min=None, comment_sent_max=None,
        comment_sent_mean=None, comment_sent_std=None, response_dist_min=None, response_dist_max=None,
        response_dist_mean=None, response_dist_std=None, response_dist_global=None,
        controversy=0, perception=None, captivation=None, missing=("comment_sentiment",),
    )
    if with_comments:
        f.update(
            comments_count=5, n_negative_comments=2, comment_sent_min=-0.4, comment_sent_max=0.6,
            comment_sent_mean=0.1, comment_sent_std=0.3, response_dist_min=0.0, response_dist_max=0.4,
            response_dist_mean=0.2, response_dist_std=0.1, response_dist_global=0.15,
            perception=0, captivation=0, missing=(),
        )
    f.update(overrides)
    return f


def table_of(rows) -> feat.EntityTable:
    """An entity table of per-entity dicts; None is NaN."""
    names = [name for name in rows[0] if name not in ("entity", "missing")]
    return feat.EntityTable(
        entities=tuple(f["entity"] for f in rows),
        columns={name: np.array([np.nan if f[name] is None else f[name] for f in rows]) for name in names},
        engagement=(np.zeros(0, np.int64), np.zeros(0, bool)),
    )


class TestBuildEntityDataset:
    def test_e1_width_is_eight(self):
        feats = table_of([entity_feature(f"e{i}", disputed=i % 2) for i in range(6)])
        ds = ew.build_entity_dataset(feats, "E1", False)
        assert len(ds.feature_names) == 8
        assert ds.feature_names == ew.E1_COLUMNS

    def test_e2_width_is_twenty(self):
        feats = table_of([entity_feature(f"e{i}", disputed=i % 2) for i in range(6)])
        ds = ew.build_entity_dataset(feats, "E2", True)
        assert len(ds.feature_names) == 20
        assert ds.feature_names == ew.E2_COLUMNS
        assert len(set(ds.feature_names)) == 20

    def test_rows_missing_comment_features_excluded(self):
        feats = table_of([
            entity_feature("good", disputed=1),
            entity_feature("bare", disputed=0, with_comments=False),
        ])
        ds = ew.build_entity_dataset(feats, "E2", True)
        assert ds.row_ids == ("good",)

    def test_occurrences_log_scaled(self):
        feats = table_of([entity_feature("a", occurrences=0), entity_feature("b", occurrences=99)])
        ds = ew.build_entity_dataset(feats, "E1", False)
        col = list(ds.feature_names).index("occurrences")
        assert ds.features[0, col] == 0.0
        assert ds.features[1, col] == pytest.approx(np.log1p(99))

    def test_labels_are_disputedness(self):
        feats = table_of([entity_feature("a", disputed=1), entity_feature("b", disputed=0)])
        ds = ew.build_entity_dataset(feats, "E1", False)
        assert dict(zip(ds.row_ids, ds.labels.tolist())) == {"a": 1, "b": 0}

    def test_width_follows_the_sample_not_its_name(self, small_synth):
        corpus, _, _ = small_synth
        specs = [ModelSpec("log", seed=3), ModelSpec("lin", seed=3)]
        protocol = Protocol(repeats=2, seed=3)
        for sample, width in (
            (cm.select_entities(corpus, 0.6, 1, name="mine"), 8),
            (cm.select_entities(corpus, 0.9, 100, require_comment_sentiment=True, name="mine"), 20),
        ):
            result = ew.run_early_warning(corpus, sample, specs=specs, protocol=protocol)
            assert len(result.dataset.feature_names) == width


def report_with(auc, accuracy):
    m = ClassMetrics(precision=0.5, recall=0.5, fp_rate=0.5, f1=0.5, support=10)
    return MetricsReport(
        per_class={0: m, 1: m}, weighted=m, accuracy=accuracy, mean_abs_err=1 - accuracy,
        tp=5, tn=5, fp=5, fn=5, n=20, aucs=(auc,),
    )


class TestSelectBestModels:
    def test_matches_expected_ranking(self):
        reports = {
            "log": report_with(0.73, 0.77),
            "nn": report_with(0.68, 0.72),
            "svm": report_with(0.68, 0.71),
            "knn": report_with(0.60, 0.67),
        }
        assert ew.select_best_models(reports) == ("log", "nn")

    def test_full_tie_uses_name_order(self):
        reports = {"svm": report_with(0.7, 0.7), "dt": report_with(0.7, 0.7)}
        assert ew.select_best_models(reports) == ("dt", "svm")

    def test_order_invariance(self):
        reports = {
            "lin": report_with(0.9, 0.8),
            "dt": report_with(0.7, 0.7),
            "nn": report_with(0.85, 0.8),
        }
        items = list(reports.items())
        assert ew.select_best_models(dict(items)) == ew.select_best_models(dict(reversed(items)))

    def test_single_report_error(self):
        with pytest.raises(ew.TooFewModelsError):
            ew.select_best_models({"log": report_with(0.7, 0.7)})


FORK = multiprocessing.get_context("fork")


@contextmanager
def cpus(n):
    """Run as if this process may use ``n`` CPUs."""
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(n))):
        yield


class TwoArgs(Exception):
    def __init__(self, a, b):
        super().__init__(a)


class TestRunBenchmark:
    @pytest.fixture(autouse=True)
    def no_worker_left(self):
        yield
        assert multiprocessing.active_children() == []

    @pytest.fixture(scope="class")
    def e1(self, small_synth):
        corpus, _, _ = small_synth
        table, _, _ = ew.threshold_entities(corpus, cm.select_e1(corpus))
        dataset = ew.build_entity_dataset(table, "E1", False)
        specs = [ModelSpec(a, seed=1) for a in ("lin", "log", "knn")]
        return dataset, specs, Protocol(repeats=3, seed=1).cycles(dataset.labels)

    def test_same_result_on_any_number_of_cpus(self, e1):
        results = []
        for n in (1, 2, 4):
            with cpus(n), mock.patch.object(FORK, "Process", wraps=FORK.Process) as started:
                results.append(ew.run_benchmark(*e1))
            assert started.call_count == n - 1
        assert results[0] == results[1] == results[2]
        assert [list(r.reports) for r in results] == [["lin", "log", "knn"]] * 3
        assert results[0].failures == {}

    def test_one_cpu_starts_no_process(self, e1):
        with cpus(1), mock.patch.object(FORK, "Process", side_effect=AssertionError("process started")):
            ew.run_benchmark(*e1)

    def test_worker_that_dies_leaves_its_jobs_to_this_process(self, e1):
        # the patch is inherited through fork, so each worker raises before
        # it sends anything, and this process computes its jobs itself
        outcome = ew._outcome

        def failing(*args):
            if os.getpid() != parent:
                raise RuntimeError("worker died")
            return outcome(*args)

        parent = os.getpid()
        with cpus(1):
            want = ew.run_benchmark(*e1)
        with cpus(4), mock.patch.object(ew, "_outcome", failing):
            assert ew.run_benchmark(*e1) == want

    def test_outcome_that_cannot_be_unpickled_is_computed_here(self, e1):
        # a worker's outcome pickles, but unpickling calls TwoArgs(1), which
        # raises a TypeError here
        outcome = ew._outcome

        def unpicklable(*args):
            return TwoArgs(1, 2) if os.getpid() != parent else outcome(*args)

        parent = os.getpid()
        with cpus(1):
            want = ew.run_benchmark(*e1)
        with cpus(2), mock.patch.object(ew, "_outcome", unpicklable):
            assert ew.run_benchmark(*e1) == want

    def test_interrupt_in_this_process_share_leaves_no_process(self, e1):
        def interrupted(*args):
            raise KeyboardInterrupt

        with cpus(2), mock.patch.object(ew, "_outcome", interrupted), \
                mock.patch.object(FORK, "Process", wraps=FORK.Process) as started, \
                pytest.raises(KeyboardInterrupt):
            ew.run_benchmark(*e1)
        assert started.call_count == 1

    def test_only_numeric_errors_are_failures(self, monkeypatch):
        # at 4 CPUs each of the 4 jobs runs in its own process
        ds = Dataset(features=np.arange(12.0).reshape(6, 2), labels=[0, 1] * 3, feature_names=("a", "b"))
        specs, cycles = [ModelSpec("log"), ModelSpec("lin")], Protocol(repeats=2).cycles(ds.labels)
        parent, fit_log = os.getpid(), linear.fit_log

        def fail(error):
            def fit_log(*args):
                raise error("planted")
            return fit_log

        for n in (1, 4):
            monkeypatch.setattr(linear, "fit_log", fail(th.FitError))
            with cpus(n):
                result = ew.run_benchmark(ds, specs, cycles)
            assert result.failures == {"log": "FitError: planted"}, n
            assert list(result.reports) == ["lin"], n
            monkeypatch.setattr(linear, "fit_log", fail(TypeError))
            with cpus(n), pytest.raises(TypeError, match="planted") as raised:  # a bug, not a benchmark failure
                ew.run_benchmark(ds, specs[::-1], cycles)
            assert raised.traceback[-1].name == "fit_log", n  # log's first cycle is job 2, a worker's at 4 CPUs
            assert multiprocessing.active_children() == []

        # raised only in a worker, so not again by the job run here: the
        # error carries the worker's traceback as its cause
        def fails_in_a_worker(*args):
            if os.getpid() != parent:
                raise TypeError("planted in a worker")
            return fit_log(*args)

        monkeypatch.setattr(linear, "fit_log", fails_in_a_worker)
        with cpus(4), pytest.raises(TypeError, match="planted in a worker") as raised:
            ew.run_benchmark(ds, specs[::-1], cycles)
        assert "fit_log" in str(raised.value.__cause__)
        assert multiprocessing.active_children() == []


def reference_logistic_auc(dataset: Dataset, protocol: Protocol) -> float:
    """Independent logistic regression via IRLS Newton steps."""
    from polarwarn.evaluation import split_train_test

    aucs = []
    for i in range(protocol.repeats):
        kept = rebalance(dataset.labels, protocol.seed + i)
        train, test = split_train_test(dataset.labels[kept], protocol.train_fraction, protocol.seed + i)
        train, test = subset_rows(dataset, kept[train]), subset_rows(dataset, kept[test])
        mean = train.features.mean(0)
        scale = np.where(train.features.std(0) == 0, 1.0, train.features.std(0))
        X = np.hstack([(train.features - mean) / scale, np.ones((train.n, 1))])
        y = train.labels.astype(float)
        theta = np.zeros(X.shape[1])
        for _ in range(50):
            p = 1 / (1 + np.exp(-(X @ theta)))
            w = np.maximum(p * (1 - p), 1e-9)
            reg = np.eye(X.shape[1]) / train.n
            reg[-1, -1] = 0.0
            hessian = (X * w[:, None]).T @ X / train.n + reg
            grad = X.T @ (p - y) / train.n + reg @ theta
            step = np.linalg.solve(hessian, grad)
            theta -= step
            if np.linalg.norm(grad) < 1e-10:
                break
        Xt = np.hstack([(test.features - mean) / scale, np.ones((test.n, 1))])
        aucs.append(roc_auc(test.labels, Xt @ theta))
    return float(np.mean(aucs))


def test_benchmark_log_close_to_reference_implementation(small_synth):
    corpus, _, _ = small_synth
    sample = cm.select_e1(corpus)
    result = ew.run_early_warning(
        corpus, sample, specs=[ModelSpec("log", seed=3), ModelSpec("lin", seed=3)],
        protocol=Protocol(repeats=6, seed=3),
    )
    reference = reference_logistic_auc(result.dataset, Protocol(repeats=6, seed=3))
    assert result.benchmark.reports["log"].auc == pytest.approx(reference, abs=0.05)


def test_label_permutation_null(small_synth):
    corpus, _, _ = small_synth
    sample = cm.select_e1(corpus)
    feats = ew.with_indicators(feat.entity_features(corpus, sample), {th.MEASURE_PRESENTATION: 1.0})
    ds = ew.build_entity_dataset(feats, "E1", False)
    rng = np.random.default_rng(13)
    permuted = Dataset(
        features=ds.features,
        labels=rng.permutation(ds.labels),
        feature_names=ds.feature_names,
        row_ids=ds.row_ids,
    )
    result = ew.run_benchmark(permuted, [ModelSpec(a, seed=1) for a in ("lin", "log", "knn", "dt")],
                              Protocol(repeats=6, seed=1).cycles(permuted.labels))
    for algo, report in result.reports.items():
        assert 0.4 <= report.auc <= 0.6, algo


class TestPredictDisputed:
    def test_full_flow_and_ground_truth_auc(self, small_synth):
        corpus, truth, _ = small_synth
        sample = cm.select_e1(corpus)
        specs = [ModelSpec(a, seed=3) for a in ALGORITHMS]
        result = ew.run_early_warning(corpus, sample, specs, Protocol(repeats=5, seed=3))
        assert result.best[0] != result.best[1]
        labels, scores = result.predictions
        assert labels.shape == scores.shape == (2, result.dataset.n)
        gold = [1 if truth.entities[e].disputed else 0 for e in result.dataset.row_ids]
        assert roc_auc(gold, scores[0]) >= 0.75
        assert roc_auc(gold, scores[1]) >= 0.75
        for label, score, model in zip(labels.tolist(), scores.tolist(), result.best):
            assert label == [1 if s >= (0.0 if model == "svm" else 0.5) else 0 for s in score]


def test_dataset_rebuild_is_schema_stable(small_synth):
    corpus, _, _ = small_synth
    sample = cm.select_e1(corpus)
    feats1, _, _ = ew.threshold_entities(corpus, sample)
    feats2, _, _ = ew.threshold_entities(corpus, sample)
    ds1 = ew.build_entity_dataset(feats1, "E1", False)
    ds2 = ew.build_entity_dataset(feats2, "E1", False)
    assert len(ds1.row_ids) == len(sample.entities) > 0
    assert ds1.feature_names == ds2.feature_names
    assert ds1.row_ids == ds2.row_ids
    assert np.array_equal(ds1.features, ds2.features)


class TestThresholdEntities:
    def test_e1_gets_the_presentation_curve_only(self, small_synth):
        corpus, _, _ = small_synth
        table, curves, selections = ew.threshold_entities(corpus, cm.select_e1(corpus))
        assert list(curves) == list(selections) == [th.MEASURE_PRESENTATION]
        delta_p = selections[th.MEASURE_PRESENTATION].threshold
        for f in entity_rows(table):
            assert f["controversy"] == (1 if f["presentation_distance"] >= delta_p else 0)
            assert f["perception"] is None and f["captivation"] is None

    def test_e2_gets_every_curve_in_table_order(self, small_synth):
        corpus, _, _ = small_synth
        table, curves, selections = ew.threshold_entities(corpus, cm.select_e2(corpus))
        assert list(curves) == list(selections) == list(th.MEASURES)
        delta_r = selections[th.MEASURE_RESPONSE].threshold
        rho_e = selections[th.MEASURE_ENGAGEMENT].threshold
        for f in entity_rows(table):
            assert f["perception"] == (1 if f["response_dist_global"] >= delta_r else 0)
            assert f["captivation"] == (1 if f["engaged_fraction"] >= rho_e else 0)

    def test_entity_without_scored_comments_keeps_perception_none(self, small_synth):
        corpus, _, _ = small_synth
        e2 = cm.select_e2(corpus)
        extra = next(e for e in cm.select_e1(corpus).entities if e not in e2.entities)
        uncommented = np.flatnonzero(np.diff(corpus.comment_offsets) == 0)[:1]
        assert len(uncommented) == 1
        rows = dict(sorted({**members(e2), extra: uncommented}.items()))
        entity = np.repeat(np.arange(len(rows)), list(map(len, rows.values())))
        sample = cm.EntitySample("E2", tuple(rows), entity, np.concatenate(list(rows.values())),
                                 requires_comment_sentiment=True)
        table, curves, selections = ew.threshold_entities(corpus, sample)
        assert th.MEASURE_RESPONSE in selections
        # the curve's first cut, 0, keeps every entity with a value, and only those
        feats = entity_rows(table)
        disputed = sum(f["disputed"] for f in feats if f["entity"] != extra)
        assert disputed and curves[th.MEASURE_RESPONSE].ratio_de[0] == disputed / (len(rows) - 1)
        f = next(f for f in feats if f["entity"] == extra)
        assert f["response_dist_global"] is None and f["perception"] is None
        assert f["captivation"] is not None and f["controversy"] is not None
