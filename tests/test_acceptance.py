"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 5-7 and 9 share one full-size synthetic run (the default
generator config) through a session fixture; criterion 8 reruns the complete
CLI pipeline twice on a compact configuration.
"""

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from polarwarn import corpus as cm
from polarwarn import earlywarning as ew
from polarwarn import fakenews as fn
from polarwarn import features as feat
from polarwarn import models
from polarwarn import synth
from polarwarn import thresholds as th
from polarwarn.cli import main
from polarwarn.evaluation import Protocol, confusion_metrics, roc_auc
from polarwarn.models import ModelSpec
from polarwarn.models.linear import log_loss_grad
from polarwarn.models.mlp import init_params, nn_loss_grad

FIXTURES = "fixtures"


def ok(line: str) -> None:
    print(f"\nACCEPTANCE PASS: {line}")


@dataclass
class FullRun:
    corpus: object
    truth: object
    e1: object
    warning_e1: ew.EarlyWarningResult
    warning_e2: ew.EarlyWarningResult
    p1_dataset: object
    p2_dataset: object
    elapsed_early_warning: float


@pytest.fixture(scope="session")
def full_run(tmp_path_factory) -> FullRun:
    directory = tmp_path_factory.mktemp("acceptance_synth")
    t0 = time.perf_counter()
    truth = synth.generate(synth.SynthConfig(), directory)
    corpus = cm.load_corpus(directory)
    e1 = cm.select_e1(corpus)
    specs = [ModelSpec(a, seed=7) for a in models.ALGORITHMS]
    warning_e1 = ew.run_early_warning(corpus, e1, specs, Protocol(repeats=10, seed=7))
    elapsed = time.perf_counter() - t0

    e2 = cm.select_e2(corpus)
    warning_e2 = ew.run_early_warning(corpus, e2, specs, Protocol(repeats=10, seed=7))
    p1 = cm.posts_for_entities(corpus, e1, name="P1")
    p1_dataset = fn.build_post_dataset(corpus, p1, warning_e1)
    p2 = cm.posts_for_entities(corpus, e2, name="P2")
    p2_dataset = fn.build_post_dataset(corpus, p2, warning_e2)
    return FullRun(
        corpus=corpus,
        truth=truth,
        e1=e1,
        warning_e1=warning_e1,
        warning_e2=warning_e2,
        p1_dataset=p1_dataset,
        p2_dataset=p2_dataset,
        elapsed_early_warning=elapsed,
    )


def select_fixture(name: str, measure: str):
    curve = th.load_fixture_curve(f"{FIXTURES}/{name}.csv")
    row = th.MEASURES[measure]
    t0 = time.perf_counter()
    selection = th.select_threshold(curve, row.series, row.degree, row.index)
    elapsed = time.perf_counter() - t0
    return selection.threshold, elapsed


def test_criterion_1_threshold_reproduction_on_fixtures():
    cases = [
        ("fig2a", th.MEASURE_PRESENTATION, 1.1, 0.1),
        ("fig2b", th.MEASURE_PRESENTATION, 0.98, 0.1),
        ("fig3a", th.MEASURE_RESPONSE, 0.27, 0.05),
        ("fig3b", th.MEASURE_ENGAGEMENT, 0.42, 0.05),
    ]
    results = []
    for name, measure, target, tol in cases:
        threshold, elapsed = select_fixture(name, measure)
        assert abs(threshold - target) <= tol, (name, threshold, target)
        assert elapsed < 1.0, (name, elapsed)
        results.append(f"{name}={threshold:.3f} (target {target}+-{tol})")
    ok("criterion 1: fixture thresholds " + ", ".join(results))


def test_criterion_2_curve_shape_checks():
    e1 = th.load_fixture_curve(f"{FIXTURES}/fig2a.csv")
    e2 = th.load_fixture_curve(f"{FIXTURES}/fig2b.csv")
    assert e1.grid[0] == 0.0 and e2.grid[0] == 0.0
    assert abs(e1.ratio_de[0] - 0.192) <= 0.01
    assert abs(e2.ratio_de[0] - 0.605) <= 0.01
    tail = e1.ratio_de[e1.grid >= 1.9]
    assert len(tail) > 0 and np.all(tail >= 0.95)
    ok(
        "criterion 2: disputed share at zero cut "
        f"E1={e1.ratio_de[0]:.3f}, E2={e2.ratio_de[0]:.3f}; E1 tail >= 0.95"
    )


def pairwise_auc(labels, scores):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def brute_confusion(labels, preds):
    tp = tn = fp = fnn = 0
    for y, p in zip(labels, preds):
        if y == 1 and p == 1:
            tp += 1
        elif y == 0 and p == 0:
            tn += 1
        elif y == 0 and p == 1:
            fp += 1
        else:
            fnn += 1
    return tp, tn, fp, fnn


def test_criterion_3_metric_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[rng.integers(n)] = 1 - labels[0]
        scores = np.round(rng.normal(0, 1, n), int(rng.integers(0, 3)))
        worst = max(worst, abs(roc_auc(labels, scores) - pairwise_auc(labels, scores)))
        preds = rng.integers(0, 2, n)
        report = confusion_metrics(labels, preds)
        assert (report.tp, report.tn, report.fp, report.fn) == brute_confusion(labels, preds)
    assert worst < 1e-9
    ok(f"criterion 3: 1000 random sets, max |AUC - pair oracle| = {worst:.2e}, counts exact")


def test_criterion_4_classifier_oracles():
    rng = np.random.default_rng(11)
    # KNN vs exhaustive search on 100 random datasets
    for trial in range(100):
        n = int(rng.integers(6, 120))
        d = int(rng.integers(1, 6))
        X = rng.normal(0, 1, (n, d))
        if trial % 4 == 0:
            X[int(rng.integers(n))] = X[int(rng.integers(n))]
        y = rng.integers(0, 2, n)
        k = int(rng.choice([1, 3, 5]))
        k = min(k, n if n % 2 else n - 1)
        model = models.fit(
            models.Dataset(X, y.astype(np.int8), tuple(f"f{i}" for i in range(d))),
            ModelSpec("knn", {"k": k}),
        )
        test_rows = rng.normal(0, 1, (8, d))
        scores, _ = models.predict(model, test_rows)
        xs = model.standardizer.apply(X)
        ts = model.standardizer.apply(test_rows)
        for row, got in zip(ts, scores):
            dists = sorted((float(np.sum((x - row) ** 2)), i) for i, x in enumerate(xs))
            expected = np.mean([y[i] for _, i in dists[:k]])
            assert got == expected

    # analytic gradients vs central finite differences
    def central(fun, theta, eps=1e-6):
        out = np.zeros_like(theta)
        for i in range(len(theta)):
            up, down = theta.copy(), theta.copy()
            up[i] += eps
            down[i] -= eps
            out[i] = (fun(up) - fun(down)) / (2 * eps)
        return out

    X = rng.normal(0, 1, (30, 4))
    y = rng.integers(0, 2, 30).astype(float)
    worst_log = worst_nn = 0.0
    for i in range(10):
        theta = rng.normal(0, 1, 5)
        _, grad = log_loss_grad(theta, X, y, reg=1.0)
        fd = central(lambda t: log_loss_grad(t, X, y, 1.0)[0], theta)
        worst_log = max(worst_log, np.linalg.norm(grad - fd) / np.linalg.norm(fd))
        theta_nn = init_params(4, 6, seed=i) + rng.normal(0, 0.2, 4 * 6 + 6 + 6 + 1)
        _, grad_nn = nn_loss_grad(theta_nn, X, y, h=6, reg=1e-4)
        fd_nn = central(lambda t: nn_loss_grad(t, X, y, 6, 1e-4)[0], theta_nn)
        worst_nn = max(worst_nn, np.linalg.norm(grad_nn - fd_nn) / np.linalg.norm(fd_nn))
    assert worst_log < 1e-4 and worst_nn < 1e-4

    # DT reaches perfect training accuracy on consistent data at unlimited depth
    for trial in range(25):
        n = int(rng.integers(2, 65))
        X = rng.normal(0, 1, (n, 3))
        if trial % 3 == 0:
            X[: n // 2] = X[n // 2 : n // 2 + n // 2]  # duplicates, labels via function
            y = (X @ np.array([1.0, -0.5, 0.25]) > 0).astype(np.int8)
        else:
            y = rng.integers(0, 2, n).astype(np.int8)
        ds = models.Dataset(X, y, ("a", "b", "c"))
        model = models.fit(ds, ModelSpec("dt", {"max_depth": None, "min_leaf": 1}))
        _, labels = models.predict(model, X)
        assert np.array_equal(labels, y)
    ok(
        "criterion 4: KNN = exhaustive search on 100 datasets; gradient checks "
        f"log={worst_log:.1e}, nn={worst_nn:.1e}; DT exact on consistent data"
    )


def test_criterion_5_end_to_end_early_warning(full_run):
    result = full_run.warning_e1
    _, scores = result.predictions
    gold = [1 if full_run.truth.entities[e].disputed else 0 for e in result.dataset.row_ids]
    auc_a = roc_auc(gold, scores[0])
    auc_b = roc_auc(gold, scores[1])
    assert auc_a >= 0.75 and auc_b >= 0.75
    assert full_run.elapsed_early_warning < 300.0
    counts = full_run.truth.totals
    assert counts["posts"] == 10_000 and 900 <= len(full_run.e1.entities) <= 1000
    ok(
        "criterion 5: default synthetic run, best two "
        f"{result.best} prediction AUC = ({auc_a:.3f}, {auc_b:.3f}) >= 0.75 "
        f"in {full_run.elapsed_early_warning:.1f}s"
    )


def test_criterion_6_end_to_end_fake_news(full_run):
    spec = ModelSpec("log", seed=7)
    cycles = Protocol(repeats=10, seed=7).cycles(full_run.p1_dataset.labels)
    steps = fn.run_experiment(full_run.p1_dataset, ["B"], [spec], cycles)
    names = fn.EXPERIMENT_STEPS["B"]
    baseline = steps[names[0]]["log"].auc
    final = steps[names[-1]]["log"].auc
    assert names[0] == "ST" and names[-1] == "ST+S+UB+SB+P"
    assert final > baseline
    report = steps[fn.FULL_SET]["log"]  # every column of P1
    assert report.accuracy >= 0.85
    ok(
        f"criterion 6: experiment B log AUC {baseline:.3f} -> {final:.3f} "
        f"(strictly up); final log accuracy {report.accuracy:.3f} >= 0.85"
    )


def test_criterion_7_feature_width_invariants(full_run):
    widths = {
        "E1": len(full_run.warning_e1.dataset.feature_names),
        "E2": len(full_run.warning_e2.dataset.feature_names),
        "P1": len(full_run.p1_dataset.feature_names),
        "P2": len(full_run.p2_dataset.feature_names),
    }
    assert widths == {"E1": 8, "E2": 20, "P1": 44, "P2": 52}
    for ds in (full_run.p1_dataset, full_run.p2_dataset):
        assert len(set(ds.feature_names)) == len(ds.feature_names)
    ok(f"criterion 7: feature widths exact {widths}")


# the compact run config of criterion 8; tests/ledger.py pins its outputs
CRITERION_8_CONFIG = {
    "synth": {
        "n_entities": 60, "n_posts": 900, "n_users": 400, "n_comments": 6000,
        "head_entities": 6, "head_posts_min": 30, "head_posts_max": 40,
    },
    "seed": 5,
    "repeats": 3,
    "algorithms": ["log", "dt", "knn"],
    "samples": ["e1"],
    "fakenews": {"samples": ["p1"], "experiments": ["a", "b"],
                 "algorithms": ["log"], "max_stepwise": 2},
}


def test_criterion_8_pipeline_determinism(tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(CRITERION_8_CONFIG))
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        assert main(["pipeline", "--config", str(config_path), "--out", str(out)]) == 0
        outs.append(out)
    compared = []
    for rel in (
        "ingest/breakdown.json",
        "earlywarn_e1/report.json",
        "earlywarn_e1/predictions.csv",
        "earlywarn_e1/benchmark.csv",
        "fakenews_p1/report.json",
        "fakenews_p1/auc_steps_a.csv",
        "fakenews_p1/auc_steps_b.csv",
        "fakenews_p1/stepwise.csv",
    ):
        b1 = (outs[0] / rel).read_bytes()
        b2 = (outs[1] / rel).read_bytes()
        assert b1 == b2, rel
        compared.append(rel)
    ok(f"criterion 8: two pipeline runs value-identical across {len(compared)} reports")


def test_criterion_9_temporal_lag_confined(full_run):
    hist = feat.temporal_lag_histogram(full_run.corpus, full_run.e1, bin_hours=1.0)
    truth = full_run.truth
    n_disputed = len(truth.disputed)
    assert len(hist.lags_hours) == n_disputed
    assert sum(hist.counts) == n_disputed
    assert max(hist.lags_hours) <= 24.0
    within = sum(c for edge, c in zip(hist.edges_hours, hist.counts) if edge < 24.0)
    assert within == n_disputed
    ok(
        f"criterion 9: all {n_disputed} planted official-to-fake lags within 24h "
        f"(max {max(hist.lags_hours):.2f}h)"
    )
