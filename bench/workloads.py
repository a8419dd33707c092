"""Workload definitions and the output checks run after every pipeline run.

Each workload is a synthetic-corpus configuration made during set-up plus a
``polarwarn pipeline`` run config.  The workload seed becomes both the synth
seed and the pipeline seed, so one seed gives one corpus and one result.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALL_ALGORITHMS = ["lin", "log", "svm", "knn", "nn", "dt"]

# Quality floors of the acceptance suite (tests/test_acceptance.py), unchanged.
EW_TRUTH_AUC_FLOOR = 0.75  # criterion 5
FINAL_LOG_ACCURACY_FLOOR = 0.85  # criterion 6
EXPECTED_WIDTHS = {"E1": 8, "E2": 20, "P1": 44, "P2": 52}  # criterion 7

REPORT_FILES = ("report.json", "predictions.csv", "stepwise.csv")
REPORT_GLOBS = ("auc_steps_*.csv",)


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict
    pipeline: dict
    # stage directory whose report.json gives report_auc
    report_stage: str
    # datasets whose criterion-7 width is checked
    widths: tuple[str, ...]
    checks_fake_news: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ew-default",
            synth={},
            pipeline={"samples": ["e1", "e2"], "algorithms": ALL_ALGORITHMS, "repeats": 10},
            report_stage="earlywarn_e2",
            widths=("E1", "E2"),
        ),
        Workload(
            name="fn-p1",
            synth={},
            pipeline={
                "samples": ["e1"], "algorithms": ALL_ALGORITHMS, "repeats": 3,
                "fakenews": {"samples": ["p1"], "experiments": ["a", "b"],
                             "algorithms": ["log"], "max_stepwise": 1},
            },
            report_stage="fakenews_p1",
            checks_fake_news=True,
            widths=("E1", "P1"),
        ),
        Workload(
            name="ingest-3x",
            synth={"n_entities": 1000, "n_posts": 30_000, "n_comments": 300_000, "n_users": 9_000},
            pipeline={
                "samples": ["e1"], "algorithms": ["lin", "dt"], "repeats": 5,
                "fakenews": {"samples": ["p1"], "experiments": ["b"],
                             "algorithms": ["lin"], "max_stepwise": 1},
            },
            report_stage="fakenews_p1",
            widths=("E1", "P1"),
        ),
    )
}


def pairwise_auc(labels, scores) -> float:
    """AUC as the share of (positive, negative) pairs ranked right, ties 1/2."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    pos, neg = scores[labels == 1], scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("AUC needs both classes")
    wins = np.sum(pos[:, None] > neg[None, :]) + 0.5 * np.sum(pos[:, None] == neg[None, :])
    return float(wins / (len(pos) * len(neg)))


def report_hashes(out_dir: Path) -> dict[str, str]:
    """sha256 of every report file under a pipeline output directory."""
    paths = [p for name in REPORT_FILES for p in out_dir.rglob(name)]
    paths += [p for pattern in REPORT_GLOBS for p in out_dir.rglob(pattern)]
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(paths)
    }


def ew_truth_aucs(out_dir: Path, truth: dict[str, bool]) -> tuple[float, float]:
    """E1 prediction AUCs of the two best models against the planted truth."""
    # columns: entity, pred_<a>, pred_<b>, score_<a>, score_<b>
    with open(out_dir / "earlywarn_e1" / "predictions.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    gold = [1 if truth[r[0]] else 0 for r in rows]
    return (pairwise_auc(gold, [float(r[3]) for r in rows]),
            pairwise_auc(gold, [float(r[4]) for r in rows]))


def report_auc(out_dir: Path, workload: Workload) -> float:
    """Best AUC in the report of the workload's last classification stage."""
    with open(out_dir / workload.report_stage / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    table = report["benchmark"] if "benchmark" in report else report
    return max(r["auc"] for r in table.values())


def check_run(out_dir: Path, workload: Workload, truth: dict[str, bool],
              widths: dict[str, int]) -> tuple[dict[str, dict], dict[str, float]]:
    """Run every output check on one finished pipeline run.

    Returns ``(checks, values)``: each check is ``{"ok", "detail"}``, and
    values holds ``ew_truth_auc`` and ``report_auc``.
    """
    checks: dict[str, dict] = {}

    failures = {}
    for report_path in sorted(out_dir.glob("earlywarn_*/report.json")):
        with open(report_path, encoding="utf-8") as fh:
            failures.update(json.load(fh)["failures"])
    checks["benchmark_failures"] = {"ok": not failures, "detail": failures}

    auc_a, auc_b = ew_truth_aucs(out_dir, truth)
    checks["criterion_5_ew_truth_auc"] = {
        "ok": auc_a >= EW_TRUTH_AUC_FLOOR and auc_b >= EW_TRUTH_AUC_FLOOR,
        "detail": f"({auc_a:.4f}, {auc_b:.4f}) >= {EW_TRUTH_AUC_FLOOR}",
    }

    if workload.checks_fake_news:
        stage = out_dir / "fakenews_p1"
        with open(stage / "auc_steps_b.csv", newline="", encoding="utf-8") as fh:
            steps = list(csv.DictReader(fh))
        first, last = steps[0], steps[-1]
        rises = (first["step"] == "ST" and last["step"] == "ST+S+UB+SB+P"
                 and float(last["log"]) > float(first["log"]))
        checks["criterion_6_b_rises"] = {
            "ok": rises, "detail": f"{first['step']} {first['log']} -> {last['step']} {last['log']}",
        }
        with open(stage / "report.json", encoding="utf-8") as fh:
            accuracy = json.load(fh)["log"]["accuracy"]
        checks["criterion_6_log_accuracy"] = {
            "ok": accuracy >= FINAL_LOG_ACCURACY_FLOOR,
            "detail": f"{accuracy:.4f} >= {FINAL_LOG_ACCURACY_FLOOR}",
        }

    expected = {k: EXPECTED_WIDTHS[k] for k in workload.widths}
    seen = {k: widths.get(k) for k in workload.widths}
    checks["criterion_7_widths"] = {"ok": seen == expected, "detail": seen}

    values = {"ew_truth_auc": min(auc_a, auc_b), "report_auc": report_auc(out_dir, workload)}
    return checks, values
