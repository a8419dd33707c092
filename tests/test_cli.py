"""CLI subcommands: exit codes, artifacts, manifests, rerun determinism."""

import json

import pytest

from polarwarn.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main

SYNTH_CONFIG = {
    "n_entities": 40, "n_posts": 600, "n_users": 300, "n_comments": 4000,
    "head_entities": 4, "head_posts_min": 30, "head_posts_max": 40, "seed": 21,
}


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config_path = root / "synth.json"
    config_path.write_text(json.dumps(SYNTH_CONFIG))
    out = root / "data"
    assert main(["synth", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    return out


def test_synth_writes_manifest_and_files(data_dir):
    names = {p.name for p in data_dir.iterdir()}
    assert {"sources.jsonl", "posts.jsonl", "comments.jsonl", "mentions.jsonl",
            "truth.json", "manifest.json"} <= names
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["stage"] == "synth"
    assert manifest["seed"] == 21


def test_ingest_breakdown(data_dir, tmp_path, capsys):
    out = tmp_path / "ingest"
    assert main(["ingest", "--data", str(data_dir), "--out", str(out)]) == EXIT_OK
    breakdown = json.loads((out / "breakdown.json").read_text())
    assert breakdown["official"]["posts"] + breakdown["fake"]["posts"] == 600


def test_thresholds_from_fixtures(tmp_path):
    out = tmp_path / "th"
    assert main(["thresholds", "--fixtures", "fixtures", "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "thresholds.json").read_text())
    assert 1.0 <= doc["thresholds"]["delta_p"] <= 1.2
    assert (out / "curve_presentation_distance.csv").exists()


def test_thresholds_missing_fixture_is_data_error(tmp_path):
    empty = tmp_path / "nofix"
    empty.mkdir()
    code = main(["thresholds", "--fixtures", str(empty), "--out", str(tmp_path / "o")])
    assert code == EXIT_DATA


def test_thresholds_needs_source(tmp_path):
    assert main(["thresholds", "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_features_stage(data_dir, tmp_path):
    out = tmp_path / "features"
    assert main(["features", "--data", str(data_dir), "--sample", "e1",
                 "--out", str(out)]) == EXIT_OK
    names = {p.name for p in out.iterdir()}
    assert {"features_e1.csv", "attention_e1.csv", "temporal_lag_e1.csv",
            "manifest.json"} <= names
    assert any(n.startswith("response_hist_") for n in names)


def test_earlywarn_stage_and_rerun_identical(data_dir, tmp_path):
    args = ["earlywarn", "--data", str(data_dir), "--sample", "e1",
            "--algo", "log", "--algo", "dt", "--repeats", "3", "--seed", "5"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    for name in ("report.json", "predictions.csv", "benchmark.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    report = json.loads((out1 / "report.json").read_text())
    assert set(report["benchmark"]) == {"log", "dt"}
    assert len(report["best_models"]) == 2


def test_bad_hyperparameter_is_config_error(data_dir, tmp_path, caplog):
    code = main(["earlywarn", "--data", str(data_dir), "--out", str(tmp_path / "x"),
                 "--algo", "knn", "--hp", "k=4", "--repeats", "2"])
    assert code == EXIT_CONFIG
    code = main(["earlywarn", "--data", str(data_dir), "--out", str(tmp_path / "y"),
                 "--hp", "max_iter=abc", "--repeats", "2"])
    assert code == EXIT_CONFIG
    assert "max_iter must be a number >= 1, got 'abc'" in caplog.text


def test_report_files_name_every_row_and_class(data_dir, tmp_path):
    run_config = {"data": str(data_dir), "seed": 5, "repeats": 2, "algorithms": ["log", "dt"],
                  "fakenews": {"samples": ["p1"], "algorithms": ["log"], "max_stepwise": 1}}
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(run_config))
    run = tmp_path / "run"
    assert main(["pipeline", "--config", str(config_path), "--out", str(run)]) == EXIT_OK
    rows = (run / "earlywarn_e1" / "benchmark.csv").read_text().splitlines()
    assert rows[0] == "algorithm,row,auc,accuracy,mean_abs_err,precision,recall,fp_rate,f1"
    assert sorted(tuple(r.split(",")[:2]) for r in rows[1:]) == sorted(
        (a, row) for a in ("log", "dt") for row in ("undisputed", "disputed", "weighted_avg"))
    report = json.loads((run / "fakenews_p1" / "report.json").read_text())
    assert list(report["log"]["per_class"]) == ["not_fake", "fake"]


def test_missing_data_dir_is_data_error(tmp_path):
    code = main(["ingest", "--data", str(tmp_path / "ghost"), "--out", str(tmp_path / "o")])
    assert code == EXIT_DATA


def test_fakenews_stage(data_dir, tmp_path):
    out = tmp_path / "fn"
    code = main(["fakenews", "--data", str(data_dir), "--sample", "p1",
                 "--experiment", "b", "--algo", "log", "--repeats", "2",
                 "--max-stepwise", "2", "--seed", "5", "--out", str(out)])
    assert code == EXIT_OK
    names = {p.name for p in out.iterdir()}
    assert {"features_p1.csv", "auc_steps_b.csv", "report.json", "report.csv",
            "stepwise.csv", "manifest.json"} <= names
    header = (out / "features_p1.csv").read_text().splitlines()[0]
    assert header.startswith("row_id,st_likes") and header.endswith(",label")
    steps = (out / "auc_steps_b.csv").read_text().strip().splitlines()
    assert steps[0] == "step,log"
    assert len(steps) == 6


def test_pipeline_and_report(tmp_path):
    run_config = {
        "synth": SYNTH_CONFIG,
        "seed": 5,
        "repeats": 2,
        "algorithms": ["log", "dt"],
        "samples": ["e1"],
        "fakenews": {"samples": ["p1"], "experiments": ["b"],
                      "algorithms": ["log"], "max_stepwise": 2},
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(run_config))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert {"synth", "ingest", "earlywarn_e1", "fakenews_p1"} <= set(summary["stages"])

    # value-identical rerun of the same manifest
    out2 = tmp_path / "run2"
    assert main(["pipeline", "--config", str(config_path), "--out", str(out2)]) == EXIT_OK
    r1 = (out / "earlywarn_e1" / "report.json").read_bytes()
    r2 = (out2 / "earlywarn_e1" / "report.json").read_bytes()
    assert r1 == r2
    f1 = (out / "fakenews_p1" / "report.json").read_bytes()
    f2 = (out2 / "fakenews_p1" / "report.json").read_bytes()
    assert f1 == f2


def test_plots_flag_writes_svg(data_dir, tmp_path):
    out = tmp_path / "plots"
    assert main(["thresholds", "--fixtures", "fixtures", "--out", str(out),
                 "--plots"]) == EXIT_OK
    svg = (out / "curve_presentation_distance.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_all_fits_failing_is_numeric_error(data_dir, tmp_path):
    # a non-numeric regularization passes ModelSpec but fails every fit
    code = main(["earlywarn", "--data", str(data_dir), "--out", str(tmp_path / "x"),
                 "--algo", "log", "--algo", "svm", "--hp", "regularization=oops",
                 "--repeats", "2"])
    assert code == EXIT_NUMERIC


@pytest.mark.parametrize("run_config, named", [
    ({"samples": ["e1"], "sampels": ["e2"]}, "sampels"),
    ({"fakenews": {"samples": ["p1"], "max_steps": 2}}, "fakenews.max_steps"),
    ({"algorithms": ["log"]}, "algorithms"),
    ({"samples": ["e1", "E3"]}, "samples='E3'"),
    ({"fakenews": {"samples": ["P1", "px"]}}, "fakenews.samples='px'"),
    ({"fakenews": {"samples": ["p1"], "experiments": ["a", "c"]}}, "fakenews.experiments='c'"),
])
def test_pipeline_config_rejected_before_work(data_dir, tmp_path, caplog, run_config, named):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"data": str(data_dir), **run_config}))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(config_path), "--out", str(out)]) == EXIT_CONFIG
    assert named in caplog.text
    assert not out.exists()


def test_subcommands_match_pipeline(data_dir, tmp_path):
    common = ["--data", str(data_dir), "--repeats", "2", "--seed", "5", "--plots"]
    ew_out, fn_out = tmp_path / "ew", tmp_path / "fn"
    assert main(["earlywarn", "--sample", "e1", "--out", str(ew_out)] + common) == EXIT_OK
    assert main(["fakenews", "--sample", "p1", "--experiment", "b", "--algo", "log",
                 "--max-stepwise", "2", "--out", str(fn_out)] + common) == EXIT_OK

    run_config = {
        "data": str(data_dir), "seed": 5, "repeats": 2,
        "algorithms": ["lin", "log", "svm", "knn", "nn", "dt"], "samples": ["e1"],
        "fakenews": {"samples": ["p1"], "experiments": ["b"], "algorithms": ["log"],
                     "max_stepwise": 2},
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(run_config))
    run = tmp_path / "run"
    assert main(["pipeline", "--config", str(config_path), "--out", str(run), "--plots"]) == EXIT_OK
    ew_svgs = sorted(p.name for p in ew_out.glob("*.svg"))
    assert "curve_presentation_distance.svg" in ew_svgs
    for name in ("report.json", "predictions.csv", "benchmark.csv", "features.csv",
                 "manifest.json", *ew_svgs):
        assert (ew_out / name).read_bytes() == (run / "earlywarn_e1" / name).read_bytes(), name
    for name in ("report.json", "auc_steps_b.csv", "auc_steps_b.svg", "stepwise.csv",
                 "report.csv", "manifest.json"):
        assert (fn_out / name).read_bytes() == (run / "fakenews_p1" / name).read_bytes(), name
    # only the fakenews subcommand exports the post feature matrix
    assert (fn_out / "features_p1.csv").exists()
    assert not (run / "fakenews_p1" / "features_p1.csv").exists()


@pytest.mark.parametrize("command, option, message", [
    ("earlywarn", ["--repeats", "0"], "repeats must be at least 1, got 0"),
    ("fakenews", ["--repeats", "0"], "repeats must be at least 1, got 0"),
    ("earlywarn", ["--train-fraction", "1.5"], "train_fraction must be in (0, 1), got 1.5"),
    ("fakenews", ["--train-fraction", "0"], "train_fraction must be in (0, 1), got 0.0"),
    ("fakenews", ["--max-stepwise", "-3"], "max_stepwise must be at least 0, got -3"),
], ids=["earlywarn", "fakenews", "earlywarn-train_fraction", "fakenews-train_fraction",
        "fakenews-max_stepwise"])
def test_zero_repeats_rejected_before_work(data_dir, tmp_path, caplog, command, option, message):
    out = tmp_path / "out"
    code = main([command, "--data", str(data_dir), *option, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert message in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    ({"repeats": 0}, "repeats must be at least 1, got 0"),
    ({"repeats": -1}, "repeats must be at least 1, got -1"),
    ({"train_fraction": 1.5}, "train_fraction must be in (0, 1), got 1.5"),
    ({"fakenews": {"samples": ["p1"], "max_stepwise": -1}}, "max_stepwise must be at least 0, got -1"),
], ids=["0", "-1", "train_fraction", "max_stepwise"])
def test_pipeline_non_positive_repeats_rejected_before_work(data_dir, tmp_path, caplog, config, message):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"data": str(data_dir), **config}))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(config_path), "--out", str(out)]) == EXIT_CONFIG
    assert message in caplog.text
    assert not out.exists()
