"""CLI subcommands: exit codes, artifacts, manifests, rerun determinism."""

import json
import shutil

import pytest

from polarwarn import cli
from polarwarn import earlywarning as ew
from polarwarn import evaluation
from polarwarn import fakenews as fn
from polarwarn import thresholds as th
from polarwarn.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from polarwarn.corpus import CorpusError, SchemaError
from polarwarn.errors import ConfigError
from polarwarn.models import ShapeError, linear
from polarwarn.synth import SynthConfigError

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


def test_thresholds_from_fixtures_ignores_sample(tmp_path):
    # --sample only picks the entities of a --data corpus; fixtures have none
    manifests = []
    for sample in ("e1", "e2"):
        out = tmp_path / sample
        assert main(["thresholds", "--fixtures", "fixtures", "--sample", sample, "--out", str(out)]) == EXIT_OK
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    assert json.loads(manifests[0])["config"] == {"fixtures": "fixtures"}


def test_thresholds_missing_fixture_is_data_error(tmp_path):
    empty = tmp_path / "nofix"
    empty.mkdir()
    code = main(["thresholds", "--fixtures", str(empty), "--out", str(tmp_path / "o")])
    assert code == EXIT_DATA


def test_thresholds_needs_source(tmp_path):
    assert main(["thresholds", "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_thresholds_takes_one_source(data_dir, tmp_path, caplog):
    out = tmp_path / "o"
    code = main(["thresholds", "--data", str(data_dir), "--fixtures", "fixtures", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "thresholds needs exactly one of --data and --fixtures" in caplog.text
    assert not out.exists()


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


def test_hp_is_recorded_in_the_manifest(data_dir, tmp_path):
    # --hp changes the reports, so it must change the manifest and its hash too
    argv = ["earlywarn", "--data", str(data_dir), "--algo", "knn", "--algo", "lin", "--repeats", "2"]
    manifests, reports = {}, {}
    for tag, hp in (("plain", []), ("k1", ["--hp", "k=1"])):
        out = tmp_path / tag
        assert main(argv + hp + ["--out", str(out)]) == EXIT_OK
        manifests[tag] = json.loads((out / "manifest.json").read_text())
        reports[tag] = (out / "report.json").read_bytes()
    assert reports["plain"] != reports["k1"]
    assert "hp" not in manifests["plain"]["config"]
    assert manifests["k1"]["config"]["hp"] == {"k": 1}
    assert manifests["plain"]["config_hash"] != manifests["k1"]["config_hash"]


def test_bad_hyperparameter_is_config_error(data_dir, tmp_path, caplog):
    code = main(["earlywarn", "--data", str(data_dir), "--out", str(tmp_path / "x"),
                 "--algo", "knn", "--hp", "k=4", "--repeats", "2"])
    assert code == EXIT_CONFIG
    code = main(["earlywarn", "--data", str(data_dir), "--out", str(tmp_path / "y"),
                 "--hp", "max_iter=abc", "--repeats", "2"])
    assert code == EXIT_CONFIG
    assert "max_iter must be an integer >= 1, got 'abc'" in caplog.text
    for i, (algos, hp, message) in enumerate([
        (["svm", "lin"], "regularization=0", "regularization must be a finite number > 0, got 0"),
        (["svm", "lin"], "regularization=-1", "regularization must be a finite number > 0, got -1"),
        (["log"], "regularization=-0.5", "regularization must be a finite number >= 0, got -0.5"),
        (["nn"], "regularization=NaN", "regularization must be a finite number >= 0, got nan"),
        (["nn", "lin"], "hidden_size=0", "hidden_size must be an integer >= 1, got 0"),
        (["nn"], "hidden_size=2.5", "hidden_size must be an integer >= 1, got 2.5"),
        (["lin", "log"], "foo=1", "--hp key(s) foo not declared"),
        (["log", "nn"], "tol=abc", "tol must be a finite number >= 0, got 'abc'"),
        (["dt", "lin"], "min_leaf=0", "min_leaf must be an integer >= 1, got 0"),
        (["dt", "lin"], "max_depth=0", "max_depth must be an integer >= 1 or null, got 0"),
        (["log", "svm", "nn"], "max_iter=Infinity", "max_iter must be an integer >= 1, got inf"),
        (["svm", "lin"], "max_iter=1.5", "max_iter must be an integer >= 1, got 1.5"),
        # json.loads refuses an integer literal this long with a plain ValueError
        (["nn", "lin"], "max_iter=" + "9" * 4301, "max_iter must be an integer >= 1, got '999"),
    ]):
        out = tmp_path / f"hp{i}"
        argv = ["earlywarn", "--data", str(data_dir), "--out", str(out), "--hp", hp, "--repeats", "2"]
        for algo in algos:
            argv += ["--algo", algo]
        assert main(argv) == EXIT_CONFIG, hp
        assert message in caplog.text
        assert not out.exists()


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


@pytest.mark.parametrize("repeats", [1, 3])
def test_fakenews_draws_each_stage_cycles_once(data_dir, tmp_path, monkeypatch, repeats):
    # E1 benchmark cycles, the refit's rebalance, then the P1 cycles that every
    # experiment step, final report and stepwise candidate shares
    calls = []
    rebalance = evaluation.rebalance

    def counted(*args):
        calls.append(args[1])
        return rebalance(*args)

    monkeypatch.setattr(evaluation, "rebalance", counted)
    monkeypatch.setattr(ew, "rebalance", counted)
    code = main(["fakenews", "--data", str(data_dir), "--algo", "log", "--repeats", str(repeats),
                 "--max-stepwise", "2", "--seed", "5", "--out", str(tmp_path / "fn")])
    assert code == EXIT_OK
    assert len(calls) == 2 * repeats + 1
    seeds = list(range(5, 5 + repeats))
    assert calls == seeds + [5] + seeds


@pytest.mark.parametrize("experiments, steps", [([], 8), (["a"], 6), (["b"], 5)], ids=["a+b", "a", "b"])
def test_fakenews_evaluates_each_step_once(data_dir, tmp_path, monkeypatch, experiments, steps):
    # the E1 benchmark's six algorithms, then each distinct step of the
    # experiments, B's last step being the full set that report.json reads
    calls = []
    run_cycles = evaluation.run_cycles

    def counted(dataset, spec, cycles):
        calls.append(spec.algorithm)
        return run_cycles(dataset, spec, cycles)

    for module in (evaluation, ew, fn):
        monkeypatch.setattr(module, "run_cycles", counted)
    out = tmp_path / "fn"
    argv = ["fakenews", "--data", str(data_dir), "--algo", "log", "--repeats", "1",
            "--max-stepwise", "0", "--seed", "5", "--out", str(out)]
    for mode in experiments:
        argv += ["--experiment", mode]
    assert main(argv) == EXIT_OK
    assert len(calls) == 6 + steps
    if "b" in (experiments or ["a", "b"]):
        report = json.loads((out / "report.json").read_text())
        header, *rows = (line.split(",") for line in (out / "auc_steps_b.csv").read_text().splitlines())
        assert rows[-1][0] == "ST+S+UB+SB+P"
        assert {a: float(v) for a, v in zip(header[1:], rows[-1][1:])} == {a: r["auc"] for a, r in report.items()}


def test_pipeline_and_report(tmp_path):
    run_config = {
        "synth": {k: v for k, v in SYNTH_CONFIG.items() if k != "seed"},  # the run's seed is the corpus's
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

    # report over a finished run rewrites its summary byte for byte
    written = (out / "summary.json").read_bytes()
    assert main(["report", "--run", str(out)]) == EXIT_OK
    assert (out / "summary.json").read_bytes() == written


def test_plots_flag_writes_svg(data_dir, tmp_path):
    out = tmp_path / "plots"
    assert main(["thresholds", "--fixtures", "fixtures", "--out", str(out),
                 "--plots"]) == EXIT_OK
    svg = (out / "curve_presentation_distance.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_all_fits_failing_is_numeric_error(data_dir, tmp_path, monkeypatch):
    def diverge(*args):
        raise th.FitError("diverged")

    monkeypatch.setattr(linear, "fit_log", diverge)
    monkeypatch.setattr(linear, "fit_svm", diverge)
    code = main(["earlywarn", "--data", str(data_dir), "--out", str(tmp_path / "x"),
                 "--algo", "log", "--algo", "svm", "--repeats", "2"])
    assert code == EXIT_NUMERIC


def test_all_disputed_corpus_is_numeric_error(tmp_path, caplog):
    # one class: the cycles cannot be drawn, so no algorithm is evaluated
    (tmp_path / "synth.json").write_text(json.dumps({**SYNTH_CONFIG, "disputed_fraction": 1.0}))
    assert main(["synth", "--config", str(tmp_path / "synth.json"), "--out", str(tmp_path / "data")]) == EXIT_OK
    code = main(["earlywarn", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "x"),
                 "--algo", "lin", "--algo", "log", "--repeats", "2"])
    assert code == EXIT_NUMERIC
    assert "numeric failure: rebalance requires both classes" in caplog.text
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("run_config, named", [
    ({"samples": ["e1"], "sampels": ["e2"]}, "sampels"),
    ({"fakenews": {"samples": ["p1"], "max_steps": 2}}, "fakenews.max_steps"),
    ({"algorithms": ["log"]}, "algorithms"),
    ({"samples": ["e1", "E3"]}, "samples='E3'"),
    ({"fakenews": {"samples": ["P1", "px"]}}, "fakenews.samples='px'"),
    ({"fakenews": {"samples": ["p1"], "experiments": ["a", "c"]}}, "fakenews.experiments='c'"),
    ({"seed": "abc"}, "key 'seed' must be an integer, got 'abc'"),
    ({"seed": 7.9}, "key 'seed' must be an integer, got 7.9"),
    ({"repeats": None}, "key 'repeats' must be an integer, got None"),
    ({"repeats": 2.7}, "key 'repeats' must be an integer, got 2.7"),
    ({"train_fraction": True}, "key 'train_fraction' must be a number, got True"),
    ({"data": 5}, "key 'data' must be a string, got 5"),
    ({"fakenews": ["p1"]}, "key 'fakenews' must be an object"),
    ({"fakenews": {"samples": ["p1"], "max_stepwise": 1.5}}, "key 'fakenews.max_stepwise' must be an integer"),
    ({"algorithms": "lin"}, "key 'algorithms' must be a list, got 'lin'"),
    ({"algorithms": ["lin", "lin"]}, "key 'algorithms' needs two or more distinct names"),
    ({"fakenews": {"samples": ["p1"], "algorithms": []}}, "key 'fakenews.algorithms' needs one or more"),
    ({"algorithms": ["lin", "log", "lin"]}, "key 'algorithms' names lin more than once"),
    ({"fakenews": {"samples": ["p1"], "algorithms": ["log", "lin", "log"]}},
     "key 'fakenews.algorithms' names log more than once"),
    ({"samples": ["e1", "E1"]}, "key 'samples' names e1 more than once"),
    ({"fakenews": {"samples": ["p1", "p1"]}}, "key 'fakenews.samples' names p1 more than once"),
    ({"fakenews": {"samples": ["p1"], "experiments": ["b", "B"]}},
     "key 'fakenews.experiments' names b more than once"),
    ({"synth": {"n_posts": 100}}, "takes one of the keys 'data' and 'synth', not both"),
])
def test_pipeline_config_rejected_before_work(data_dir, tmp_path, caplog, run_config, named):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"data": str(data_dir), **run_config}))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(config_path), "--out", str(out)]) == EXIT_CONFIG
    assert named in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("run_config, named", [
    ({"synth": SYNTH_CONFIG, "seed": 5}, "'synth.seed' (21) must equal the key 'seed' (5)"),
    ({"synth": SYNTH_CONFIG}, "'synth.seed' (21) must equal the key 'seed' (7)"),
], ids=["seed", "default-seed"])
def test_pipeline_synth_seed_must_be_the_run_seed(tmp_path, caplog, run_config, named):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(run_config))
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
    ("earlywarn", ["--seed", "-1"], "seed must be at least 0, got -1"),
    ("fakenews", ["--seed", "-2"], "seed must be at least 0, got -2"),
    ("earlywarn", ["--algo", "log"], "--algo needs two or more distinct names, got ['log']"),
    ("earlywarn", ["--algo", "lin", "--algo", "lin"],
     "--algo needs two or more distinct names, got ['lin', 'lin']"),
    ("earlywarn", ["--algo", "lin", "--algo", "log", "--algo", "lin"], "--algo names lin more than once"),
    ("fakenews", ["--algo", "log", "--algo", "log"], "--algo names log more than once"),
    ("fakenews", ["--experiment", "b", "--experiment", "b"], "--experiment names b more than once"),
], ids=["earlywarn", "fakenews", "earlywarn-train_fraction", "fakenews-train_fraction",
        "fakenews-max_stepwise", "earlywarn-seed", "fakenews-seed", "earlywarn-one-algo",
        "earlywarn-same-algo", "earlywarn-repeated-algo", "fakenews-repeated-algo",
        "fakenews-repeated-experiment"])
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
    ({"seed": -1}, "seed must be at least 0, got -1"),
], ids=["0", "-1", "train_fraction", "max_stepwise", "seed"])
def test_pipeline_non_positive_repeats_rejected_before_work(data_dir, tmp_path, caplog, config, message):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"data": str(data_dir), **config}))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(config_path), "--out", str(out)]) == EXIT_CONFIG
    assert message in caplog.text
    assert not out.exists()


NUMERIC_ERRORS = [th.FitError, th.SelectionError, ShapeError, evaluation.StratificationError,
                  ew.TooFewModelsError]


@pytest.mark.parametrize("error, code", [
    (ConfigError, EXIT_CONFIG), (SynthConfigError, EXIT_CONFIG),
    (CorpusError, EXIT_DATA), (SchemaError, EXIT_DATA), (FileNotFoundError, EXIT_DATA),
    *[(error, EXIT_NUMERIC) for error in NUMERIC_ERRORS],
    (ValueError, None), (KeyError, None), (ZeroDivisionError, None),
], ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
def test_exit_code_follows_error_type_alone(tmp_path, monkeypatch, error, code):
    def fail(args):
        raise error("planted")

    monkeypatch.setattr(cli, "cmd_ingest", fail)
    argv = ["ingest", "--data", str(tmp_path), "--out", str(tmp_path / "o")]
    if code is None:  # any other type is a bug: it propagates with its traceback
        with pytest.raises(error, match="planted"):
            main(argv)
    else:
        assert main(argv) == code


@pytest.mark.parametrize("error, code", [(ValueError, None), (th.FitError, EXIT_NUMERIC)])
def test_fakenews_fit_failure_is_not_caught(data_dir, tmp_path, monkeypatch, error, code):
    # the embedded early warning records a numeric failure of the log fits
    # and lets any other error through; the post-level stage catches nothing
    def fail(*args):
        raise error("planted")

    monkeypatch.setattr(linear, "fit_log", fail)
    argv = ["fakenews", "--data", str(data_dir), "--sample", "p1", "--experiment", "b", "--algo", "log",
            "--repeats", "2", "--max-stepwise", "1", "--out", str(tmp_path / "fn")]
    if code is None:
        with pytest.raises(error, match="planted"):
            main(argv)
    else:
        assert main(argv) == code


@pytest.mark.parametrize("command", ["synth", "pipeline"])
@pytest.mark.parametrize("content", [b"[1, 2]", b'{"seed": ', b'{"seed": "caf\xe9"}'],
                         ids=["array", "truncated", "latin1"])
def test_config_file_not_a_json_object(tmp_path, caplog, command, content):
    config_path = tmp_path / "config.json"
    config_path.write_bytes(content)
    out = tmp_path / "out"
    assert main([command, "--config", str(config_path), "--out", str(out)]) == EXIT_CONFIG
    assert f"configuration error: {config_path}: " in caplog.text
    assert not (out / "posts.jsonl").exists() and not (out / "manifest.json").exists()


@pytest.mark.parametrize("bin_hours, message", [
    ("0", "bin_hours must be a finite number > 0, got 0.0"),
    ("nan", "bin_hours must be a finite number > 0, got nan"),
    ("1e-4", "bin_hours must be at least 1/3600 (one second), got 0.0001"),
])
def test_bad_bin_hours_is_config_error(data_dir, tmp_path, caplog, bin_hours, message):
    out = tmp_path / "f"
    assert main(["features", "--data", str(data_dir), "--bin-hours", bin_hours, "--out", str(out)]) == EXIT_CONFIG
    assert message in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("argv, config, code", [
    (["pipeline"], {"synth": {"n_posts": "10"}}, EXIT_CONFIG),
    (["synth"], {"n_posts": "10"}, EXIT_CONFIG),
    (["features", "--data", "nowhere"], None, EXIT_DATA),
    (["thresholds", "--fixtures", "nowhere"], None, EXIT_DATA),
], ids=["pipeline-synth", "synth", "features", "thresholds"])
def test_failing_command_leaves_no_out(tmp_path, argv, config, code):
    argv = [str(tmp_path / arg) if arg == "nowhere" else arg for arg in argv]
    if config is not None:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        argv += ["--config", str(config_path)]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == code
    assert not out.exists()


@pytest.mark.parametrize("text, named", [
    ("x,ratio_dd,ratio_de\n0.0,1.0,0.5\n", "fig2a.csv: expected columns"),
    ("delta,ratio_dd,ratio_de\n0.0,1.0,0.5\n0.1,abc,0.5\n", "fig2a.csv: could not convert string to float: 'abc'"),
    ("delta,ratio_dd,ratio_de\n0.0,1.0\n", "fig2a.csv: float() argument"),
    ("delta,ratio_dd,ratio_de\n0.0,1.0,caf\xe9\n", "fig2a.csv: 'utf-8' codec can't decode"),
], ids=["columns", "cell", "missing-cell", "latin1"])
def test_bad_fixture_is_data_error(tmp_path, caplog, text, named):
    fixtures = tmp_path / "fixtures"
    shutil.copytree("fixtures", fixtures)
    (fixtures / "fig2a.csv").write_bytes(text.encode("latin-1"))
    assert main(["thresholds", "--fixtures", str(fixtures), "--out", str(tmp_path / "o")]) == EXIT_DATA
    assert named in caplog.text


@pytest.mark.parametrize("name, content", [
    ("manifest.json", "{"), ("manifest.json", "[]"), ("report.json", "[1]"), ("report.json", "{,}"),
])
def test_bad_run_file_is_data_error(tmp_path, caplog, name, content):
    stage = tmp_path / "run" / "stage"
    stage.mkdir(parents=True)
    (stage / "manifest.json").write_text("{}")
    (stage / name).write_text(content)
    assert main(["report", "--run", str(tmp_path / "run")]) == EXIT_DATA
    assert f"data error: {stage / name}: " in caplog.text


def test_report_run_that_is_a_file_is_data_error(tmp_path, caplog):
    run = tmp_path / "run.json"
    run.write_text("{}")
    assert main(["report", "--run", str(run)]) == EXIT_DATA
    assert f"data error: run directory not found or not a directory: {run}" in caplog.text


@pytest.mark.parametrize("command", ["synth", "pipeline"])
def test_config_that_is_a_directory_is_config_error(tmp_path, caplog, command):
    config_dir = tmp_path / "config.json"
    config_dir.mkdir()
    out = tmp_path / "out"
    assert main([command, "--config", str(config_dir), "--out", str(out)]) == EXIT_CONFIG
    assert f"configuration error: {config_dir}: is a directory" in caplog.text
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("name", ["manifest.json", "report.json"])
def test_run_file_that_is_a_directory_is_data_error(tmp_path, caplog, name):
    stage = tmp_path / "run" / "stage"
    stage.mkdir(parents=True)
    (stage / name).mkdir()
    if name != "manifest.json":
        (stage / "manifest.json").write_text("{}")
    assert main(["report", "--run", str(tmp_path / "run")]) == EXIT_DATA
    assert f"data error: {stage / name}: is a directory" in caplog.text


def test_features_has_no_plots_flag(data_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["features", "--data", str(data_dir), "--plots", "--out", str(tmp_path / "f")])
    assert exc.value.code == EXIT_CONFIG
    assert not (tmp_path / "f").exists()


def test_thresholds_and_earlywarn_write_the_same_cuts(data_dir, tmp_path):
    assert main(["thresholds", "--data", str(data_dir), "--sample", "e1",
                 "--out", str(tmp_path / "th")]) == EXIT_OK
    assert main(["earlywarn", "--data", str(data_dir), "--sample", "e1", "--algo", "log", "--algo", "dt",
                 "--repeats", "2", "--out", str(tmp_path / "ew")]) == EXIT_OK
    written = json.loads((tmp_path / "th" / "thresholds.json").read_text())
    report = json.loads((tmp_path / "ew" / "report.json").read_text())
    assert written["thresholds"] == report["thresholds"]
    assert written["selections"] == report["selections"]
    assert written["thresholds"]["delta_p"] == written["selections"][th.MEASURE_PRESENTATION]["threshold"]
