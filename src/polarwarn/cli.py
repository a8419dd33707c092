"""Command-line entry point wiring every pipeline stage.

Subcommands mirror the stages: synth, ingest, features, thresholds,
earlywarn, fakenews, report, pipeline.  Every stage writes its outputs under
--out together with a manifest (stage, canonical config hash, seed, inputs)
so a rerun with the same manifest reproduces identical report values.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import sys
from pathlib import Path

from . import __version__
from . import corpus as corpus_mod
from . import earlywarning as ew
from . import fakenews as fn
from . import features as feat
from . import synth as synth_mod
from . import svgplot
from . import thresholds as th
from .corpus import CorpusError
from .evaluation import Protocol, StratificationError, UndefinedAUCError, report_to_csv, report_to_json
from .models import ALGORITHMS, DegenerateFitError, ModelSpec, ShapeError
from .models.base import dataset_to_csv

log = logging.getLogger("polarwarn")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_CONFIG_ERRORS = (synth_mod.SynthConfigError, ValueError, KeyError, json.JSONDecodeError)
_DATA_ERRORS = (CorpusError, FileNotFoundError, feat.UnknownEntityError, feat.MissingFeatureError)
_NUMERIC_ERRORS = (
    th.FitError,
    th.SelectionError,
    DegenerateFitError,
    ShapeError,
    StratificationError,
    UndefinedAUCError,
)


class _StageError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _config_hash(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def _write_manifest(out_dir: Path, stage: str, config: dict, seed: int | None, inputs: list[str]) -> None:
    manifest = {
        "stage": stage,
        "version": __version__,
        "config": config,
        "config_hash": _config_hash(config),
        "seed": seed,
        "inputs": sorted(inputs),
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_hp(pairs: list[str]) -> dict:
    hp = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise _StageError(EXIT_CONFIG, f"--hp expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            hp[key] = json.loads(raw)
        except json.JSONDecodeError:
            hp[key] = raw
    return hp


def _specs(args) -> list[ModelSpec]:
    algos = args.algo or list(ALGORITHMS)
    hp = _parse_hp(getattr(args, "hp", None))
    return [ModelSpec(algorithm=a, hyperparameters=hp, seed=args.seed) for a in algos]


def _protocol(args) -> Protocol:
    return Protocol(repeats=args.repeats, train_fraction=args.train_fraction, seed=args.seed)


def _load_sample(corpus, name: str):
    name = name.lower()
    if name in ("e1", "p1"):
        sample = corpus_mod.select_e1(corpus)
    elif name in ("e2", "p2"):
        sample = corpus_mod.select_e2(corpus)
    else:
        raise _StageError(EXIT_CONFIG, f"unknown sample {name!r}")
    if not sample.entities:
        raise _StageError(EXIT_DATA, f"sample {sample.name} is empty for this corpus")
    return sample


def cmd_synth(args) -> int:
    out = _out_dir(args)
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = {}
    if args.seed is not None:
        doc["seed"] = args.seed
    config = synth_mod.SynthConfig.from_json_dict(doc)
    truth = synth_mod.generate(config, out)
    _write_manifest(out, "synth", config.to_json_dict(), config.seed, [])
    print(f"synth: wrote {truth.totals['posts']} posts, {truth.totals['comments']} comments, "
          f"{truth.totals['mentions']} mentions to {out}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    out = _out_dir(args)
    corpus = corpus_mod.load_corpus(args.data)
    breakdown = corpus.breakdown()
    with open(out / "breakdown.json", "w", encoding="utf-8") as fh:
        json.dump(breakdown, fh, indent=2, sort_keys=True)
    _write_manifest(out, "ingest", {"data": str(args.data)}, None, [str(args.data)])
    print(json.dumps(breakdown, indent=2, sort_keys=True))
    return EXIT_OK


def _fixture_curves(fixtures_dir: Path) -> dict[str, th.RatioCurve]:
    mapping = {
        th.MEASURE_PRESENTATION: "fig2a.csv",
        th.MEASURE_RESPONSE: "fig3a.csv",
        th.MEASURE_ENGAGEMENT: "fig3b.csv",
    }
    return {m: th.load_fixture_curve(fixtures_dir / f) for m, f in mapping.items()}


def cmd_thresholds(args) -> int:
    out = _out_dir(args)
    if args.fixtures:
        curves = _fixture_curves(Path(args.fixtures))
        inputs = [args.fixtures]
    else:
        if not args.data:
            raise _StageError(EXIT_CONFIG, "thresholds needs --data or --fixtures")
        corpus = corpus_mod.load_corpus(args.data)
        sample = _load_sample(corpus, args.sample)
        disputed = corpus_mod.disputed_entities(corpus, sample)
        features = feat.entity_features(corpus, sample, disputed=disputed)
        curves = ew.measure_curves(features, disputed, sample.requires_comment_sentiment)
        inputs = [str(args.data)]
    result, selections = th.select_thresholds(curves)
    doc = {
        "thresholds": result.to_json_dict(),
        "selections": {m: s.to_json_dict(m) for m, s in selections.items()},
    }
    with open(out / "thresholds.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    for measure, curve in curves.items():
        feat.curve_to_csv(th.curve_to_rows(curve), ("delta", "ratio_dd", "ratio_de"),
                          out / f"curve_{measure}.csv")
        if args.plots:
            svgplot.line_chart(
                out / f"curve_{measure}.svg",
                {"D_delta/D": (list(curve.grid), list(curve.ratio_dd)),
                 "D_delta/E_delta": (list(curve.grid), list(curve.ratio_de))},
                title=measure, x_label="delta", y_label="ratio",
            )
    _write_manifest(out, "thresholds", {"fixtures": args.fixtures, "sample": args.sample}, None, inputs)
    print(json.dumps(result.to_json_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_features(args) -> int:
    out = _out_dir(args)
    corpus = corpus_mod.load_corpus(args.data)
    sample = _load_sample(corpus, args.sample)
    disputed = corpus_mod.disputed_entities(corpus, sample)
    features = feat.entity_features(corpus, sample, disputed=disputed)
    curves = ew.measure_curves(features, disputed, sample.requires_comment_sentiment)
    result, _ = th.select_thresholds(curves)
    ew.fill_indicators(features, result)
    feat.features_to_csv(features, out / f"features_{sample.name.lower()}.csv")

    grid = [i / 100 for i in range(0, 200, 5)]
    attention = feat.attention_curve(corpus, sample, features, grid)
    feat.curve_to_csv(attention, ("delta_p", "mean_likes", "mean_comments"),
                      out / f"attention_{sample.name.lower()}.csv")
    for c_flag, d_flag, tag in ((True, True, "c_d"), (True, False, "c_ud"),
                                (False, True, "uc_d"), (False, False, "uc_ud")):
        hist = feat.response_distribution(features, c_flag, d_flag)
        rows = list(zip(hist.edges[:-1], hist.edges[1:], hist.density))
        feat.curve_to_csv(rows, ("bin_lo", "bin_hi", "density"),
                          out / f"response_hist_{tag}.csv")
    lag = feat.temporal_lag_histogram(corpus, sample, bin_hours=args.bin_hours)
    rows = list(zip(lag.edges_hours[:-1], lag.edges_hours[1:], lag.counts))
    feat.curve_to_csv(rows, ("lag_lo_hours", "lag_hi_hours", "count"),
                      out / f"temporal_lag_{sample.name.lower()}.csv")
    _write_manifest(out, "features", {"data": str(args.data), "sample": args.sample,
                                      "bin_hours": args.bin_hours}, None, [str(args.data)])
    print(f"features: {len(features)} entities -> {out}")
    return EXIT_OK


def _earlywarn_outputs(out: Path, result: ew.EarlyWarningResult, plots: bool) -> None:
    report = {
        "sample": result.sample_name,
        "thresholds": result.thresholds.to_json_dict(),
        "selections": {m: s.to_json_dict(m) for m, s in result.selections.items()},
        "benchmark": {a: r.to_json_dict() for a, r in result.benchmark.reports.items()},
        "failures": result.benchmark.failures,
        "best_models": list(result.best),
        "n_entities": len(result.dataset.labels),
        "n_disputed": int(result.dataset.labels.sum()),
    }
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    report_to_csv(result.benchmark.reports, out / "benchmark.csv")
    feat.features_to_csv(result.features, out / "features.csv")
    with open(out / "predictions.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        a, b = result.best
        writer.writerow(["entity", f"pred_{a}", f"pred_{b}", f"score_{a}", f"score_{b}"])
        for p in result.predictions:
            writer.writerow([p.entity, p.pred_a, p.pred_b, p.score_a, p.score_b])
    if plots:
        for measure, curve in result.curves.items():
            svgplot.line_chart(
                out / f"curve_{measure}.svg",
                {"D_delta/D": (list(curve.grid), list(curve.ratio_dd)),
                 "D_delta/E_delta": (list(curve.grid), list(curve.ratio_de))},
                title=measure, x_label="delta", y_label="ratio",
            )


def cmd_earlywarn(args) -> int:
    out = _out_dir(args)
    corpus = corpus_mod.load_corpus(args.data)
    sample = _load_sample(corpus, args.sample)
    result = ew.run_early_warning(
        corpus, sample, specs=_specs(args), protocol=_protocol(args), jobs=args.jobs
    )
    _earlywarn_outputs(out, result, args.plots)
    _write_manifest(out, "earlywarn",
                    {"data": str(args.data), "sample": args.sample,
                     "algorithms": args.algo or list(ALGORITHMS),
                     "repeats": args.repeats, "train_fraction": args.train_fraction},
                    args.seed, [str(args.data)])
    print(f"earlywarn[{sample.name}]: best models {result.best}, "
          f"AUC {dict((a, round(r.auc, 3)) for a, r in result.benchmark.reports.items())}")
    return EXIT_OK


def cmd_fakenews(args) -> int:
    out = _out_dir(args)
    corpus = corpus_mod.load_corpus(args.data)
    sample = _load_sample(corpus, args.sample)
    protocol = _protocol(args)
    specs = _specs(args)
    # the embedded early-warning stage always benchmarks the full suite so it
    # can pick its two predictive models; --algo only scopes the post task
    ew_specs = [ModelSpec(algorithm=a, seed=args.seed) for a in ALGORITHMS]
    warning = ew.run_early_warning(corpus, sample, specs=ew_specs, protocol=protocol, jobs=args.jobs)
    post_sample = corpus_mod.posts_for_entities(corpus, sample, name=args.sample.upper())
    dataset = fn.build_post_dataset(corpus, post_sample, warning.features, warning.predictions, sample)
    dataset_to_csv(dataset, out / f"features_{args.sample.lower()}.csv")

    experiments = {}
    for mode in args.experiment:
        exp = fn.run_experiment(dataset, mode, specs, protocol)
        experiments[exp.mode] = exp
        rows = [
            (step,) + tuple(exp.auc[s.algorithm][i] for s in specs)
            for i, step in enumerate(exp.steps)
        ]
        feat.curve_to_csv(rows, ("step",) + tuple(s.algorithm for s in specs),
                          out / f"auc_steps_{exp.mode.lower()}.csv")
        if args.plots:
            svgplot.bar_chart(
                out / f"auc_steps_{exp.mode.lower()}.svg",
                [s.algorithm for s in specs],
                {step: [exp.auc[s.algorithm][i] for s in specs] for i, step in enumerate(exp.steps)},
                title=f"experiment {exp.mode} ({args.sample})", y_label="AUC",
            )
    reports, ranking = fn.final_report(dataset, specs, protocol, max_features=args.max_stepwise)
    report_to_json(reports, out / "report.json")
    report_to_csv(reports, out / "report.csv")
    feat.curve_to_csv(
        [(i + 1, name, auc) for i, (name, auc) in enumerate(zip(ranking.features, ranking.auc_trace))],
        ("rank", "feature", "mean_auc"),
        out / "stepwise.csv",
    )
    _write_manifest(out, "fakenews",
                    {"data": str(args.data), "sample": args.sample,
                     "experiments": args.experiment, "algorithms": [s.algorithm for s in specs],
                     "repeats": args.repeats, "train_fraction": args.train_fraction,
                     "max_stepwise": args.max_stepwise},
                    args.seed, [str(args.data)])
    summary = {m: {a: exp.auc[a] for a in exp.auc} for m, exp in experiments.items()}
    print(f"fakenews[{args.sample}]: rows={dataset.n} cols={len(dataset.feature_names)} "
          f"experiments={json.dumps(summary)}")
    return EXIT_OK


def cmd_report(args) -> int:
    run_dir = Path(args.run)
    if not run_dir.exists():
        raise _StageError(EXIT_DATA, f"run directory not found: {run_dir}")
    stages = {}
    for manifest_path in sorted(run_dir.glob("**/manifest.json")):
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        stage_dir = manifest_path.parent
        entry = {"manifest": manifest, "outputs": sorted(p.name for p in stage_dir.iterdir())}
        report_path = stage_dir / "report.json"
        if report_path.exists():
            with open(report_path, encoding="utf-8") as fh:
                entry["report"] = json.load(fh)
        stages[str(stage_dir.relative_to(run_dir))] = entry
    summary = {"run": str(run_dir), "stages": stages}
    out_path = run_dir / "summary.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    print(f"report: {len(stages)} stage(s) -> {out_path}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    out = _out_dir(args)
    seed = int(cfg.get("seed", 7))
    repeats = int(cfg.get("repeats", 10))
    train_fraction = float(cfg.get("train_fraction", 0.6))
    algorithms = cfg.get("algorithms", list(ALGORITHMS))
    samples = cfg.get("samples", ["e1"])
    fn_cfg = cfg.get("fakenews", {})
    protocol = Protocol(repeats=repeats, train_fraction=train_fraction, seed=seed)
    specs = [ModelSpec(algorithm=a, seed=seed) for a in algorithms]

    if "data" in cfg:
        data_dir = Path(cfg["data"])
    else:
        data_dir = out / "synth"
        synth_config = synth_mod.SynthConfig.from_json_dict({**cfg.get("synth", {}), "seed": seed})
        synth_mod.generate(synth_config, data_dir)
        _write_manifest(data_dir, "synth", synth_config.to_json_dict(), seed, [])
    corpus = corpus_mod.load_corpus(data_dir)

    ingest_dir = out / "ingest"
    ingest_dir.mkdir(exist_ok=True)
    with open(ingest_dir / "breakdown.json", "w", encoding="utf-8") as fh:
        json.dump(corpus.breakdown(), fh, indent=2, sort_keys=True)
    _write_manifest(ingest_dir, "ingest", {"data": str(data_dir)}, None, [str(data_dir)])

    warnings: dict[str, ew.EarlyWarningResult] = {}
    for sample_name in samples:
        sample = _load_sample(corpus, sample_name)
        stage_dir = out / f"earlywarn_{sample_name.lower()}"
        stage_dir.mkdir(exist_ok=True)
        result = ew.run_early_warning(corpus, sample, specs=specs, protocol=protocol, jobs=args.jobs)
        _earlywarn_outputs(stage_dir, result, args.plots)
        _write_manifest(stage_dir, "earlywarn",
                        {"data": str(data_dir), "sample": sample_name,
                         "algorithms": algorithms, "repeats": repeats,
                         "train_fraction": train_fraction},
                        seed, [str(data_dir)])
        warnings[sample_name.lower()] = result

    for post_sample_name in fn_cfg.get("samples", []):
        entity_sample_name = "e1" if post_sample_name.lower() == "p1" else "e2"
        if entity_sample_name not in warnings:
            sample = _load_sample(corpus, entity_sample_name)
            warnings[entity_sample_name] = ew.run_early_warning(
                corpus, sample, specs=specs, protocol=protocol, jobs=args.jobs
            )
        warning = warnings[entity_sample_name]
        sample = _load_sample(corpus, entity_sample_name)
        post_sample = corpus_mod.posts_for_entities(corpus, sample, name=post_sample_name.upper())
        dataset = fn.build_post_dataset(corpus, post_sample, warning.features,
                                        warning.predictions, sample)
        fn_specs = [ModelSpec(algorithm=a, seed=seed)
                    for a in fn_cfg.get("algorithms", algorithms)]
        stage_dir = out / f"fakenews_{post_sample_name.lower()}"
        stage_dir.mkdir(exist_ok=True)
        for mode in fn_cfg.get("experiments", ["b"]):
            exp = fn.run_experiment(dataset, mode, fn_specs, protocol)
            rows = [
                (step,) + tuple(exp.auc[s.algorithm][i] for s in fn_specs)
                for i, step in enumerate(exp.steps)
            ]
            feat.curve_to_csv(rows, ("step",) + tuple(s.algorithm for s in fn_specs),
                              stage_dir / f"auc_steps_{exp.mode.lower()}.csv")
        reports, ranking = fn.final_report(dataset, fn_specs, protocol,
                                           max_features=int(fn_cfg.get("max_stepwise", 16)))
        report_to_json(reports, stage_dir / "report.json")
        report_to_csv(reports, stage_dir / "report.csv")
        feat.curve_to_csv(
            [(i + 1, name, auc)
             for i, (name, auc) in enumerate(zip(ranking.features, ranking.auc_trace))],
            ("rank", "feature", "mean_auc"),
            stage_dir / "stepwise.csv",
        )
        _write_manifest(stage_dir, "fakenews",
                        {"data": str(data_dir), "sample": post_sample_name,
                         "experiments": fn_cfg.get("experiments", ["b"]),
                         "algorithms": fn_cfg.get("algorithms", algorithms),
                         "repeats": repeats, "train_fraction": train_fraction,
                         "max_stepwise": int(fn_cfg.get("max_stepwise", 16))},
                        seed, [str(data_dir)])

    _write_manifest(out, "pipeline", cfg, seed, [str(args.config)])
    cmd_report(argparse.Namespace(run=out))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarwarn",
        description="Polarization-based early warning and fake-news classification pipeline",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_models=False):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--plots", action="store_true", help="also write SVG plots")
        if with_models:
            p.add_argument("--algo", action="append", choices=ALGORITHMS,
                           help="algorithm (repeatable; default: all)")
            p.add_argument("--hp", action="append", metavar="KEY=VALUE",
                           help="hyperparameter override (repeatable)")
            p.add_argument("--repeats", type=int, default=10)
            p.add_argument("--train-fraction", type=float, default=0.6, dest="train_fraction")
            p.add_argument("--seed", type=int, default=7)
            p.add_argument("--jobs", type=int, default=1, help="worker parallelism cap")

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--config", help="SynthConfig JSON file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="load and validate a corpus, print the breakdown")
    p.add_argument("--data", required=True, help="directory with the four JSONL files")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("features", help="entity features and analysis curves")
    p.add_argument("--data", required=True)
    p.add_argument("--sample", choices=["e1", "e2"], default="e1")
    p.add_argument("--bin-hours", type=float, default=1.0, dest="bin_hours")
    add_common(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("thresholds", help="select thresholds from data or fixtures")
    p.add_argument("--data")
    p.add_argument("--fixtures", help="directory with fig2a/fig3a/fig3b fixture CSVs")
    p.add_argument("--sample", choices=["e1", "e2"], default="e2")
    add_common(p)
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("earlywarn", help="benchmark classifiers, predict disputed entities")
    p.add_argument("--data", required=True)
    p.add_argument("--sample", choices=["e1", "e2"], default="e1")
    add_common(p, with_models=True)
    p.set_defaults(func=cmd_earlywarn)

    p = sub.add_parser("fakenews", help="post-level classification experiments")
    p.add_argument("--data", required=True)
    p.add_argument("--sample", choices=["p1", "p2"], default="p1")
    p.add_argument("--experiment", action="append", choices=["a", "b"], default=None)
    p.add_argument("--max-stepwise", type=int, default=16, dest="max_stepwise")
    add_common(p, with_models=True)
    p.set_defaults(func=cmd_fakenews)

    p = sub.add_parser("report", help="aggregate stage outputs under a run directory")
    p.add_argument("--run", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pipeline", help="run all stages from a RunConfig JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--plots", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    if hasattr(args, "experiment") and args.experiment is None:
        args.experiment = ["a", "b"]
    try:
        return args.func(args)
    except _StageError as exc:
        log.error("%s", exc)
        return exc.code
    except _NUMERIC_ERRORS as exc:
        log.error("numeric failure: %s", exc)
        return EXIT_NUMERIC
    except _DATA_ERRORS as exc:
        log.error("data error: %s", exc)
        return EXIT_DATA
    except _CONFIG_ERRORS as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
