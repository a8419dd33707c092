"""Command-line entry point wiring every pipeline stage.

Subcommands mirror the stages: synth, ingest, features, thresholds,
earlywarn, fakenews, report, pipeline.  Every stage writes its outputs under
--out together with a manifest (stage, canonical config hash, seed, inputs)
so a rerun with the same manifest reproduces identical report values.
pipeline runs the same stage functions as ingest, earlywarn and fakenews.
This module alone writes the stages' CSV and JSON reports (every CSV
through ``_write_csv``); the compute modules return values and open no
output file.  ``synth`` writes the corpus and ``svgplot`` the SVG plots.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import math
import sys
from dataclasses import dataclass
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
from .evaluation import MetricsReport, Protocol, StratificationError, UndefinedAUCError
from .models import ALGORITHMS, Dataset, DegenerateFitError, ModelSpec, ShapeError

log = logging.getLogger("polarwarn")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_CONFIG_ERRORS = (synth_mod.SynthConfigError, ValueError, KeyError, json.JSONDecodeError)
_DATA_ERRORS = (CorpusError, FileNotFoundError)
_NUMERIC_ERRORS = (
    th.FitError,
    th.SelectionError,
    DegenerateFitError,
    ShapeError,
    StratificationError,
    UndefinedAUCError,
    ew.TooFewModelsError,
)


class _StageError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _config_hash(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def _write_json(path: Path, doc, sort_keys: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=sort_keys)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


_REPORT_HEADER = ("algorithm", "row", "auc", "accuracy", "mean_abs_err", "precision", "recall", "fp_rate", "f1")


def _report_rows(reports: dict[str, MetricsReport]):
    """One row per (algorithm, class), then the algorithm's weighted average."""
    for algo, rep in reports.items():
        named = [(rep.class_names[c], rep.per_class[c]) for c in sorted(rep.per_class)]
        for row, m in named + [("weighted_avg", rep.weighted)]:
            yield (algo, row, rep.auc, rep.accuracy, rep.mean_abs_err,
                   m.precision, m.recall, m.fp_rate, m.f1)


# ``missing`` is the last field; it is written joined by "|"
_FEATURE_COLUMNS = tuple(f.name for f in dataclasses.fields(feat.EntityFeatures))


def _feature_rows(features):
    """One row per entity; a missing value is written blank."""
    for f in features:
        values = [getattr(f, c) for c in _FEATURE_COLUMNS[:-1]] + ["|".join(f.missing)]
        yield ["" if v is None else v for v in values]


def _write_manifest(out_dir: Path, stage: str, config: dict, seed: int | None, inputs: list[str]) -> None:
    _write_json(out_dir / "manifest.json", {
        "stage": stage,
        "version": __version__,
        "config": config,
        "config_hash": _config_hash(config),
        "seed": seed,
        "inputs": sorted(inputs),
    })


def _out_dir(path) -> Path:
    out = Path(path)
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


def _max_stepwise(value) -> int:
    n = int(value)
    if n < 0:
        raise _StageError(EXIT_CONFIG, f"max_stepwise must be at least 0, got {n}")
    return n


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


@dataclass(frozen=True)
class _Inputs:
    """What the early-warning and fake-news stages of one run share."""

    corpus: corpus_mod.Corpus
    data: str  # the corpus directory as given; recorded in every manifest
    protocol: Protocol
    plots: bool


def _inputs(args) -> _Inputs:
    protocol = Protocol(repeats=args.repeats, train_fraction=args.train_fraction, seed=args.seed)
    return _Inputs(corpus_mod.load_corpus(args.data), str(args.data), protocol, args.plots)


def _curve_svgs(out: Path, curves) -> None:
    for measure, curve in curves.items():
        svgplot.line_chart(
            out / f"curve_{measure}.svg",
            {"D_delta/D": (list(curve.grid), list(curve.ratio_dd)),
             "D_delta/E_delta": (list(curve.grid), list(curve.ratio_de))},
            title=measure, x_label="delta", y_label="ratio",
        )


def _ingest_stage(out: Path, corpus, data: str) -> dict:
    """Write the corpus breakdown and its manifest; return the breakdown."""
    out = _out_dir(out)
    breakdown = corpus.breakdown()
    _write_json(out / "breakdown.json", breakdown)
    _write_manifest(out, "ingest", {"data": data}, None, [data])
    return breakdown


def _earlywarn_stage(out: Path, inputs: _Inputs, sample_name: str,
                     specs: list[ModelSpec]) -> ew.EarlyWarningResult:
    """Run the early warning on one entity sample and write its reports."""
    sample = _load_sample(inputs.corpus, sample_name)
    result = ew.run_early_warning(inputs.corpus, sample, specs=specs, protocol=inputs.protocol)
    out = _out_dir(out)
    _write_json(out / "report.json", {
        "sample": sample.name,
        "thresholds": result.thresholds.to_json_dict(),
        "selections": {m: s.to_json_dict(m) for m, s in result.selections.items()},
        "benchmark": {a: r.to_json_dict() for a, r in result.benchmark.reports.items()},
        "failures": result.benchmark.failures,
        "best_models": list(result.best),
        "n_entities": len(result.dataset.labels),
        "n_disputed": int(result.dataset.labels.sum()),
    })
    _write_csv(out / "benchmark.csv", _REPORT_HEADER, _report_rows(result.benchmark.reports))
    _write_csv(out / "features.csv", _FEATURE_COLUMNS, _feature_rows(result.features))
    a, b = result.best
    _write_csv(out / "predictions.csv", ("entity", f"pred_{a}", f"pred_{b}", f"score_{a}", f"score_{b}"),
               ((p.entity, p.pred_a, p.pred_b, p.score_a, p.score_b) for p in result.predictions))
    if inputs.plots:
        _curve_svgs(out, result.curves)
    _write_manifest(out, "earlywarn",
                    {"data": inputs.data, "sample": sample_name,
                     "algorithms": [s.algorithm for s in specs],
                     "repeats": inputs.protocol.repeats,
                     "train_fraction": inputs.protocol.train_fraction},
                    inputs.protocol.seed, [inputs.data])
    return result


def _fakenews_stage(out: Path, inputs: _Inputs, sample_name: str, warning: ew.EarlyWarningResult,
                    specs: list[ModelSpec], experiments: list[str],
                    max_stepwise: int) -> tuple[Dataset, dict[str, fn.ExperimentResult]]:
    """Post-level experiments, final report and stepwise ranking for one post sample.

    ``warning`` is the finished early-warning result of the post sample's
    entity sample; its features and predictions feed the post features.
    Returns the post dataset and the experiment results by mode.
    """
    post_sample = corpus_mod.posts_for_entities(inputs.corpus, warning.sample,
                                                name=sample_name.upper())
    dataset = fn.build_post_dataset(inputs.corpus, post_sample, warning.features,
                                    warning.predictions, warning.sample)
    out = _out_dir(out)
    algorithms = [s.algorithm for s in specs]
    results = {}
    for mode in experiments:
        exp = fn.run_experiment(dataset, mode, specs, inputs.protocol)
        results[exp.mode] = exp
        table = {step: [exp.auc[a][i] for a in algorithms] for i, step in enumerate(exp.steps)}
        _write_csv(out / f"auc_steps_{exp.mode.lower()}.csv", ("step", *algorithms),
                   ((step, *aucs) for step, aucs in table.items()))
        if inputs.plots:
            svgplot.bar_chart(out / f"auc_steps_{exp.mode.lower()}.svg", algorithms, table,
                              title=f"experiment {exp.mode} ({sample_name})", y_label="AUC")
    reports, ranking = fn.final_report(dataset, specs, inputs.protocol, max_features=max_stepwise)
    _write_json(out / "report.json", {a: r.to_json_dict() for a, r in reports.items()}, sort_keys=False)
    _write_csv(out / "report.csv", _REPORT_HEADER, _report_rows(reports))
    _write_csv(out / "stepwise.csv", ("rank", "feature", "mean_auc"),
               ((i, name, auc) for i, (name, auc) in enumerate(zip(ranking.features, ranking.auc_trace), 1)))
    _write_manifest(out, "fakenews",
                    {"data": inputs.data, "sample": sample_name, "experiments": experiments,
                     "algorithms": algorithms, "repeats": inputs.protocol.repeats,
                     "train_fraction": inputs.protocol.train_fraction,
                     "max_stepwise": max_stepwise},
                    inputs.protocol.seed, [inputs.data])
    return dataset, results


def cmd_synth(args) -> int:
    out = _out_dir(args.out)
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
    corpus = corpus_mod.load_corpus(args.data)
    breakdown = _ingest_stage(Path(args.out), corpus, str(args.data))
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
    out = _out_dir(args.out)
    if args.fixtures:
        curves = _fixture_curves(Path(args.fixtures))
        result, selections = th.select_thresholds(curves)
        inputs = [args.fixtures]
    else:
        if not args.data:
            raise _StageError(EXIT_CONFIG, "thresholds needs --data or --fixtures")
        corpus = corpus_mod.load_corpus(args.data)
        _, curves, result, selections = ew.threshold_entities(corpus, _load_sample(corpus, args.sample))
        inputs = [str(args.data)]
    _write_json(out / "thresholds.json", {
        "thresholds": result.to_json_dict(),
        "selections": {m: s.to_json_dict(m) for m, s in selections.items()},
    })
    for measure, curve in curves.items():
        # a fixture's non-finite ratio_de is written nan
        rows = zip(curve.grid.tolist(), curve.ratio_dd.tolist(), curve.ratio_de.tolist())
        _write_csv(out / f"curve_{measure}.csv", ("delta", "ratio_dd", "ratio_de"),
                   ((g, dd, de if math.isfinite(de) else math.nan) for g, dd, de in rows))
    if args.plots:
        _curve_svgs(out, curves)
    _write_manifest(out, "thresholds", {"fixtures": args.fixtures, "sample": args.sample}, None, inputs)
    print(json.dumps(result.to_json_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_features(args) -> int:
    out = _out_dir(args.out)
    corpus = corpus_mod.load_corpus(args.data)
    sample = _load_sample(corpus, args.sample)
    features, _, _, _ = ew.threshold_entities(corpus, sample)
    _write_csv(out / f"features_{sample.name.lower()}.csv", _FEATURE_COLUMNS, _feature_rows(features))

    grid = [i / 100 for i in range(0, 200, 5)]
    attention = feat.attention_curve(corpus, sample, features, grid)
    _write_csv(out / f"attention_{sample.name.lower()}.csv", ("delta_p", "mean_likes", "mean_comments"),
               attention)
    for c_flag, d_flag, tag in ((True, True, "c_d"), (True, False, "c_ud"),
                                (False, True, "uc_d"), (False, False, "uc_ud")):
        hist = feat.response_distribution(features, c_flag, d_flag)
        _write_csv(out / f"response_hist_{tag}.csv", ("bin_lo", "bin_hi", "density"),
                   zip(hist.edges[:-1], hist.edges[1:], hist.density))
    lag = feat.temporal_lag_histogram(corpus, sample, bin_hours=args.bin_hours)
    _write_csv(out / f"temporal_lag_{sample.name.lower()}.csv", ("lag_lo_hours", "lag_hi_hours", "count"),
               zip(lag.edges_hours[:-1], lag.edges_hours[1:], lag.counts))
    _write_manifest(out, "features", {"data": str(args.data), "sample": args.sample,
                                      "bin_hours": args.bin_hours}, None, [str(args.data)])
    print(f"features: {len(features)} entities -> {out}")
    return EXIT_OK


def cmd_earlywarn(args) -> int:
    specs = _specs(args)
    result = _earlywarn_stage(Path(args.out), _inputs(args), args.sample, specs)
    print(f"earlywarn[{result.sample.name}]: best models {result.best}, "
          f"AUC {dict((a, round(r.auc, 3)) for a, r in result.benchmark.reports.items())}")
    return EXIT_OK


def cmd_fakenews(args) -> int:
    max_stepwise = _max_stepwise(args.max_stepwise)
    specs = _specs(args)
    inputs = _inputs(args)
    # the embedded early-warning stage always benchmarks the full suite so it
    # can pick its two predictive models; --algo only scopes the post task
    ew_specs = [ModelSpec(algorithm=a, seed=args.seed) for a in ALGORITHMS]
    warning = ew.run_early_warning(inputs.corpus, _load_sample(inputs.corpus, args.sample),
                                   specs=ew_specs, protocol=inputs.protocol)
    dataset, experiments = _fakenews_stage(Path(args.out), inputs, args.sample, warning, specs,
                                           args.experiment or ["a", "b"], max_stepwise)
    rows = zip(dataset.row_ids, dataset.features.tolist(), dataset.labels)
    _write_csv(Path(args.out) / f"features_{args.sample.lower()}.csv",
               ("row_id", *dataset.feature_names, "label"),
               ([rid, *values, int(label)] for rid, values, label in rows))
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
    _write_json(out_path, summary)
    print(f"report: {len(stages)} stage(s) -> {out_path}")
    return EXIT_OK


_PIPELINE_KEYS = {"data", "synth", "seed", "repeats", "train_fraction", "algorithms", "samples",
                  "fakenews"}
_PIPELINE_FAKENEWS_KEYS = {"samples", "experiments", "algorithms", "max_stepwise"}


def cmd_pipeline(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    fn_cfg = cfg.get("fakenews", {})
    unknown = sorted(set(cfg) - _PIPELINE_KEYS)
    unknown += [f"fakenews.{k}" for k in sorted(set(fn_cfg) - _PIPELINE_FAKENEWS_KEYS)]
    if unknown:
        raise _StageError(EXIT_CONFIG, f"unknown pipeline config key(s): {', '.join(unknown)}")
    listed = [("samples", cfg.get("samples", []), ("e1", "e2")),
              ("fakenews.samples", fn_cfg.get("samples", []), ("p1", "p2")),
              ("fakenews.experiments", fn_cfg.get("experiments", []), ("a", "b"))]
    bad = [f"{key}={name!r}" for key, names, accepted in listed for name in names
           if str(name).lower() not in accepted]  # names are case-insensitive
    if bad:
        raise _StageError(EXIT_CONFIG, f"unknown name(s) in pipeline config: {', '.join(bad)}")
    algorithms = cfg.get("algorithms", list(ALGORITHMS))
    if len(algorithms) < 2:  # the early warning keeps the best two
        raise _StageError(EXIT_CONFIG,
                          f"pipeline config key 'algorithms' needs two or more entries, got {algorithms}")
    seed = int(cfg.get("seed", 7))
    protocol = Protocol(repeats=int(cfg.get("repeats", 10)),
                        train_fraction=float(cfg.get("train_fraction", 0.6)), seed=seed)
    specs = [ModelSpec(algorithm=a, seed=seed) for a in algorithms]
    fn_specs = [ModelSpec(algorithm=a, seed=seed) for a in fn_cfg.get("algorithms", algorithms)]
    max_stepwise = _max_stepwise(fn_cfg.get("max_stepwise", 16))
    out = _out_dir(args.out)

    if "data" in cfg:
        data_dir = Path(cfg["data"])
    else:
        data_dir = out / "synth"
        synth_config = synth_mod.SynthConfig.from_json_dict({**cfg.get("synth", {}), "seed": seed})
        synth_mod.generate(synth_config, data_dir)
        _write_manifest(data_dir, "synth", synth_config.to_json_dict(), seed, [])
    corpus = corpus_mod.load_corpus(data_dir)
    inputs = _Inputs(corpus, str(data_dir), protocol, args.plots)

    _ingest_stage(out / "ingest", corpus, inputs.data)
    warnings: dict[str, ew.EarlyWarningResult] = {}
    for sample_name in cfg.get("samples", ["e1"]):
        warnings[sample_name.lower()] = _earlywarn_stage(
            out / f"earlywarn_{sample_name.lower()}", inputs, sample_name, specs
        )
    for post_sample_name in fn_cfg.get("samples", []):
        entity_sample_name = "e1" if post_sample_name.lower() == "p1" else "e2"
        if entity_sample_name not in warnings:
            warnings[entity_sample_name] = ew.run_early_warning(
                corpus, _load_sample(corpus, entity_sample_name), specs=specs, protocol=protocol
            )
        _fakenews_stage(out / f"fakenews_{post_sample_name.lower()}", inputs, post_sample_name,
                        warnings[entity_sample_name], fn_specs, fn_cfg.get("experiments", ["b"]),
                        max_stepwise)

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
    p.add_argument("--experiment", action="append", choices=["a", "b"],
                   help="experiment (repeatable; default: a and b)")
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
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
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
