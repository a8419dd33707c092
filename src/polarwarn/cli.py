"""Command-line entry point wiring every pipeline stage.

Subcommands mirror the stages: synth, ingest, features, thresholds,
earlywarn, fakenews, report, pipeline.  Every stage writes its outputs under
--out together with a manifest (stage, canonical config hash, seed, inputs)
so a rerun with the same manifest reproduces identical report values.
pipeline runs the same stage functions as ingest, earlywarn and fakenews.
This module alone writes the stages' CSV and JSON reports (every CSV
through ``_write_csv``); the compute modules return values and open no
output file.  ``synth`` writes the corpus and ``svgplot`` the SVG plots.

Exit codes follow the error's type alone: 0 success, 2 ``ConfigError``, 3
``CorpusError`` or ``FileNotFoundError``, 4 ``NumericError``; any other
exception is a bug and propagates with its traceback (exit 1).
"""

from __future__ import annotations

import argparse
import csv
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
from .errors import ConfigError, NumericError
from .evaluation import MetricsReport, Protocol
from .models import ALGORITHMS, Dataset, ModelSpec

log = logging.getLogger("polarwarn")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _config_hash(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def _read_json(path, error: type[Exception] = ConfigError) -> dict:
    """The JSON object in the file ``path``; anything else raises ``error`` naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except IsADirectoryError:
        raise error(f"{path}: is a directory, not a JSON file") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or an over-long integer
        raise error(f"{path}: not a JSON document ({exc})") from None
    if not isinstance(doc, dict):
        raise error(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _write_json(path: Path, doc, sort_keys: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=sort_keys)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


_REPORT_HEADER = ("algorithm", "row", "auc", "accuracy", "mean_abs_err", "precision", "recall", "fp_rate", "f1")


def _report_rows(reports: dict[str, MetricsReport], class_names: dict[int, str]):
    """One row per (algorithm, class), then the algorithm's weighted average."""
    for algo, rep in reports.items():
        named = [(class_names[c], rep.per_class[c]) for c in sorted(rep.per_class)]
        for row, m in named + [("weighted_avg", rep.weighted)]:
            yield (algo, row, rep.auc, rep.accuracy, rep.mean_abs_err,
                   m.precision, m.recall, m.fp_rate, m.f1)


_INDICATORS = {row.indicator for row in th.MEASURES.values()}


def _write_features(path: Path, table: feat.EntityTable) -> None:
    """features.csv: each entity's columns, then ``missing``, which names the comment sentiment it lacks.

    A missing value (NaN) is written blank, and an indicator as 0 or 1.
    """
    columns = []
    for name, column in table.columns.items():
        values = column.tolist()
        columns.append([v if math.isnan(v) else int(v) for v in values] if name in _INDICATORS else values)
    mean = table.columns["comment_sent_mean"].tolist()  # NaN exactly where no comment is scored
    columns.append(["comment_sentiment" if math.isnan(v) else "" for v in mean])
    rows = (["" if v != v else v for v in row] for row in zip(table.entities, *columns))
    _write_csv(path, ("entity", *table.columns, "missing"), rows)


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
            raise ConfigError(f"--hp expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            hp[key] = json.loads(raw)
        except ValueError:  # not JSON, or an integer literal too long to convert
            hp[key] = raw
    return hp


def _specs(args) -> list[ModelSpec]:
    """One spec per selected algorithm, each given the --hp keys its algorithm declares."""
    algos = args.algo or list(ALGORITHMS)
    hp = _parse_hp(getattr(args, "hp", None))
    declared = {a: ModelSpec(a).hyperparameters.keys() for a in algos}
    unknown = sorted(set(hp).difference(*declared.values()))
    if unknown:
        raise ConfigError(f"--hp key(s) {', '.join(unknown)} not declared by any of "
                          f"the algorithms {', '.join(algos)}")
    return [ModelSpec(algorithm=a, hyperparameters={k: v for k, v in hp.items() if k in declared[a]},
                      seed=args.seed) for a in algos]


def _algorithm_names(names: list, key: str, at_least: int) -> list:
    """``names`` once they hold ``at_least`` distinct algorithms, none of them twice.

    The early warning keeps the best two of its algorithms; a fake-news
    algorithm is one column of every report, so a repeat would be fitted twice.
    """
    if len(set(map(str, names))) < at_least:
        says = "two or more distinct names" if at_least == 2 else "one or more names"
        raise ConfigError(f"{key} needs {says}, got {names}")
    return _once_each(names, key)


def _once_each(names: list, key: str) -> list:
    """``names`` once none of them is listed twice."""
    repeated = sorted({str(name) for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"{key} names {', '.join(repeated)} more than once")
    return names


def _max_stepwise(n: int) -> int:
    if n < 0:
        raise ConfigError(f"max_stepwise must be at least 0, got {n}")
    return n


# entity sample -> its selector, looked up on the corpus module at call time so
# that a rebinding there (bench/tracing.py times the selectors) applies
_ENTITY_SAMPLES = {"e1": lambda corpus: corpus_mod.select_e1(corpus),
                   "e2": lambda corpus: corpus_mod.select_e2(corpus)}
# post sample -> the entity sample whose posts it holds
_POST_SAMPLES = {"p1": "e1", "p2": "e2"}
_EXPERIMENTS = tuple(mode.lower() for mode in fn.EXPERIMENT_STEPS)


def _load_sample(corpus, name: str):
    """The entity sample ``name`` names, or the one a post sample is drawn from."""
    name = name.lower()
    sample = _ENTITY_SAMPLES[_POST_SAMPLES.get(name, name)](corpus)
    if not sample.entities:
        raise CorpusError(f"sample {sample.name} is empty for this corpus")
    return sample


@dataclass(frozen=True)
class _Inputs:
    """What the early-warning and fake-news stages of one run share."""

    corpus: corpus_mod.Corpus
    data: str  # the corpus directory as given; recorded in every manifest
    protocol: Protocol
    plots: bool
    hp: dict  # the --hp overrides; recorded in the stage manifests when given


def _inputs(args) -> _Inputs:
    protocol = Protocol(repeats=args.repeats, train_fraction=args.train_fraction, seed=args.seed)
    return _Inputs(corpus_mod.load_corpus(args.data), str(args.data), protocol, args.plots,
                   _parse_hp(args.hp))


def _stage_config(inputs: _Inputs, sample_name: str, specs: list[ModelSpec]) -> dict:
    """The manifest config keys the early-warning and fake-news stages share;
    ``hp`` only when there are overrides, so other runs keep their manifests."""
    config = {"data": inputs.data, "sample": sample_name, "algorithms": [s.algorithm for s in specs],
              "repeats": inputs.protocol.repeats, "train_fraction": inputs.protocol.train_fraction}
    if inputs.hp:
        config["hp"] = inputs.hp
    return config


def _curve_svgs(out: Path, curves) -> None:
    for measure, curve in curves.items():
        svgplot.line_chart(
            out / f"curve_{measure}.svg",
            {"D_delta/D": (list(curve.grid), list(curve.ratio_dd)),
             "D_delta/E_delta": (list(curve.grid), list(curve.ratio_de))},
            title=measure, x_label="delta", y_label="ratio",
        )


def _selection_docs(selections) -> dict:
    """The ``thresholds`` and ``selections`` objects of thresholds.json and an early warning's report.json."""
    return {"thresholds": th.thresholds_json(selections),
            "selections": {m: s.to_json_dict(m) for m, s in selections.items()}}


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
        **_selection_docs(result.selections),
        "benchmark": {a: r.to_json_dict(ew.CLASS_NAMES) for a, r in result.benchmark.reports.items()},
        "failures": result.benchmark.failures,
        "best_models": list(result.best),
        "n_entities": len(result.dataset.labels),
        "n_disputed": int(result.dataset.labels.sum()),
    })
    _write_csv(out / "benchmark.csv", _REPORT_HEADER, _report_rows(result.benchmark.reports, ew.CLASS_NAMES))
    _write_features(out / "features.csv", result.features)
    a, b = result.best
    labels, scores = result.predictions
    _write_csv(out / "predictions.csv", ("entity", f"pred_{a}", f"pred_{b}", f"score_{a}", f"score_{b}"),
               zip(result.dataset.row_ids, *labels.tolist(), *scores.tolist()))
    if inputs.plots:
        _curve_svgs(out, result.curves)
    _write_manifest(out, "earlywarn", _stage_config(inputs, sample_name, specs),
                    inputs.protocol.seed, [inputs.data])
    return result


def _fakenews_stage(out: Path, inputs: _Inputs, sample_name: str, warning: ew.EarlyWarningResult,
                    specs: list[ModelSpec], experiments: list[str],
                    max_stepwise: int) -> tuple[Dataset, dict[str, dict[str, MetricsReport]]]:
    """Post-level experiments, final report and stepwise ranking for one post sample.

    ``warning`` is the finished early-warning result of the post sample's
    entity sample; its features and predictions feed the post features.
    Returns the post dataset and the step reports, by step name and algorithm.
    """
    post_sample = corpus_mod.posts_for_entities(inputs.corpus, warning.sample,
                                                name=sample_name.upper())
    dataset = fn.build_post_dataset(inputs.corpus, post_sample, warning)
    out = _out_dir(out)
    algorithms = [s.algorithm for s in specs]
    cycles = inputs.protocol.cycles(dataset.labels)
    steps = fn.run_experiment(dataset, experiments, specs, cycles)
    for mode in map(str.upper, experiments):
        table = {step: [steps[step][a].auc for a in algorithms] for step in fn.EXPERIMENT_STEPS[mode]}
        _write_csv(out / f"auc_steps_{mode.lower()}.csv", ("step", *algorithms),
                   ((step, *aucs) for step, aucs in table.items()))
        if inputs.plots:
            svgplot.bar_chart(out / f"auc_steps_{mode.lower()}.svg", algorithms, table,
                              title=f"experiment {mode} ({sample_name})", y_label="AUC")
    reports = steps[fn.FULL_SET]
    ranking = fn.final_report(dataset, reports, specs, cycles, max_features=max_stepwise)
    _write_json(out / "report.json", {a: r.to_json_dict(fn.CLASS_NAMES) for a, r in reports.items()},
                sort_keys=False)
    _write_csv(out / "report.csv", _REPORT_HEADER, _report_rows(reports, fn.CLASS_NAMES))
    _write_csv(out / "stepwise.csv", ("rank", "feature", "mean_auc"),
               ((i, name, auc) for i, (name, auc) in enumerate(zip(ranking.features, ranking.auc_trace), 1)))
    _write_manifest(out, "fakenews",
                    {**_stage_config(inputs, sample_name, specs), "experiments": experiments,
                     "max_stepwise": max_stepwise},
                    inputs.protocol.seed, [inputs.data])
    return dataset, steps


def cmd_synth(args) -> int:
    doc = _read_json(args.config) if args.config else {}
    if args.seed is not None:
        doc["seed"] = args.seed
    config = synth_mod.SynthConfig.from_json_dict(doc)
    out = Path(args.out)
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


def cmd_thresholds(args) -> int:
    if bool(args.data) == bool(args.fixtures):
        raise ConfigError("thresholds needs exactly one of --data and --fixtures")
    if args.fixtures:
        curves = {m: th.load_fixture_curve(Path(args.fixtures) / row.fixture)
                  for m, row in th.MEASURES.items()}
        selections = th.select_thresholds(curves)
        config, inputs = {"fixtures": args.fixtures}, [args.fixtures]
    else:  # --sample picks a corpus's entities; fixtures have none, so it is recorded only here
        corpus = corpus_mod.load_corpus(args.data)
        _, curves, selections = ew.threshold_entities(corpus, _load_sample(corpus, args.sample))
        config, inputs = {"fixtures": None, "sample": args.sample}, [str(args.data)]
    docs = _selection_docs(selections)
    out = _out_dir(args.out)
    _write_json(out / "thresholds.json", docs)
    for measure, curve in curves.items():
        # a fixture's non-finite ratio_de is written nan
        rows = zip(curve.grid.tolist(), curve.ratio_dd.tolist(), curve.ratio_de.tolist())
        _write_csv(out / f"curve_{measure}.csv", ("delta", "ratio_dd", "ratio_de"),
                   ((g, dd, de if math.isfinite(de) else math.nan) for g, dd, de in rows))
    if args.plots:
        _curve_svgs(out, curves)
    _write_manifest(out, "thresholds", config, None, inputs)
    print(json.dumps(docs["thresholds"], indent=2, sort_keys=True))
    return EXIT_OK


def cmd_features(args) -> int:
    corpus = corpus_mod.load_corpus(args.data)
    sample = _load_sample(corpus, args.sample)
    # first: it checks bin_hours before the entity features are computed
    lag = feat.temporal_lag_histogram(corpus, sample, bin_hours=args.bin_hours)
    table, _, _ = ew.threshold_entities(corpus, sample)
    out = _out_dir(args.out)
    _write_features(out / f"features_{sample.name.lower()}.csv", table)

    grid = [i / 100 for i in range(0, 200, 5)]
    attention = feat.attention_curve(corpus, sample, table, grid)
    _write_csv(out / f"attention_{sample.name.lower()}.csv", ("delta_p", "mean_likes", "mean_comments"),
               attention)
    for c_flag, d_flag, tag in ((True, True, "c_d"), (True, False, "c_ud"),
                                (False, True, "uc_d"), (False, False, "uc_ud")):
        hist = feat.response_distribution(table, c_flag, d_flag)
        _write_csv(out / f"response_hist_{tag}.csv", ("bin_lo", "bin_hi", "density"),
                   zip(hist.edges[:-1], hist.edges[1:], hist.density))
    _write_csv(out / f"temporal_lag_{sample.name.lower()}.csv", ("lag_lo_hours", "lag_hi_hours", "count"),
               zip(lag.edges_hours[:-1], lag.edges_hours[1:], lag.counts))
    _write_manifest(out, "features", {"data": str(args.data), "sample": args.sample,
                                      "bin_hours": args.bin_hours}, None, [str(args.data)])
    print(f"features: {len(table)} entities -> {out}")
    return EXIT_OK


def cmd_earlywarn(args) -> int:
    specs = _specs(args)
    _algorithm_names([s.algorithm for s in specs], "--algo", 2)
    result = _earlywarn_stage(Path(args.out), _inputs(args), args.sample, specs)
    print(f"earlywarn[{result.sample.name}]: best models {result.best}, "
          f"AUC {dict((a, round(r.auc, 3)) for a, r in result.benchmark.reports.items())}")
    return EXIT_OK


def cmd_fakenews(args) -> int:
    max_stepwise = _max_stepwise(args.max_stepwise)
    specs = _specs(args)
    _algorithm_names([s.algorithm for s in specs], "--algo", 1)
    _once_each(args.experiment or [], "--experiment")
    inputs = _inputs(args)
    # the embedded early-warning stage always benchmarks the full suite so it
    # can pick its two predictive models; --algo only scopes the post task
    ew_specs = [ModelSpec(algorithm=a, seed=args.seed) for a in ALGORITHMS]
    warning = ew.run_early_warning(inputs.corpus, _load_sample(inputs.corpus, args.sample),
                                   specs=ew_specs, protocol=inputs.protocol)
    experiments = args.experiment or list(_EXPERIMENTS)
    dataset, steps = _fakenews_stage(Path(args.out), inputs, args.sample, warning, specs,
                                     experiments, max_stepwise)
    rows = zip(dataset.row_ids, dataset.features.tolist(), dataset.labels)
    _write_csv(Path(args.out) / f"features_{args.sample.lower()}.csv",
               ("row_id", *dataset.feature_names, "label"),
               ([rid, *values, int(label)] for rid, values, label in rows))
    summary = {mode: {s.algorithm: [steps[step][s.algorithm].auc for step in fn.EXPERIMENT_STEPS[mode]]
                      for s in specs}
               for mode in map(str.upper, experiments)}
    print(f"fakenews[{args.sample}]: rows={dataset.n} cols={len(dataset.feature_names)} "
          f"experiments={json.dumps(summary)}")
    return EXIT_OK


def cmd_report(args) -> int:
    run_dir = Path(args.run)
    if not run_dir.is_dir():
        raise CorpusError(f"run directory not found or not a directory: {run_dir}")
    out_path = run_dir / "summary.json"
    stages = {}
    for manifest_path in sorted(run_dir.glob("**/manifest.json")):
        stage_dir = manifest_path.parent
        # not the summary this call rewrites, so that a rerun writes the same file
        entry = {"manifest": _read_json(manifest_path, CorpusError),
                 "outputs": sorted(p.name for p in stage_dir.iterdir() if p != out_path)}
        report_path = stage_dir / "report.json"
        if report_path.exists():
            entry["report"] = _read_json(report_path, CorpusError)
        stages[str(stage_dir.relative_to(run_dir))] = entry
    summary = {"run": str(run_dir), "stages": stages}
    _write_json(out_path, summary)
    print(f"report: {len(stages)} stage(s) -> {out_path}")
    return EXIT_OK


# pipeline config key -> (the Python types json.load gives its valid values, their JSON type in words)
_STRING, _OBJECT, _LIST, _INTEGER = (str, "a string"), (dict, "an object"), (list, "a list"), (int, "an integer")
_PIPELINE_KEYS = {"data": _STRING, "synth": _OBJECT, "seed": _INTEGER, "repeats": _INTEGER,
                  "train_fraction": ((int, float), "a number"), "algorithms": _LIST, "samples": _LIST,
                  "fakenews": _OBJECT}
_PIPELINE_FAKENEWS_KEYS = {"samples": _LIST, "experiments": _LIST, "algorithms": _LIST, "max_stepwise": _INTEGER}


def _checked(doc: dict, keys: dict, prefix: str = "") -> dict:
    """``doc`` once each of its keys is one of ``keys`` and holds a value of that key's type."""
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ConfigError(f"unknown pipeline config key(s): {', '.join(prefix + k for k in unknown)}")
    for key, value in doc.items():
        types, says = keys[key]
        if isinstance(value, bool) or not isinstance(value, types):  # a JSON true is not a number
            raise ConfigError(f"pipeline config key '{prefix}{key}' must be {says}, got {value!r}")
    return doc


def cmd_pipeline(args) -> int:
    cfg = _checked(_read_json(args.config), _PIPELINE_KEYS)
    fn_cfg = _checked(cfg.get("fakenews", {}), _PIPELINE_FAKENEWS_KEYS, "fakenews.")
    listed = [("samples", cfg.get("samples", []), _ENTITY_SAMPLES),
              ("fakenews.samples", fn_cfg.get("samples", []), _POST_SAMPLES),
              ("fakenews.experiments", fn_cfg.get("experiments", []), _EXPERIMENTS)]
    bad = [f"{key}={name!r}" for key, names, accepted in listed for name in names
           if str(name).lower() not in accepted]  # names are case-insensitive
    if bad:
        raise ConfigError(f"unknown name(s) in pipeline config: {', '.join(bad)}")
    for key, names, _ in listed:
        _once_each([name.lower() for name in names], f"pipeline config key '{key}'")
    algorithms = _algorithm_names(cfg.get("algorithms", list(ALGORITHMS)),
                                  "pipeline config key 'algorithms'", 2)
    fn_algorithms = _algorithm_names(fn_cfg.get("algorithms", algorithms),
                                     "pipeline config key 'fakenews.algorithms'", 1)
    seed = cfg.get("seed", 7)
    if "data" in cfg and "synth" in cfg:
        raise ConfigError("pipeline config takes one of the keys 'data' and 'synth', not both")
    if cfg.get("synth", {}).get("seed", seed) != seed:
        raise ConfigError(f"pipeline config key 'synth.seed' ({cfg['synth']['seed']!r}) "
                          f"must equal the key 'seed' ({seed})")
    protocol = Protocol(repeats=cfg.get("repeats", 10), train_fraction=cfg.get("train_fraction", 0.6),
                        seed=seed)
    specs = [ModelSpec(algorithm=a, seed=seed) for a in algorithms]
    fn_specs = [ModelSpec(algorithm=a, seed=seed) for a in fn_algorithms]
    max_stepwise = _max_stepwise(fn_cfg.get("max_stepwise", 16))

    if "data" in cfg:
        data_dir = Path(cfg["data"])
    else:  # generate checks the config before it makes the directory
        data_dir = Path(args.out) / "synth"
        synth_config = synth_mod.SynthConfig.from_json_dict({**cfg.get("synth", {}), "seed": seed})
        synth_mod.generate(synth_config, data_dir)
        _write_manifest(data_dir, "synth", synth_config.to_json_dict(), seed, [])
    corpus = corpus_mod.load_corpus(data_dir)
    out = _out_dir(args.out)
    inputs = _Inputs(corpus, str(data_dir), protocol, args.plots, {})

    _ingest_stage(out / "ingest", corpus, inputs.data)
    warnings: dict[str, ew.EarlyWarningResult] = {}
    for sample_name in cfg.get("samples", ["e1"]):
        warnings[sample_name.lower()] = _earlywarn_stage(
            out / f"earlywarn_{sample_name.lower()}", inputs, sample_name, specs
        )
    for post_sample_name in fn_cfg.get("samples", []):
        entity_sample_name = _POST_SAMPLES[post_sample_name.lower()]
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
    p.add_argument("--sample", choices=list(_ENTITY_SAMPLES), default="e1")
    p.add_argument("--bin-hours", type=float, default=1.0, dest="bin_hours")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("thresholds", help="select thresholds from data or fixtures")
    p.add_argument("--data")
    p.add_argument("--fixtures", help="directory with the measures' reference curve CSVs")
    p.add_argument("--sample", choices=list(_ENTITY_SAMPLES), default="e2")
    add_common(p)
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("earlywarn", help="benchmark classifiers, predict disputed entities")
    p.add_argument("--data", required=True)
    p.add_argument("--sample", choices=list(_ENTITY_SAMPLES), default="e1")
    add_common(p, with_models=True)
    p.set_defaults(func=cmd_earlywarn)

    p = sub.add_parser("fakenews", help="post-level classification experiments")
    p.add_argument("--data", required=True)
    p.add_argument("--sample", choices=list(_POST_SAMPLES), default="p1")
    p.add_argument("--experiment", action="append", choices=_EXPERIMENTS,
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
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG
    except (CorpusError, FileNotFoundError) as exc:
        log.error("data error: %s", exc)
        return EXIT_DATA
    except NumericError as exc:
        log.error("numeric failure: %s", exc)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
