"""In-memory spans around the calls into each polarwarn layer.

The program is not instrumented.  Instead, ``Tracer.installed()`` replaces a
fixed set of public functions with timing wrappers at every module attribute
that holds them: ``from .models import fit`` copies ``fit`` into
``polarwarn.evaluation`` and ``polarwarn.earlywarning``, while
``polarwarn.corpus.load_corpus`` is looked up on its module at call time, so
rebinding every alias catches both kinds of call.  Spans stay in memory and
are turned into per-layer metrics after the run ends.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

ALGORITHMS = ("lin", "log", "svm", "knn", "nn", "dt")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    run_id: int
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@contextmanager
def rebound(targets):
    """Replace each ``(module, name)`` function by ``make(original)`` everywhere.

    ``targets`` maps ``(module_name, function_name)`` to a factory taking the
    original function.  Every attribute of a loaded ``polarwarn`` module that
    is the original object is swapped, and restored on exit.
    """
    swapped = []
    try:
        for (module_name, name), make in targets.items():
            original = getattr(sys.modules[module_name], name)
            wrapper = make(original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "polarwarn" or mod_name.startswith("polarwarn.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        swapped.append((mod, attr, original))
        yield
    finally:
        for mod, attr, original in reversed(swapped):
            setattr(mod, attr, original)


def _algo_of_spec(args, kwargs):
    spec = kwargs.get("spec", args[1] if len(args) > 1 else None)
    return spec.algorithm


def _algo_of_model(args, kwargs):
    model = kwargs.get("model", args[0])
    return model.spec.algorithm


def _cycle_key(args, kwargs):
    dataset, spec, protocol = args[:3]
    return json.dumps(
        [list(dataset.feature_names), dataset.n, spec.algorithm,
         spec.hyperparameters, spec.seed, repr(protocol)],
        sort_keys=True, default=str,
    )


def _fit_counts(args, kwargs, model):
    params = model.params
    if "n_iter" not in params:
        return {}
    return {"n_iter": int(params["n_iter"]), "converged": bool(params["converged"])}


# (module, function) -> (span name, counts taken from arguments and result)
SPANS = {
    ("polarwarn.corpus", "load_corpus"): (
        "corpus.load_s",
        lambda a, k, c: {"rows": len(c.sources) + len(c.posts) + len(c.comments) + len(c.mentions)},
    ),
    ("polarwarn.corpus", "select_e1"): ("corpus.select_s", None),
    ("polarwarn.corpus", "select_e2"): ("corpus.select_s", None),
    ("polarwarn.corpus", "disputed_entities"): ("corpus.select_s", None),
    ("polarwarn.corpus", "posts_for_entities"): ("corpus.select_s", None),
    ("polarwarn.features", "entity_features"): (
        "features.entity_features_s", lambda a, k, r: {"entities": len(r)},
    ),
    ("polarwarn.thresholds", "build_exceedance_curve"): ("thresholds.curves_s", None),
    ("polarwarn.thresholds", "select_thresholds"): ("thresholds.select_s", None),
    ("polarwarn.thresholds", "fit_polynomial"): ("thresholds.poly_fit_s", None),
    ("polarwarn.models.base", "fit"): (
        lambda a, k: f"models.fit_s.{_algo_of_spec(a, k)}", _fit_counts,
    ),
    ("polarwarn.models.base", "predict"): (
        lambda a, k: f"models.predict_s.{_algo_of_model(a, k)}", None,
    ),
    ("polarwarn.evaluation", "run_cycles"): (
        "evaluation.run_cycles_s", lambda a, k, r: {"key": _cycle_key(a, k)},
    ),
    ("polarwarn.evaluation", "rebalance"): ("evaluation.rebalance_s", None),
    ("polarwarn.evaluation", "split_train_test"): ("evaluation.split_s", None),
    ("polarwarn.evaluation", "roc_auc"): ("evaluation.auc_s", None),
    ("polarwarn.evaluation", "forward_stepwise"): ("evaluation.stepwise_s", None),
    ("polarwarn.earlywarning", "run_early_warning"): (
        lambda a, k: f"earlywarning.run_s.{k.get('sample', a[1] if len(a) > 1 else None).name.lower()}",
        None,
    ),
    ("polarwarn.earlywarning", "run_benchmark"): (
        "earlywarning.benchmark_s", lambda a, k, r: {"failures": len(r.failures)},
    ),
    ("polarwarn.fakenews", "build_post_dataset"): (
        "fakenews.build_post_dataset_s", lambda a, k, r: {"rows": r.n},
    ),
    ("polarwarn.fakenews", "run_experiment"): (
        lambda a, k: f"fakenews.experiment_s.{str(k.get('mode', a[1] if len(a) > 1 else '')).lower()}",
        None,
    ),
    ("polarwarn.fakenews", "final_report"): ("fakenews.final_report_s", None),
}

ROOT_SPAN = "cli.self_s"


class Tracer:
    """Span recorder; one instance per traced pipeline run."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, counter=None):
        def traced(*args, **kwargs):
            span = Span(
                name=name(args, kwargs) if callable(name) else name,
                start=time.perf_counter(),
                parent=self._stack[-1] if self._stack else None,
                run_id=self.run_id,
            )
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def installed(self):
        """Context manager binding every span in ``SPANS`` for its duration."""
        return rebound({
            target: (lambda fn, n=name, c=counter: self.wrap(fn, n, c))
            for target, (name, counter) in SPANS.items()
        })


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name not covered by that span's direct children."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    out: dict[str, float] = {}
    for span, covered in zip(spans, child_time):
        out[span.name] = out.get(span.name, 0.0) + span.duration - covered
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def _ancestor(spans: list[Span], index: int, prefix: str) -> Span | None:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name.startswith(prefix):
            return spans[parent]
        parent = spans[parent].parent
    return None


def layer_metrics(spans: list[Span]) -> dict[str, dict]:
    """Per-layer metrics ``{name: {"value", "unit", "base"?}}`` from one traced run.

    Times are inclusive span durations summed per name; ``self_times`` gives
    the exclusive view.  Every algorithm gets its fit/predict entries, zero
    when it did not run, so the set of names is the same on every workload.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span in spans:
        total[span.name] = total.get(span.name, 0.0) + span.duration
        calls[span.name] = calls.get(span.name, 0) + 1

    def seconds(name):
        return {"value": total.get(name, 0.0), "unit": "s"}

    def count(value, base=None):
        out = {"value": value, "unit": "count"}
        if base is not None:
            out["base"] = base
        return out

    def ratio(num, den):
        return {"value": num / den if den else 0.0, "unit": "ratio", "base": f"{num}/{den}"}

    def summed(prefix, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name.startswith(prefix))

    m: dict[str, dict] = {
        "corpus.load_s": seconds("corpus.load_s"),
        "corpus.rows": count(summed("corpus.load_s", "rows")),
        "corpus.select_s": seconds("corpus.select_s"),
        "features.entity_features_s": seconds("features.entity_features_s"),
        "features.entities": count(summed("features.entity_features_s", "entities")),
        "thresholds.curves_s": seconds("thresholds.curves_s"),
        "thresholds.select_s": seconds("thresholds.select_s"),
        "thresholds.poly_fits": count(calls.get("thresholds.poly_fit_s", 0)),
    }

    for kind in ("fit", "predict"):
        m[f"models.{kind}_s"] = {
            "value": sum(v for k, v in total.items() if k.startswith(f"models.{kind}_s.")), "unit": "s",
        }
    m["models.fits"] = count(sum(v for k, v in calls.items() if k.startswith("models.fit_s.")))
    for algo in ALGORITHMS:
        m[f"models.fit_s.{algo}"] = seconds(f"models.fit_s.{algo}")
        m[f"models.predict_s.{algo}"] = seconds(f"models.predict_s.{algo}")
        m[f"models.fits.{algo}"] = count(calls.get(f"models.fit_s.{algo}", 0))
    for algo in ("log", "nn"):
        fits = [s.counts for s in spans if s.name == f"models.fit_s.{algo}"]
        iters = [c["n_iter"] for c in fits]
        m[f"models.{algo}.iters_per_fit"] = count(
            statistics.fmean(iters) if iters else 0.0, base=f"{sum(iters)}/{len(iters)}"
        )
        m[f"models.{algo}.converged_frac"] = ratio(sum(c["converged"] for c in fits), len(fits))

    cycles = [s for s in spans if s.name == "evaluation.run_cycles_s"]
    distinct = len({s.counts["key"] for s in cycles})
    m["evaluation.run_cycles_calls"] = count(len(cycles))
    m["evaluation.run_cycles_distinct"] = count(distinct)
    m["evaluation.distinct_frac"] = ratio(distinct, len(cycles))
    for name in ("evaluation.rebalance_s", "evaluation.split_s", "evaluation.auc_s",
                 "evaluation.stepwise_s"):
        m[name] = seconds(name)
    m["evaluation.stepwise_candidates"] = count(sum(
        1 for i, s in enumerate(spans)
        if s.name == "evaluation.run_cycles_s" and _ancestor(spans, i, "evaluation.stepwise_s")
    ))

    # benchmark and refit spans belong to the sample of the enclosing run span
    samples = sorted(k.rsplit(".", 1)[1] for k in total if k.startswith("earlywarning.run_s."))
    per_sample = {k: {s: 0.0 for s in samples} for k in ("benchmark", "refit")}
    for i, span in enumerate(spans):
        if span.name == "earlywarning.benchmark_s" or span.name.startswith("models.fit_s."):
            run = _ancestor(spans, i, "earlywarning.run_s.")
            if run is None:
                continue
            sample = run.name.rsplit(".", 1)[1]
            if span.name == "earlywarning.benchmark_s":
                per_sample["benchmark"][sample] += span.duration
            elif spans[span.parent] is run:
                per_sample["refit"][sample] += span.duration
    for sample in samples:
        m[f"earlywarning.run_s.{sample}"] = seconds(f"earlywarning.run_s.{sample}")
        for kind in ("benchmark", "refit"):
            m[f"earlywarning.{kind}_s.{sample}"] = {"value": per_sample[kind][sample], "unit": "s"}
    m["earlywarning.run_s"] = {
        "value": sum(total[f"earlywarning.run_s.{s}"] for s in samples), "unit": "s",
    }
    for kind in ("benchmark", "refit"):
        m[f"earlywarning.{kind}_s"] = {"value": sum(per_sample[kind].values()), "unit": "s"}
    m["earlywarning.failures"] = count(summed("earlywarning.benchmark_s", "failures"))

    m["fakenews.build_post_dataset_s"] = seconds("fakenews.build_post_dataset_s")
    m["fakenews.post_rows"] = count(summed("fakenews.build_post_dataset_s", "rows"))
    for name in sorted(total):
        if name.startswith("fakenews.experiment_s."):
            m[name] = seconds(name)
    m["fakenews.final_report_s"] = seconds("fakenews.final_report_s")
    m[ROOT_SPAN] = {"value": self_times(spans).get(ROOT_SPAN, 0.0), "unit": "s"}
    return m
