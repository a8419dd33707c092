"""polarwarn benchmark: end-to-end and per-layer metrics of ``polarwarn pipeline``.

Usage (from the repository root):

    python3 bench/run.py --workload ew-default --seed 1 --seconds 5 --trace 0

Set-up generates the workload's synthetic corpus from the seed (several
times, to time it).  Then the pipeline runs closed-loop, one run at a time in
a fresh process, until ``--seconds`` have passed.  With ``--trace 1`` one
more run follows with spans around every layer.  Every run's outputs are
checked.  The last line of standard output is the result object; the line
before it is the full record (environment, every run, checks and, when
traced, every per-layer metric with its base and the self-time table).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 2
# A run must finish within 180 s; no pipeline run starts that is expected to end past this.
TIME_LIMIT_S = 165.0


def use_sources() -> bool:
    """Import polarwarn from this checkout's ``src``; False when it is absent."""
    if not (ROOT / "src" / "polarwarn" / "cli.py").is_file():
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


def blas_info() -> dict:
    """BLAS library numpy links and its thread count as OpenBLAS reports it."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def environment() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        # measured on a 2-vCPU Xeon VM with numpy 2.4.6 and OpenBLAS 0.3.31
        "blas_finding": (
            "ew-default, seed 1, 6 runs each: default OpenBLAS threads (2) 7.44-8.66 s, "
            "OPENBLAS_NUM_THREADS=1 7.39-8.79 s, cpu_s within 3% of run_s in both; "
            "pinning BLAS buys nothing here, so the benchmark keeps the default threading"
        ),
    }


def set_up(synth_config: dict, seed: int, data_dir: Path) -> tuple[list[float], dict]:
    """Generate the corpus SETUP_REPEATS times; return the times and its sizes."""
    from polarwarn import synth

    config = synth.SynthConfig.from_json_dict({**synth_config, "seed": seed})
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        truth = synth.generate(config, data_dir)
        times.append(time.perf_counter() - t0)
    sizes = {k: truth.totals[k] for k in ("posts", "comments", "mentions")}
    sizes["bytes"] = sum(p.stat().st_size for p in data_dir.glob("*.jsonl"))
    return times, sizes


def run_pipeline(config_path: Path, out_dir: Path, result_path: Path,
                 trace: bool, timeout: float) -> dict:
    """One pipeline run in a child process; returns its result or the failure."""
    cmd = [sys.executable, str(BENCH / "child.py"), str(config_path), str(out_dir), str(result_path)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not result_path.exists():
        return {"error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if result["exit_code"] != 0:
        result["error"] = f"polarwarn pipeline exited {result['exit_code']}: {proc.stderr[-2000:]}"
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 synth_override: dict | None = None) -> dict:
    """Set up, run and check one workload; returns the full record."""
    from polarwarn import synth
    from tracing import Span, layer_metrics, self_times
    from workloads import WORKLOADS, check_run, report_hashes

    started = time.perf_counter()
    workload = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        data_dir = work / "corpus"
        setup_times, corpus_sizes = set_up(
            workload.synth if synth_override is None else synth_override, seed, data_dir)
        truth = {e: t.disputed for e, t in synth.load_truth(data_dir / "truth.json").entities.items()}
        config_path = work / "run.json"
        config_path.write_text(json.dumps({**workload.pipeline, "seed": seed, "data": str(data_dir)}))

        runs: list[dict] = []

        def one_run(traced: bool) -> dict:
            index = len(runs)
            out = work / f"run{index}"
            result = run_pipeline(config_path, out, work / f"result{index}.json", traced,
                                  timeout=max(TIME_LIMIT_S + 10 - (time.perf_counter() - started), 1.0))
            result["traced"] = traced
            if "error" not in result:
                try:
                    result["checks"], result["values"] = check_run(out, workload, truth, result["widths"])
                    result["hashes"] = report_hashes(out)
                except (OSError, KeyError, ValueError, IndexError) as exc:
                    result["error"] = f"output check could not run: {type(exc).__name__}: {exc}"
            runs.append(result)
            return result

        measure_start = time.perf_counter()
        while True:
            last = one_run(traced=False)
            if "error" in last or time.perf_counter() - measure_start >= seconds:
                break
            expected_next = last["wall_s"] * (3 if trace else 1) + 2.0
            if time.perf_counter() - started + expected_next > TIME_LIMIT_S:
                break
        traced_run = one_run(traced=True) if trace and "error" not in last else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = next((r["hashes"] for r in runs if "hashes" in r), None)
    for r in runs:
        r["ok"] = ("error" not in r and all(c["ok"] for c in r["checks"].values())
                   and r["hashes"] == reference)
    failed = sum(not r["ok"] for r in runs)
    timed = [r for r in runs if "error" not in r and not r["traced"]]
    checked = [r for r in runs if "values" in r]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": {**environment(), "corpus": corpus_sizes},
        "attempted": len(runs),
        "failed": failed,
        "fail_frac": {"value": failed / len(runs), "base": f"{failed}/{len(runs)}"},
        "reports_identical": all(r.get("hashes") == reference for r in runs),
        "runs": [{k: v for k, v in r.items() if k != "spans"} for r in runs],
    }
    if timed and checked:
        record["end_to_end"] = {
            "run_s": {"value": statistics.median(r["wall_s"] for r in timed), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in timed), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in timed), "unit": "MB"},
            "ew_truth_auc": {"value": checked[0]["values"]["ew_truth_auc"], "unit": "auc"},
            "report_auc": {"value": checked[0]["values"]["report_auc"], "unit": "auc"},
        }
    if traced_run is not None and traced_run.get("spans") is not None and timed:
        spans = [Span(**s) for s in traced_run["spans"]]
        untraced = record["end_to_end"]["run_s"]["value"]
        layers = layer_metrics(spans)
        layers["synth.generate_s"] = {"value": statistics.median(setup_times), "unit": "s"}
        layers["synth.bytes"] = {"value": corpus_sizes["bytes"], "unit": "bytes"}
        layers["trace.overhead_s"] = {"value": traced_run["wall_s"] - untraced, "unit": "s"}
        record["per_layer"] = layers
        record["tracing_overhead"] = {
            "traced_run_s": traced_run["wall_s"],
            "untraced_run_s": untraced,
            "overhead_frac": (traced_run["wall_s"] - untraced) / untraced,
        }
        root = traced_run["wall_s"]
        record["self_s"] = {
            k: {"value": v, "share": v / root} for k, v in self_times(spans).items()
        }
    return record


def result_line(record: dict, spec: dict) -> dict:
    """The contract's result object: exactly the metrics BENCHMARK.json names."""
    kind = "per_layer" if record["trace"] else "end_to_end"
    measured = record.get(kind, {})
    missing = [m["name"] for m in spec[kind] if m["name"] not in measured]
    if missing:
        raise SystemExit(f"bench: no value for {', '.join(missing)}; see the record above")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]]["value"], "unit": m["unit"]}
                    for m in spec[kind]},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_sources():
        print(f"bench: no polarwarn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    line = result_line(record, spec)
    print(json.dumps(record))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
