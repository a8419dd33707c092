"""One ``polarwarn pipeline`` run in a fresh process, timed from inside.

Usage: python3 bench/child.py CONFIG OUT RESULT [--trace]

Runs ``polarwarn.cli.main(["pipeline", ...])`` in this process and writes a
JSON result: exit code, wall and CPU seconds of the call, the process's peak
resident memory, the feature widths of every dataset built, and with
``--trace`` the spans of the run.  A fresh process per run keeps each run's
peak memory apart from set-up and from earlier runs, as a user's own
``polarwarn pipeline`` process would be.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from polarwarn import cli  # noqa: E402

import tracing  # noqa: E402


def _record_width(widths: dict, name_of):
    """Wrap a dataset builder so each built dataset's width is recorded."""
    def make(fn):
        def build(*args, **kwargs):
            dataset = fn(*args, **kwargs)
            widths[name_of(args, kwargs).upper()] = len(dataset.feature_names)
            return dataset
        return build
    return make


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("out")
    parser.add_argument("result")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    widths: dict[str, int] = {}
    captures = tracing.rebound({
        ("polarwarn.earlywarning", "build_entity_dataset"):
            _record_width(widths, lambda a, k: k.get("sample_name", a[1] if len(a) > 1 else "")),
        ("polarwarn.fakenews", "build_post_dataset"):
            _record_width(widths, lambda a, k: k.get("post_sample", a[1] if len(a) > 1 else None).name),
    })
    tracer = tracing.Tracer() if args.trace else None
    entry = cli.main
    if tracer is not None:
        entry = tracer.wrap(cli.main, tracing.ROOT_SPAN)
    with captures, (tracer.installed() if tracer is not None else nullcontext()):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        code = entry(["pipeline", "--config", args.config, "--out", args.out])
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    result = {
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "widths": widths,
        "spans": [asdict(s) for s in tracer.spans] if tracer is not None else None,
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
