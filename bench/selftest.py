"""Self-test of the benchmark: every workload body on a compact corpus.

Usage (from the repository root): python3 bench/selftest.py

Runs each workload traced for one second on the compact corpus of the
acceptance suite's criterion 8, with its head entities raised to 100+ posts
so that the E2 sample is not empty.  It asserts that every output check
passes and that both result lines (untraced and traced) carry every metric
BENCHMARK.json names, each with its unit.  Takes about a minute.
"""

from __future__ import annotations

import json
import sys

import run

COMPACT_SYNTH = {
    "n_entities": 60, "n_posts": 900, "n_users": 400, "n_comments": 6000,
    "head_entities": 6, "head_posts_min": 100, "head_posts_max": 110,
}
SEED = 5


def problems_of(record: dict, spec: dict) -> list[str]:
    problems = []
    for r in record["runs"]:
        if "error" in r:
            problems.append(f"run failed: {r['error'][:500]}")
            continue
        problems += [f"check {k} failed: {c['detail']}" for k, c in r["checks"].items() if not c["ok"]]
    if not record["reports_identical"]:
        problems.append("report files differ between runs")
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        line = run.result_line({**record, "trace": trace}, spec)
        if set(line) != {"correct", "attempted", "failed", "metrics"} or not line["correct"]:
            problems.append(f"{kind} result line not correct: {line}")
        for m in spec[kind]:
            got = line["metrics"].get(m["name"])
            if not (got and got["unit"] == m["unit"] and isinstance(got["value"], (int, float))):
                problems.append(f"{kind} metric {m['name']} missing or without unit: {got}")
    return problems


def main() -> int:
    if not run.use_sources():
        print("selftest: no polarwarn sources", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failed = False
    for name in WORKLOADS:
        record = run.run_workload(name, SEED, seconds=1, trace=True, synth_override=COMPACT_SYNTH)
        problems = problems_of(record, spec)
        failed |= bool(problems)
        print(f"selftest {name}: {'FAIL' if problems else 'ok'} "
              f"({record['attempted']} runs, fail_frac {record['fail_frac']['base']})")
        for p in problems:
            print(f"  {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
