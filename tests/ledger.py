"""The golden output ledger: the sha256 of every file that six pinned runs write.

``tests/golden/<run>.json`` holds one run's command, the config files it
reads, the environment it was recorded in (Python minor version, numpy
version, one BLAS thread) and, per output file, its sha256.  A CSV or JSON
file also keeps a short digest of each line, and a CSV one of each column,
so that a mismatch names the first differing row and column.  The
manifests and ``summary.json`` hold paths and are left out.

Each run is a ``polarwarn`` subprocess with ``OPENBLAS_NUM_THREADS=1``, in
a working directory that holds the config files and a copy of
``fixtures/``.  A run writes to the directory named after it, and a run
whose command names another run reads that run's output.

Rewrite the ledger after an intended output change with

    PYTHONPATH=src python tests/ledger.py
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import polarwarn
from polarwarn.models import ALGORITHMS
from test_acceptance import CRITERION_8_CONFIG

TESTS = Path(__file__).resolve().parent
LEDGER = TESTS / "golden"
REWRITE = "PYTHONPATH=src python tests/ledger.py"
UNHASHED = {"manifest.json", "summary.json"}

# bench/selftest.py's compact corpus; with seed 5 its E2 has 6 entities
COMPACT_SYNTH = {
    "n_entities": 60, "n_posts": 900, "n_users": 400, "n_comments": 6000,
    "head_entities": 6, "head_posts_min": 100, "head_posts_max": 110,
}
COMPACT_RUN = {
    "synth": COMPACT_SYNTH,
    "seed": 5,
    "repeats": 2,
    "algorithms": list(ALGORITHMS),
    "samples": ["e1", "e2"],
    "fakenews": {"samples": ["p1", "p2"], "experiments": ["a", "b"], "max_stepwise": 2},
}
CONFIGS = {"synth.json": COMPACT_SYNTH, "criterion_8.json": CRITERION_8_CONFIG, "compact.json": COMPACT_RUN}

# run name -> its polarwarn arguments before --out; fakenews_p2 and
# features_e2 alone write features_p2.csv and the E2 histograms
RUNS = {
    "synth_compact": ("synth", "--config", "synth.json", "--seed", "5"),
    "pipeline_criterion_8": ("pipeline", "--config", "criterion_8.json", "--plots"),
    "pipeline_compact": ("pipeline", "--config", "compact.json", "--plots"),
    "fakenews_p2": ("fakenews", "--data", "synth_compact", "--sample", "p2", "--experiment", "b",
                    "--algo", "log", "--max-stepwise", "1", "--repeats", "2"),
    "features_e2": ("features", "--data", "synth_compact", "--sample", "e2"),
    "thresholds_fixtures": ("thresholds", "--fixtures", "fixtures"),
}


def environment() -> dict:
    return {"python": "%d.%d" % sys.version_info[:2], "numpy": np.__version__, "OPENBLAS_NUM_THREADS": "1"}


def run(argv, cwd: Path) -> None:
    """``polarwarn *argv`` in ``cwd``, from the imported package's source, with one BLAS thread."""
    src = str(Path(polarwarn.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "polarwarn.cli", *map(str, argv)], cwd=cwd, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, f"polarwarn {' '.join(map(str, argv))} exited {proc.returncode}:\n{proc.stderr}"


def _short(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def digests(out: Path) -> dict[str, dict[str, str]]:
    """Each file under ``out`` but the manifests and summary.json -> its sha256, plus line and column digests."""
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name not in UNHASHED):
        data = path.read_bytes()
        entry = files[path.relative_to(out).as_posix()] = {"sha256": hashlib.sha256(data).hexdigest()}
        if path.suffix in (".csv", ".json"):
            lines = data.decode("utf-8").splitlines()
            entry["lines"] = " ".join(map(_short, lines))
            if path.suffix == ".csv":
                entry["columns"] = " ".join(_short("\n".join(c)) for c in zip(*csv.reader(lines)))
    return files


def _first(recorded: str, actual: str) -> int | None:
    """Index of the first differing entry of two digest lists, None if they are equal."""
    a, b = recorded.split(), actual.split()
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None if a == b else min(len(a), len(b)))


def _where(path: Path, recorded: dict, actual: dict) -> str:
    """Where ``path`` first differs from its recorded digests: line (row) and, in a CSV, column."""
    line = _first(recorded.get("lines", ""), actual.get("lines", ""))
    if line is None:
        return "differs"
    text = path.read_text(encoding="utf-8").splitlines()
    if path.suffix == ".json":
        return f"first differing line {line + 1}: {text[line].strip() if line < len(text) else '(end of file)'}"
    header = next(csv.reader(text))
    column = _first(recorded["columns"], actual["columns"])
    row = next(csv.reader(text[line:line + 1]), ["(end of file)"])
    named = header[column] if column is not None and column < len(header) else "none"
    return f"first differing row {line + 1} ({row[0]!r}), first differing column {named!r}"


def differences(out: Path, recorded: dict, actual: dict) -> list[str]:
    """One line per output file that is new, missing or changed against the ledger."""
    lines = []
    for name in sorted(recorded.keys() | actual.keys()):
        if name not in actual:
            lines.append(f"{name}: missing")
        elif name not in recorded:
            lines.append(f"{name}: not in the ledger")
        elif recorded[name]["sha256"] != actual[name]["sha256"]:
            lines.append(f"{name}: {_where(out / name, recorded[name], actual[name])}")
    return lines


def workdir(path: Path) -> Path:
    """``path`` with the config files and a copy of ``fixtures/`` written into it."""
    shutil.copytree(TESTS.parent / "fixtures", path / "fixtures")
    for name, doc in CONFIGS.items():
        (path / name).write_text(json.dumps(doc), encoding="utf-8")
    return path


def command(name: str) -> list[str]:
    return ["polarwarn", *RUNS[name], "--out", name]


def outputs(work: Path, name: str) -> Path:
    """The output directory of run ``name`` in ``work``; runs it, and the runs it reads first, if needed."""
    out = work / name
    if not out.exists():
        for other in RUNS:
            if other in RUNS[name]:
                outputs(work, other)
        run(command(name)[1:], work)
    return out


def entry(work: Path, name: str) -> dict:
    """Run ``name``'s ledger entry, as it is recorded and checked."""
    return {
        "command": command(name),
        "configs": {f: CONFIGS[f] for f in CONFIGS if f in RUNS[name]},
        "environment": environment(),
        "files": digests(outputs(work, name)),
    }


def main() -> None:
    LEDGER.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        work = workdir(Path(tmp))
        for name in RUNS:
            with open(LEDGER / f"{name}.json", "w", encoding="utf-8") as fh:
                json.dump(entry(work, name), fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"{LEDGER / name}.json")


if __name__ == "__main__":
    main()
