"""Metamorphic relations: edits that keep a corpus's content change no output.

Each relation edits a copy of the golden ledger's compact corpus, runs the
ledger's compact pipeline on it, with ``data`` in place of ``synth``, and
compares every output file with that of the run on the unedited copy by
the ledger's digests, the manifests and ``summary.json`` aside (Chen, Cheung
& Yiu, "Metamorphic testing", HKUST-CS98-01, 1998).  The edits' ids sort
before every id of the corpus, so each edit also moves the rows of the
stored tables.
"""

import json
import shutil

import pytest

from conftest import mention, post, source
from ledger import COMPACT_RUN, COMPACT_SYNTH, differences, digests, run
from polarwarn import synth

YEAR = 365 * 24 * 3600


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    directory = tmp_path_factory.mktemp("metamorphic")
    config = synth.SynthConfig.from_json_dict({**COMPACT_SYNTH, "seed": COMPACT_RUN["seed"]})
    synth.generate(config, directory / "data")
    return directory


def _pipeline(root, name):
    """The compact run's output directory on the corpus ``root / name``."""
    config = {key: value for key, value in COMPACT_RUN.items() if key != "synth"}
    (root / f"{name}.json").write_text(json.dumps({**config, "data": str(root / name)}), encoding="utf-8")
    run(["pipeline", "--config", f"{name}.json", "--plots", "--out", f"{name}_out"], root)
    return root / f"{name}_out"


@pytest.fixture(scope="module")
def base(root):
    return digests(_pipeline(root, "data"))


def _edited(root, name, edit):
    """The compact run's output directory on a copy of the corpus that ``edit`` changed."""
    shutil.copytree(root / "data", root / name)
    edit(root / name)
    return _pipeline(root, name)


def _assert_unchanged(out, expected, actual):
    changed = differences(out, expected, actual)
    assert not changed, f"{len(changed)} file(s) changed:\n  " + "\n  ".join(changed)


def _append(path, row):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row) + "\n")


def test_r1_a_source_and_a_post_without_mentions_or_comments(root, base):
    def edit(data):
        _append(data / "sources.jsonl", source("src_-extra", "official"))
        _append(data / "posts.jsonl", post("post_-extra", "src_-extra", 1_500_000_000, "An extra post.", 0.3))

    out = _edited(root, "r1", edit)
    # the one legitimate change: one more official page and post
    breakdown = json.loads((root / "data_out" / "ingest" / "breakdown.json").read_text(encoding="utf-8"))
    breakdown["official"]["pages"] += 1
    breakdown["official"]["posts"] += 1
    assert json.loads((out / "ingest" / "breakdown.json").read_text(encoding="utf-8")) == breakdown
    actual = digests(out)
    _assert_unchanged(out, {**base, "ingest/breakdown.json": actual["ingest/breakdown.json"]}, actual)


def test_r2_a_mention_of_a_new_entity_below_the_e1_confidence(root, base):
    def edit(data):
        with open(data / "posts.jsonl", encoding="utf-8") as fh:
            first = json.loads(fh.readline())["id"]
        _append(data / "mentions.jsonl", mention("entity_-extra", first, 0.1))

    out = _edited(root, "r2", edit)
    _assert_unchanged(out, base, digests(out))


def test_r3_every_timestamp_shifted_by_one_year(root, base):
    def edit(data):
        for name in ("posts", "comments"):
            path = data / f"{name}.jsonl"
            rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
            path.write_text("".join(json.dumps({**row, "timestamp": row["timestamp"] + YEAR}, ensure_ascii=False)
                                    + "\n" for row in rows), encoding="utf-8")

    out = _edited(root, "r3", edit)
    _assert_unchanged(out, base, digests(out))
