"""Shared corpus builders and session-scoped synthetic fixtures."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from polarwarn import corpus as cm
from polarwarn import earlywarning as ew
from polarwarn import features as feat
from polarwarn import synth
from polarwarn import thresholds as th


def write_jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def write_corpus(directory: Path, sources, posts, comments, mentions) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    write_jsonl(directory / "sources.jsonl", sources)
    write_jsonl(directory / "posts.jsonl", posts)
    write_jsonl(directory / "comments.jsonl", comments)
    write_jsonl(directory / "mentions.jsonl", mentions)
    return directory


@dataclass
class Records:
    """A corpus as raw JSON records, for oracles that must not share the loader."""

    sources: dict[str, dict] = field(default_factory=dict)
    posts: dict[str, dict] = field(default_factory=dict)
    comments: list[dict] = field(default_factory=list)
    mentions: list[dict] = field(default_factory=list)
    comments_by_post: dict[str, list[dict]] = field(default_factory=dict)
    comments_by_user: dict[str, list[dict]] = field(default_factory=dict)
    entities_by_post: dict[str, dict[str, float]] = field(default_factory=dict)


def read_records(directory: Path) -> Records:
    """The four JSONL files, one json.loads per non-blank line, in file order.

    Mention entities are normalized; groupings keep file order.
    """
    def rows(name):
        with open(Path(directory) / f"{name}.jsonl", encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]

    rec = Records()
    rec.sources = {s["id"]: s for s in rows("sources")}
    rec.posts = {p["id"]: p for p in rows("posts")}
    rec.comments = rows("comments")
    rec.mentions = rows("mentions")
    for c in rec.comments:
        rec.comments_by_post.setdefault(c["post_id"], []).append(c)
        rec.comments_by_user.setdefault(c["user_id"], []).append(c)
    for m in rec.mentions:
        m["entity"] = cm.normalize_entity(m["entity"])
        rec.entities_by_post.setdefault(m["post_id"], {})[m["entity"]] = m["confidence"]
    return rec


PUNCTUATION = set(".,;:!?'\"()-")
TERMINATORS = set(".!?")


def oracle_counts(text: str) -> list[int]:
    """The textcounts.COUNT_NAMES counts of one text, one character at a time with str methods.

    Once the text is stripped: its characters; its words, maximal runs of
    ``isalnum`` characters, and their characters; its sentences, each
    opened by a word character with no word since the text began or since
    the last terminator; its ``isupper`` characters; and its punctuation signs.
    """
    text = text.strip()
    words = word_chars = sentences = 0
    in_word = in_sentence = False
    for ch in text:
        if ch.isalnum():
            words += not in_word
            sentences += not in_sentence
            word_chars += 1
            in_word = in_sentence = True
        else:
            in_word = False
            in_sentence = in_sentence and ch not in TERMINATORS
    return [len(text), words, word_chars, sentences,
            sum(ch.isupper() for ch in text), sum(ch in PUNCTUATION for ch in text)]


def post_ids(corpus, rows) -> list[str]:
    """The ids of the given post rows, in the given order."""
    return [corpus.posts.ids[r] for r in rows]


def members(sample) -> dict:
    """Each entity of the sample -> the rows of its member posts, in table order."""
    return {e: sample.rows[sample.entity == i] for i, e in enumerate(sample.entities)}


def entity_rows(table) -> list[dict]:
    """An entity table as one plain dict per entity: its name, each column with NaN as None, and ``missing``."""
    columns = [[None if v != v else v for v in column.tolist()] for column in table.columns.values()]
    missing = [("comment_sentiment",) if v != v else () for v in table.columns["comment_sent_mean"].tolist()]
    names = ("entity", *table.columns, "missing")
    return [dict(zip(names, values)) for values in zip(table.entities, *columns, missing)]


def tiny_warning(corpus, sample, predicted=None):
    """An E1-style early warning of ``sample`` without a benchmark.

    The presentation cut is 1.0, the two models are log and nn, and
    ``predicted`` maps an entity to their (log, nn) labels, (0, 0) when absent.
    """
    table = ew.with_indicators(feat.entity_features(corpus, sample), {th.MEASURE_PRESENTATION: 1.0})
    dataset = ew.build_entity_dataset(table, sample.name, False)
    labels = np.array([(predicted or {}).get(e, (0, 0)) for e in dataset.row_ids], np.int8).reshape(-1, 2).T
    return ew.EarlyWarningResult(sample, table, {}, {}, dataset, None, ("log", "nn"),
                                 (labels, labels.astype(float)))


def source(sid, category="official", name=None):
    return {"id": sid, "name": name or sid, "category": category}


def post(pid, source_id="s1", timestamp=0, text="hello world.", sentiment=0.0, likes=0, shares=0):
    return {"id": pid, "source_id": source_id, "timestamp": timestamp, "text": text,
            "sentiment": sentiment, "likes": likes, "shares": shares}


def comment(cid, post_id, user_id="u1", timestamp=10, text="ok", sentiment=None, likes=0, replies=0):
    return {"id": cid, "post_id": post_id, "user_id": user_id, "timestamp": timestamp,
            "text": text, "sentiment": sentiment, "likes": likes, "replies": replies}


def mention(entity, post_id, confidence=0.95):
    return {"entity": entity, "post_id": post_id, "confidence": confidence}


@pytest.fixture
def tiny_dir(tmp_path):
    """Two sources, three posts, four comments, three entities."""
    return write_corpus(
        tmp_path / "tiny",
        sources=[source("s1", "official"), source("s2", "fake")],
        posts=[
            post("p1", "s1", 0, "First post.", 0.4, likes=10, shares=2),
            post("p2", "s1", 100, "Second post!", -0.2, likes=4, shares=0),
            post("p3", "s2", 3600, "Third post?", -0.8, likes=1, shares=7),
        ],
        comments=[
            comment("c1", "p1", "u1", 5, "nice", 0.5, likes=1, replies=0),
            comment("c2", "p1", "u2", 6, "bad", -0.5, likes=0, replies=1),
            comment("c3", "p2", "u1", 101, "hm", 0.0, likes=2, replies=3),
            comment("c4", "p3", "u3", 3700, "no", None, likes=0, replies=0),
        ],
        mentions=[
            mention("alpha", "p1", 0.95),
            mention("alpha", "p3", 0.9),
            mention("beta", "p2", 0.7),
            mention("gamma", "p1", 0.3),
        ],
    )


@pytest.fixture
def tiny_corpus(tiny_dir):
    return cm.load_corpus(tiny_dir)


SMALL_SYNTH_CONFIG = synth.SynthConfig(
    n_entities=120,
    n_posts=2200,
    n_users=900,
    n_comments=16000,
    head_entities=10,
    head_posts_min=105,
    head_posts_max=120,
    seed=99,
)


@pytest.fixture(scope="session")
def small_synth(tmp_path_factory):
    """Small generated corpus shared by feature/threshold/benchmark tests."""
    directory = tmp_path_factory.mktemp("small_synth")
    truth = synth.generate(SMALL_SYNTH_CONFIG, directory)
    corpus = cm.load_corpus(directory)
    return corpus, truth, directory


ORACLE_SYNTH_CONFIG = synth.SynthConfig(
    n_entities=60,
    n_posts=900,
    n_users=400,
    n_comments=6000,
    head_entities=6,
    head_posts_min=40,
    head_posts_max=50,
    seed=31,
)


@pytest.fixture(scope="session")
def oracle_dir(tmp_path_factory):
    """A corpus under 1,000 posts, small enough for entity-by-entity oracles."""
    directory = tmp_path_factory.mktemp("oracle")
    synth.generate(ORACLE_SYNTH_CONFIG, directory)
    return directory


@pytest.fixture(scope="session", params=["file_order", "shuffled"])
def oracle_corpus(request, oracle_dir, tmp_path_factory):
    """The oracle corpus as written, and with the lines of every file shuffled."""
    if request.param == "file_order":
        return cm.load_corpus(oracle_dir)
    directory = tmp_path_factory.mktemp("oracle_shuffled")
    rng = random.Random(5)
    for name in ("sources", "posts", "comments", "mentions"):
        lines = (oracle_dir / f"{name}.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        rng.shuffle(lines)
        (directory / f"{name}.jsonl").write_text("".join(lines), encoding="utf-8")
    return cm.load_corpus(directory)
