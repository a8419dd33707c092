"""Loader error parity: exact exception class, message and file:line per case.

Every case writes a small valid corpus, replaces one file by raw text and
checks the error ``load_corpus`` raises, character for character, and that
``polarwarn ingest`` maps it to the data-error exit code.  The messages are
the ones the per-record loader produced, so a faster loader must keep them.
Each case runs on the serial read and again on the split read, which cuts
every file into byte ranges parsed by forked workers; no test may leave a
worker running.
"""

import json
import multiprocessing
import os
import re
import struct
from contextlib import contextmanager, nullcontext
from operator import itemgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polarwarn import corpus as cm
from polarwarn.cli import EXIT_DATA, main

from conftest import comment, mention, oracle_counts, post, read_records, source, write_corpus


def dumps(row):
    return json.dumps(row, ensure_ascii=False)


@contextmanager
def split_read(cpus=2):
    """Cut every file, however small, into one byte range per CPU of ``cpus``."""
    with mock.patch.object(cm, "_SPLIT_BYTES", 0), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))):
        yield


@pytest.fixture(autouse=True)
def no_worker_left():
    yield
    assert multiprocessing.active_children() == []


BASE = {
    "sources.jsonl": [source("s1"), source("s2", "fake")],
    "posts.jsonl": [post("p1", "s1", 0, "First post."), post("p2", "s2", 60, "Second!", -0.5)],
    "comments.jsonl": [comment("c1", "p1", "u1", 5, "ok", 0.25, likes=2),
                       comment("c2", "p2", "u2", 70, "no", None, replies=1)],
    "mentions.jsonl": [mention("alpha", "p1"), mention("alpha", "p2", 0.7)],
}


def base_corpus(directory, **raw):
    """Write BASE, then overwrite each named file (dots as underscores) with raw text or bytes."""
    write_corpus(directory, *BASE.values())
    for name, text in raw.items():
        data = text if isinstance(text, bytes) else text.encode("utf-8")
        (directory / name.replace("_", ".")).write_bytes(data)
    return directory


def lines(*rows, end="\n"):
    return "".join((r if isinstance(r, str) else dumps(r)) + end for r in rows)


def json_error(text):
    """The message json.loads raises on ``text``; its wording varies across Python versions."""
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        return str(exc)
    raise AssertionError(f"{text[:20]!r}... parsed")


P1, P2 = BASE["posts.jsonl"]
C1, C2 = BASE["comments.jsonl"]
M1, M2 = BASE["mentions.jsonl"]

# name -> (file, raw text of that file, exception class, message after "<path>")
ERROR_CASES = {
    "truncated_line": (
        "posts.jsonl", lines(P1, '{"id": "p2", "source_id"'),
        cm.SchemaError, ":2: invalid JSON (Expecting ':' delimiter)"),
    "missing_field": (
        "posts.jsonl", lines(P1, {k: v for k, v in P2.items() if k != "likes"}),
        cm.SchemaError, ":2: missing field 'likes'"),
    "empty_id": (
        "comments.jsonl", lines({**C1, "id": ""}, C2),
        cm.SchemaError, ":1: field 'id' must be a non-empty string"),
    "null_user_id": (
        "comments.jsonl", lines(C1, {**C2, "user_id": None}),
        cm.SchemaError, ":2: field 'user_id' must be a non-empty string"),
    "true_for_count": (
        "posts.jsonl", lines(P1, {**P2, "likes": True}),
        cm.SchemaError, ":2: field 'likes' must be a non-negative integer"),
    "float_for_count": (
        "comments.jsonl", lines(C1, {**C2, "replies": 1.0}),
        cm.SchemaError, ":2: field 'replies' must be a non-negative integer"),
    "string_for_count": (
        "posts.jsonl", lines({**P1, "shares": "3"}, P2),
        cm.SchemaError, ":1: field 'shares' must be a non-negative integer"),
    "negative_count": (
        "comments.jsonl", lines({**C1, "likes": -1}, C2),
        cm.SchemaError, ":1: field 'likes' must be a non-negative integer"),
    "true_for_timestamp": (
        "posts.jsonl", lines({**P1, "timestamp": True}, P2),
        cm.SchemaError, ":1: field 'timestamp' must be integer UTC seconds"),
    "nan_post_sentiment": (
        "posts.jsonl", lines(P1, dumps(P2).replace('"sentiment": -0.5', '"sentiment": NaN')),
        cm.SchemaError, ":2: field 'sentiment' out of range [-1, 1]: nan"),
    "nan_comment_sentiment": (
        "comments.jsonl", lines(dumps(C1).replace('"sentiment": 0.25', '"sentiment": NaN'), C2),
        cm.SchemaError, ":1: field 'sentiment' out of range [-1, 1]: nan"),
    "infinity_count": (
        "posts.jsonl", lines(dumps(P1).replace('"likes": 0', '"likes": Infinity'), P2),
        cm.SchemaError, ":1: field 'likes' must be a non-negative integer"),
    "minus_infinity_timestamp": (
        "comments.jsonl", lines(C1, dumps(C2).replace('"timestamp": 70', '"timestamp": -Infinity')),
        cm.SchemaError, ":2: field 'timestamp' must be integer UTC seconds"),
    "nan_confidence": (
        "mentions.jsonl", lines(M1, dumps(M2).replace('"confidence": 0.7', '"confidence": NaN')),
        cm.SchemaError, ":2: confidence out of range [0, 1]: nan"),
    "string_sentiment": (
        "comments.jsonl", lines({**C1, "sentiment": "0.5"}, C2),
        cm.SchemaError, ":1: field 'sentiment' must be a number"),
    "sentiment_out_of_range": (
        "posts.jsonl", lines(P1, {**P2, "sentiment": 2}),
        cm.SchemaError, ":2: field 'sentiment' out of range [-1, 1]: 2.0"),
    "bool_confidence": (
        "mentions.jsonl", lines({**M1, "confidence": False}, M2),
        cm.SchemaError, ":1: field 'confidence' must be a number"),
    "bad_category": (
        "sources.jsonl", lines(source("s1"), source("s2", "satire")),
        cm.SchemaError, ":2: category must be 'official' or 'fake'"),
    "bom": (
        "sources.jsonl", "\ufeff" + lines(*BASE["sources.jsonl"]),
        cm.SchemaError, ":1: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
    "array_line": (
        "mentions.jsonl", lines(M1, "[1, 2]"),
        cm.SchemaError, ":2: expected an object"),
    "scalar_line": (
        "comments.jsonl", lines('"just text"', C2),
        cm.SchemaError, ":1: expected an object"),
    "two_objects_on_one_line": (
        "posts.jsonl", lines(dumps(P1) + ", " + dumps(P2)),
        cm.SchemaError, ":1: invalid JSON (Extra data)"),
    # Together these lines join to a valid array of one object per line;
    # each line alone is not one object.
    "objects_split_across_lines": (
        "posts.jsonl", lines(dumps(P1) + ', {"id": "px", "a": [{"x": 1}', '{"y": 2}]}'),
        cm.SchemaError, ":1: invalid JSON (Extra data)"),
    "string_across_lines": (
        "posts.jsonl", lines(dumps(P1)[:-1] + ', "note": "to be', 'continued"}', P2),
        cm.SchemaError, ":1: invalid JSON (Unterminated string starting at)"),
    "blank_lines_then_error": (
        "comments.jsonl", lines(C1, "", "   ", "\t", "{oops"),
        cm.SchemaError, ":5: invalid JSON (Expecting property name enclosed in double quotes)"),
    "crlf_then_error": (
        "posts.jsonl", lines(P1, P2, '{"id": 3}', end="\r\n"),
        cm.SchemaError, ":3: field 'id' must be a non-empty string"),
    "line_separator_in_string_then_error": (
        "comments.jsonl", lines({**C1, "text": "one\u2028two\u2029three\x85four"}, "{oops"),
        cm.SchemaError, ":2: invalid JSON (Expecting property name enclosed in double quotes)"),
    "integer_over_digit_limit": (
        "posts.jsonl", lines(P1, dumps(P2).replace('"timestamp": 60', '"timestamp": ' + "1" * 5000)),
        cm.SchemaError, f":2: invalid JSON ({json_error('1' * 5000)})"),
    "nesting_over_recursion_limit": (
        "comments.jsonl", lines(C1, "[" * 100_000),
        cm.SchemaError, f":2: invalid JSON ({json_error('[' * 100_000)})"),
    "not_utf8": (
        "posts.jsonl", lines(P1).encode() + dumps(P2).encode().replace(b"Second!", b"Second\xff!") + b"\n",
        cm.SchemaError, ":2: invalid UTF-8 (invalid start byte)"),
    "sentiment_integer_too_large_for_float": (
        "posts.jsonl", lines(P1, dumps(P2).replace('"sentiment": -0.5', '"sentiment": -' + "9" * 400)),
        cm.SchemaError, ":2: field 'sentiment' out of range [-1, 1]: -inf"),
    "confidence_integer_too_large_for_float": (
        "mentions.jsonl", lines(M1, dumps(M2).replace('"confidence": 0.7', '"confidence": ' + "9" * 400)),
        cm.SchemaError, ":2: confidence out of range [0, 1]: inf"),
    # the first bad record is reported before a fault on a later line of
    # its block
    "bad_record_then_invalid_json": (
        "posts.jsonl", lines({**P1, "likes": -1}, '{"id": "p2", "source_id"'),
        cm.SchemaError, ":1: field 'likes' must be a non-negative integer"),
    "missing_text_then_invalid_json": (
        "comments.jsonl", lines({k: v for k, v in C1.items() if k != "text"}, "{oops"),
        cm.SchemaError, ":1: missing field 'text'"),
    "duplicate_source_id": (
        "sources.jsonl", lines(source("s1"), source("s2", "fake"), source("s1", "fake")),
        cm.IntegrityError, ":3: duplicate source id 's1'"),
    "duplicate_comment_id": (
        "comments.jsonl", lines(C1, {**C2, "id": "c1"}),
        cm.IntegrityError, ":2: duplicate comment id 'c1'"),
    "duplicate_mention_pair": (
        "mentions.jsonl", lines(M1, {**M1, "entity": "  ALPHA ", "confidence": 0.2}),
        cm.IntegrityError, ":2: duplicate mention of 'alpha' in post 'p1'"),
}


def load_error(directory):
    with pytest.raises(cm.CorpusError) as err:
        cm.load_corpus(directory)
    return err


def assert_ingest_is_data_error(directory, tmp_path):
    assert main(["ingest", "--data", str(directory), "--out", str(tmp_path / "out")]) == EXIT_DATA


def check_error_case(cases, case, tmp_path):
    name, raw, kind, tail = cases[case]
    directory = base_corpus(tmp_path / "c", **{name.replace(".", "_"): raw})
    err = load_error(directory)
    assert type(err.value) is kind
    assert str(err.value) == f"{directory / name}{tail}"
    assert_ingest_is_data_error(directory, tmp_path)
    return directory / name


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_error_message_and_line(case, tmp_path):
    check_error_case(ERROR_CASES, case, tmp_path)


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_error_message_and_line_on_split_read(case, tmp_path):
    with split_read():
        check_error_case(ERROR_CASES, case, tmp_path)


# Eight comments of about equal length: cut in two, lines 5-8 fall to the worker.
SPLIT_ROWS = [comment(f"c{i}", "p1", f"u{i % 3}", i) for i in range(8)]
WORKER_LINES = range(5, 9)


def split_lines(*changed):
    """SPLIT_ROWS as raw lines, with each ``(line, text)`` of ``changed`` in place of that line."""
    rows = [dumps(r) for r in SPLIT_ROWS]
    for line, text in changed:
        rows[line - 1] = text
    return lines(*rows)


# name -> (faulty lines, raw comments file, exception class, message after "<path>")
SPLIT_CASES = {
    "bad_record_in_worker": (
        [8], split_lines((8, dumps({**SPLIT_ROWS[7], "likes": -1}))),
        cm.SchemaError, ":8: field 'likes' must be a non-negative integer"),
    "not_utf8_in_worker": (
        [7], split_lines().encode().replace(b'"c6"', b'"c\xff"'),
        cm.SchemaError, ":7: invalid UTF-8 (invalid start byte)"),
    "duplicate_in_worker": (
        [6, 8], split_lines((8, dumps({**SPLIT_ROWS[7], "id": "c5"}))),
        cm.IntegrityError, ":8: duplicate comment id 'c5'"),
    "duplicate_across_ranges": (
        [1, 8], split_lines((8, dumps({**SPLIT_ROWS[7], "id": "c0"}))),
        cm.IntegrityError, ":8: duplicate comment id 'c0'"),
    # valid JSON on one line, but a lone CR ends the line for a text-mode reader
    "lone_cr_inside_object": (
        [7], split_lines((7, dumps(SPLIT_ROWS[6]).replace('"c6", ', '"c6",\r'))),
        cm.SchemaError, ":7: invalid JSON (Expecting property name enclosed in double quotes)"),
}


def line_ranges(path):
    """For each line of the file, the index of the split read's byte range that holds it."""
    data = path.read_bytes()
    ranges = cm._ranges(path)
    starts = [0] + [i + 1 for i in range(len(data) - 1) if data[i] == ord("\n")]
    return [next(k for k, (a, b) in enumerate(ranges) if a <= at < b) for at in starts]


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_fault_in_a_worker_range(case, split, tmp_path):
    faulty = SPLIT_CASES[case][0]
    cases = {name: ("comments.jsonl", *rest) for name, (_, *rest) in SPLIT_CASES.items()}
    with split_read() if split else nullcontext():
        path = check_error_case(cases, case, tmp_path)
        with split_read():
            at = line_ranges(path)
    assert [at[i - 1] for i in WORKER_LINES] == [1] * len(WORKER_LINES)
    assert at[faulty[-1] - 1] == 1 and at[faulty[0] - 1] == (0 if case == "duplicate_across_ranges" else 1)


def test_duplicate_post_id_first_seen_in_an_earlier_block(tmp_path, monkeypatch):
    monkeypatch.setattr(cm, "_BLOCK_LINES", 4, raising=False)
    posts = [post(f"p{i}", "s1", i) for i in range(1, 12)] + [post("p2", "s2")]
    directory = base_corpus(tmp_path / "c", posts_jsonl=lines(*posts))
    err = load_error(directory)
    assert type(err.value) is cm.IntegrityError
    assert str(err.value) == f"{directory / 'posts.jsonl'}:12: duplicate post id 'p2'"
    assert_ingest_is_data_error(directory, tmp_path)


# A key first seen in an earlier block: the repeat is found from the hashes
# of the whole file, and parsing its records again names its line.
LATE_DUPLICATES = {
    "comment_id": ("comments.jsonl",
                   [comment(f"c{i}", "p1", f"u{i % 3}", i) for i in range(1, 12)] + [comment("c3", "p2")],
                   ":12: duplicate comment id 'c3'"),
    "mention_pair": ("mentions.jsonl",
                     [mention(f"topic {i}", "p1") for i in range(1, 10)]
                     + [mention("alpha", "p2"), mention("Topic  2", "p1", 0.3)],
                     ":11: duplicate mention of 'topic 2' in post 'p1'"),
}


@pytest.mark.parametrize("case", sorted(LATE_DUPLICATES))
def test_duplicate_key_first_seen_in_an_earlier_block(case, tmp_path, monkeypatch):
    monkeypatch.setattr(cm, "_BLOCK_LINES", 4, raising=False)
    name, rows, tail = LATE_DUPLICATES[case]
    directory = base_corpus(tmp_path / "c", **{name.replace(".", "_"): lines(*rows)})
    err = load_error(directory)
    assert type(err.value) is cm.IntegrityError
    assert str(err.value) == f"{directory / name}{tail}"
    assert_ingest_is_data_error(directory, tmp_path)


# Which of several faults is reported: the first bad record in file order,
# and within one record the first failing check in its builder's order, the
# duplicate check included.  Read in blocks of four lines.
FAULT_ORDER = {
    "duplicate_before_a_bad_value_in_a_later_block": (
        "comments.jsonl",
        lines(C1, {**C2, "id": "c1"}, *(comment(f"c{i}", "p1", "u1", i) for i in range(3, 7)),
              comment("c7", "p2", "u2", 7, likes=-1)),
        cm.IntegrityError, ":2: duplicate comment id 'c1'"),
    "bad_category_and_duplicate_id": (
        "sources.jsonl", lines(source("s1"), source("s2", "fake"), source("s1", "satire")),
        cm.SchemaError, ":3: category must be 'official' or 'fake'"),
    "duplicate_id_and_empty_name": (
        "sources.jsonl", lines(source("s1"), source("s2", "fake"), {**source("s1"), "name": ""}),
        cm.IntegrityError, ":3: duplicate source id 's1'"),
    "missing_sentiment_and_null_post_id": (
        "comments.jsonl", lines(C1, {**{k: v for k, v in C2.items() if k != "sentiment"}, "post_id": None}),
        cm.SchemaError, ":2: missing field 'sentiment'"),
    "nested_extra_key_then_bad_value": (
        "posts.jsonl",
        lines(*({**row, "extra": {"k": [1]}}
                for row in [P1, P2, post("p3"), post("p4"), post("p5"), post("p6", shares=-1)])),
        cm.SchemaError, ":6: field 'shares' must be a non-negative integer"),
    "non_string_text_then_bad_record": (
        "comments.jsonl", lines({**C1, "text": 123}, {**C2, "text": ["x"]}, {**C2, "id": "c3", "replies": 1.5}),
        cm.SchemaError, ":3: field 'replies' must be a non-negative integer"),
    "blank_line_then_bad_last_line_without_line_break": (
        "sources.jsonl", "\n" + dumps({**source("s1"), "id": True}),
        cm.SchemaError, ":2: field 'id' must be a non-empty string"),
    "objects_split_across_lines_with_nested_text": (
        "posts.jsonl", lines(dumps(P1) + ', {"id": "px", "text": [{"x": 1}', '{"y": 2}]}'),
        cm.SchemaError, ":1: invalid JSON (Extra data)"),
}


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("case", sorted(FAULT_ORDER))
def test_fault_order(case, split, tmp_path, monkeypatch):
    monkeypatch.setattr(cm, "_BLOCK_LINES", 4)
    with split_read() if split else nullcontext():
        check_error_case(FAULT_ORDER, case, tmp_path)


def test_duplicate_mention_of_a_dangling_post_is_a_duplicate(tmp_path):
    # the duplicate is raised once the file is read, before the dangling list is made
    directory = base_corpus(tmp_path / "c", mentions_jsonl=lines(
        M1, mention("beta", "ghost"), M2, mention(" Beta", "ghost", 0.5)))
    err = load_error(directory)
    assert type(err.value) is cm.IntegrityError
    assert str(err.value) == f"{directory / 'mentions.jsonl'}:4: duplicate mention of 'beta' in post 'ghost'"


@contextmanager
def parsed_lines():
    """The number of lines json.loads parses in this process, one entry per call.

    A block's lines joined as an array are one call, with a line break
    after each line but the last; any other call parses one line.
    """
    counts, loads = [], json.loads

    def counting(text, *args, **kwargs):
        counts.append(text.count("\n") + 1)
        return loads(text, *args, **kwargs)

    with mock.patch.object(json, "loads", counting):
        yield counts


def record_lines(directory, in_first_range=False):
    """The non-blank lines of the four files, as a text-mode reader splits them.

    With ``in_first_range``, only those that start in each file's first
    byte range.
    """
    total = 0
    for name in FILES:
        path = directory / f"{name}.jsonl"
        data = path.read_bytes()
        end = cm._ranges(path)[0][1] if in_first_range else len(data)
        total += sum(1 for line in re.finditer(rb"[^\r\n]*(\r\n|\r|\n|$)", data)
                     if line.start() < end and line.group().strip())
    return total


def first_and_last_keys(directory):
    """The keys of the first and the last record of each file."""
    records = read_records(directory)
    keys = [list(records.sources), list(records.posts), [c["id"] for c in records.comments],
            [(m["entity"], m["post_id"]) for m in records.mentions]]
    return {k for file_keys in keys for k in (file_keys[0], file_keys[-1])}


def check_collision_fallback(small_synth, split=False):
    # When the first and the last key of each file hash alike, only those
    # two records are parsed again, to compare their keys; when every key
    # hashes alike, every record is.  The exact comparison finds no
    # duplicate.  The split read's workers parse the later ranges, and
    # this process parses again what it compares.
    corpus, _, directory = small_synth
    colliding = first_and_last_keys(directory)
    with split_read(2 if split else 1):
        read_here = record_lines(directory, in_first_range=split)
        for hashes, again in [(lambda keys: np.array([0 if k in colliding else hash(k) for k in keys], np.int64),
                               2 * len(FILES)),
                              (lambda keys: np.zeros(len(keys), np.int64), record_lines(directory))]:
            with mock.patch.object(cm, "_hashes", hashes), parsed_lines() as counts:
                loaded = cm.load_corpus(directory)
            assert sum(counts) == read_here + again
            assert_same_corpus(loaded, corpus)


def test_colliding_key_hashes_fall_back_to_an_equal_record_read(small_synth):
    check_collision_fallback(small_synth)


def test_colliding_key_hashes_on_the_split_read(small_synth):
    check_collision_fallback(small_synth, split=True)


def test_error_in_a_later_block_keeps_its_line(tmp_path, monkeypatch):
    monkeypatch.setattr(cm, "_BLOCK_LINES", 3, raising=False)
    comments = [comment(f"c{i}", "p1", f"u{i % 4}", i) for i in range(10)]
    raw = lines(*comments[:7], "", {**comments[7], "likes": -2}, *comments[8:])
    directory = base_corpus(tmp_path / "c", comments_jsonl=raw)
    err = load_error(directory)
    assert str(err.value) == (
        f"{directory / 'comments.jsonl'}:9: field 'likes' must be a non-negative integer"
    )


def test_dangling_references_sorted_in_one_message(tmp_path):
    directory = base_corpus(
        tmp_path / "c",
        posts_jsonl=lines(P1, P2, post("p3", "gone"), post("p0", "lost")),
        comments_jsonl=lines(C1, comment("c9", "ghost"), comment("c0", "p3"),
                             comment("c5", "vanished")),
        mentions_jsonl=lines(M1, mention("Beta", "nowhere"), mention("alpha", "ghost")),
    )
    err = load_error(directory)
    assert type(err.value) is cm.IntegrityError
    assert str(err.value) == (
        "dangling references: "
        "comment 'c5' -> post 'vanished'; comment 'c9' -> post 'ghost'; "
        "mention 'alpha' -> post 'ghost'; mention 'beta' -> post 'nowhere'; "
        "post 'p0' -> source 'lost'; post 'p3' -> source 'gone'"
    )
    assert_ingest_is_data_error(directory, tmp_path)


def test_first_failing_file_wins(tmp_path):
    # sources, posts, comments, mentions are checked in that order
    directory = base_corpus(
        tmp_path / "c",
        posts_jsonl=lines(P1, {**P2, "shares": -1}),
        sources_jsonl=lines(source("s1"), source("s1")),
    )
    err = load_error(directory)
    assert str(err.value) == f"{directory / 'sources.jsonl'}:2: duplicate source id 's1'"


def test_missing_file_named(tmp_path):
    directory = base_corpus(tmp_path / "c")
    (directory / "mentions.jsonl").unlink()
    err = load_error(directory)
    assert type(err.value) is cm.CorpusError
    assert str(err.value) == f"missing corpus file: {directory / 'mentions.jsonl'}"
    assert_ingest_is_data_error(directory, tmp_path)


def assert_same_corpus(loaded, corpus):
    assert snapshot(loaded) == snapshot(corpus)
    assert loaded.users == corpus.users and loaded.entities == corpus.entities
    assert np.array_equal(loaded.comment_offsets, corpus.comment_offsets)
    assert np.array_equal(loaded.user_comment_counts, corpus.user_comment_counts)


def snapshot(corpus):
    """Every loaded value, as plain lists in stored order.

    A post's row holds its own text counts, and "comment_texts" the sums of
    each post's comments' counts, by post.
    """
    p, c, m = corpus.posts, corpus.comments, corpus.mentions
    return {
        "sources": corpus.sources.fake.tolist(),
        "posts": list(zip(p.ids, p.source.tolist(), p.timestamp.tolist(), p.text_counts.tolist(),
                          p.sentiment.tolist(), p.likes.tolist(), p.shares.tolist())),
        "comments": list(zip([p.ids[i] for i in c.post.tolist()],
                             [corpus.users[u] for u in c.user.tolist()],
                             [None if s != s else s for s in c.sentiment.tolist()],
                             c.likes.tolist(), c.replies.tolist())),
        "comment_texts": corpus.comment_text_counts.tolist(),
        "mentions": list(zip([corpus.entities[e] for e in m.entity.tolist()],
                             [p.ids[i] for i in m.post.tolist()], m.confidence.tolist())),
    }


def test_blank_whitespace_and_crlf_lines_load_like_plain_lines(tmp_path):
    plain = cm.load_corpus(base_corpus(tmp_path / "plain"))
    raw = {name.replace(".", "_"): " \r\n" + lines(*rows, "\t ", end="\r\n") + "\n"
           for name, rows in BASE.items()}
    assert snapshot(cm.load_corpus(base_corpus(tmp_path / "crlf", **raw))) == snapshot(plain)


CRLF = {name.replace(".", "_"): " \r\n" + lines(*rows, "\t ", end="\r\n") + "\n"
        for name, rows in BASE.items()}


@pytest.mark.parametrize("layout", [
    CRLF,
    # a lone CR ends a line for a text-mode reader, so these are two records
    {"comments_jsonl": dumps(C1) + "\r" + dumps(C2) + "\n"},
    {"posts_jsonl": dumps(P1) + "\r\r\n" + dumps(P2) + "\r"},
], ids=["crlf", "lone_cr_between_objects", "cr_runs_and_final_cr"])
def test_line_endings_load_like_plain_lines_on_the_split_read(layout, tmp_path):
    plain = snapshot(cm.load_corpus(base_corpus(tmp_path / "plain")))
    directory = base_corpus(tmp_path / "c", **layout)
    assert snapshot(cm.load_corpus(directory)) == plain
    with split_read():
        assert snapshot(cm.load_corpus(directory)) == plain


# (the lines of posts.jsonl, the ranges of a cut in two as (first line, last line) of each)
LAST_LINE_SPLITS = {
    "worker_reads_the_last_line": (
        [post("p1", "s1", 0, "a" * 80), post("p2", "s2", 60, "b" * 80), post("p3")], [(1, 2), (3, 3)]),
    "no_newline_after_the_last_line": (
        [post("p1", "s1", 0, "a" * 80), post("p2", "s2", 60, "b" * 80), post("p3")], [(1, 2), (3, 3)]),
    "cut_inside_the_last_line": (
        [post("p1"), post("p2", "s2", 60, "b" * 200)], [(1, 2)]),
}


@pytest.mark.parametrize("case", sorted(LAST_LINE_SPLITS))
def test_split_point_at_the_last_line(case, tmp_path):
    rows, spans = LAST_LINE_SPLITS[case]
    raw = lines(*rows)
    if case == "no_newline_after_the_last_line":
        raw = raw[:-1]
    directory = base_corpus(tmp_path / "c", posts_jsonl=raw)
    serial = cm.load_corpus(directory)
    with split_read():
        at = line_ranges(directory / "posts.jsonl")
        loaded = cm.load_corpus(directory)
    assert [(at.index(k) + 1, len(at) - at[::-1].index(k)) for k in sorted(set(at))] == spans
    assert_same_corpus(loaded, serial)
    assert [p[0] for p in snapshot(loaded)["posts"]] == [r["id"] for r in rows]


def test_line_separators_inside_strings_are_not_line_breaks(tmp_path):
    text = "one\u2028two\x85three\u2029four"
    directory = base_corpus(tmp_path / "c", comments_jsonl=lines({**C1, "text": text}, C2))
    assert snapshot(cm.load_corpus(directory))["comment_texts"][0] == oracle_counts(text)


def test_non_string_text_is_coerced_with_str(tmp_path):
    directory = base_corpus(
        tmp_path / "c",
        posts_jsonl=lines({**P1, "text": 123}, {**P2, "text": [1, "a"]}),
        comments_jsonl=lines({**C1, "text": None}, {**C2, "text": {"k": 1.5}}),
    )
    got = snapshot(cm.load_corpus(directory))
    assert [p[3] for p in got["posts"]] == [oracle_counts("123"), oracle_counts("[1, 'a']")]
    assert got["comment_texts"] == [oracle_counts("None"), oracle_counts("{'k': 1.5}")]


def test_extra_fields_are_ignored(tmp_path):
    plain = cm.load_corpus(base_corpus(tmp_path / "plain"))
    extra = {"note": {"nested": [1, {"x": None}]}, "flag": True}
    raw = {name.replace(".", "_"): lines(*({**row, **extra} for row in rows))
           for name, rows in BASE.items()}
    assert snapshot(cm.load_corpus(base_corpus(tmp_path / "extra", **raw))) == snapshot(plain)


# The one deliberate change from the per-record loader, which accepted any
# integer: counts and timestamps are stored as int64, so a value outside that
# range is a SchemaError naming file, line and field.
@pytest.mark.parametrize("name, raw, tail", [
    ("posts.jsonl", lines(P1, {**P2, "likes": 2**63}),
     ":2: field 'likes' is outside the 64-bit integer range"),
    ("comments.jsonl", lines({**C1, "timestamp": -2**63 - 1}, C2),
     ":1: field 'timestamp' is outside the 64-bit integer range"),
    ("comments.jsonl", lines(C1, {**C2, "replies": 10**30}),
     ":2: field 'replies' is outside the 64-bit integer range"),
])
def test_integer_outside_int64_is_schema_error(name, raw, tail, tmp_path):
    directory = base_corpus(tmp_path / "c", **{name.replace(".", "_"): raw})
    err = load_error(directory)
    assert type(err.value) is cm.SchemaError
    assert str(err.value) == f"{directory / name}{tail}"
    assert_ingest_is_data_error(directory, tmp_path)


def test_int64_extremes_load(tmp_path):
    directory = base_corpus(
        tmp_path / "c",
        posts_jsonl=lines({**P1, "likes": 2**63 - 1, "timestamp": -2**63}, P2),
    )
    posts = snapshot(cm.load_corpus(directory))["posts"]
    assert posts[0][2] == -2**63 and posts[0][5] == 2**63 - 1


# Random valid corpora, written with the layout variations the loader must
# accept, against a reference that parses each line with json.loads.
labels = st.text(st.sampled_from("aB \tÉß x"), min_size=1, max_size=6).filter(str.strip)
texts = st.one_of(st.text(max_size=12), st.integers(-5, 5), st.none())
counts = st.integers(0, 2**63 - 1)
unit = st.one_of(st.floats(-1, 1), st.integers(-1, 1))


@st.composite
def corpora(draw):
    n_sources = draw(st.integers(1, 3))
    sources = [source(f"s{i}", draw(st.sampled_from(["official", "fake"])))
               for i in range(n_sources)]
    posts = draw(st.permutations([
        post(f"p{i}", f"s{draw(st.integers(0, n_sources - 1))}",
             draw(st.integers(-2**63, 2**63 - 1)), draw(texts), draw(unit),
             draw(counts), draw(counts)) for i in range(draw(st.integers(1, 8)))
    ]))
    comments = [comment(f"c{i}", f"p{draw(st.integers(0, len(posts) - 1))}",
                        draw(st.sampled_from(["u2", "u10", "u1", "é"])), draw(st.integers(0, 99)),
                        draw(texts), draw(st.one_of(st.none(), unit)), draw(counts), draw(counts))
                for i in range(draw(st.integers(0, 20)))]
    mentions, seen = [], set()
    for label in draw(st.lists(labels, max_size=10)):
        pid = f"p{draw(st.integers(0, len(posts) - 1))}"
        if (cm.normalize_entity(label), pid) not in seen:
            seen.add((cm.normalize_entity(label), pid))
            mentions.append(mention(label, pid, draw(st.one_of(st.floats(0, 1), st.just(1)))))
    return {"sources.jsonl": sources, "posts.jsonl": posts,
            "comments.jsonl": comments, "mentions.jsonl": mentions}


def comment_row(c):
    """A raw comment record as ``snapshot`` lists it."""
    return (c["post_id"], c["user_id"], None if c["sentiment"] is None else float(c["sentiment"]),
            c["likes"], c["replies"])


def summed_counts(comments):
    """The sums of the comments' text counts, each text converted with ``str``."""
    total = [0] * 6
    for c in comments:
        total = [a + b for a, b in zip(total, oracle_counts(str(c["text"])))]
    return total


def reference(records):
    """The expected snapshot, from raw records, in stored order.

    Posts by id; comments by post id, each post's in file order (a stable
    sort); mentions by (normalized entity, post id).  Texts are counted one
    at a time by the str-method oracle.
    """
    source_row = {sid: i for i, sid in enumerate(records.sources)}
    return {
        "sources": [s["category"] == "fake" for s in records.sources.values()],
        "posts": [(p["id"], source_row[p["source_id"]], p["timestamp"], oracle_counts(str(p["text"])),
                   float(p["sentiment"]), p["likes"], p["shares"])
                  for p in map(records.posts.__getitem__, sorted(records.posts))],
        "comments": [comment_row(c) for c in sorted(records.comments, key=itemgetter("post_id"))],
        "comment_texts": [summed_counts(records.comments_by_post.get(pid, [])) for pid in sorted(records.posts)],
        "mentions": [(m["entity"], m["post_id"], float(m["confidence"]))
                     for m in sorted(records.mentions, key=itemgetter("entity", "post_id"))],
    }


# CPUs of a forced split read, or None for the read as is
CPUS = st.sampled_from([None, 2, 3])


@given(corpora(), st.integers(1, 5), st.sampled_from(["\n", "\r\n"]), st.booleans(),
       st.sampled_from([{}, {"x": 1}, {"x": {"y": [1, None]}}]), CPUS)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_corpora_load_like_the_reference(tmp_path, corpus, block, end, blanks, extra, cpus):
    directory = tmp_path / "h"
    raw = {name.replace(".", "_"): ("\n  \n" if blanks else "")
           + lines(*({**row, **extra} for row in rows), end=end) for name, rows in corpus.items()}
    base_corpus(directory, **raw)
    with mock.patch.object(cm, "_BLOCK_LINES", block), split_read(cpus) if cpus else nullcontext():
        loaded = cm.load_corpus(directory)
    records = read_records(directory)
    got = snapshot(loaded)
    assert got == reference(records)
    assert loaded.users == sorted(records.comments_by_user)
    assert loaded.entities == sorted({m["entity"] for m in records.mentions})
    for i, pid in enumerate(sorted(records.posts)):
        rows, _ = cm.group_positions(loaded.comment_offsets, np.array([i]))
        assert [got["comments"][r] for r in rows.tolist()] == [
            comment_row(c) for c in records.comments_by_post.get(pid, [])
        ]
    assert loaded.user_comment_counts.tolist() == [
        len(records.comments_by_user[uid]) for uid in loaded.users
    ]


def layouts(directory, tmp_path):
    """Copies of a corpus in valid layouts, each file's lines changed alike, by name.

    Extra keys, also nested ones, are ignored, and a lone carriage return
    ends a line as a line feed does, so each loads like the corpus itself.
    """
    changes = {
        "plain": lambda text: text,
        "nested_extra_key": lambda text: text.replace("}\n", ', "extra": {"k": [1, {"x": null}]}}\n'),
        "extra_list_key": lambda text: text.replace("}\n", ', "extra": [1, [2]]}\n'),
        "crlf": lambda text: text.replace("\n", "\r\n"),
        "lone_cr": lambda text: text.replace("\n", "\r"),
    }
    for name, change in changes.items():
        copy = tmp_path / name
        copy.mkdir()
        for file in FILES:
            (copy / f"{file}.jsonl").write_bytes(
                change((directory / f"{file}.jsonl").read_text(encoding="utf-8")).encode("utf-8"))
        yield name, copy


FORK = multiprocessing.get_context("fork")
FILES = ("sources", "posts", "comments", "mentions")


def test_well_formed_files_skip_the_record_validator(small_synth, tmp_path):
    # no line of a valid corpus is parsed twice, whatever its layout
    corpus, _, directory = small_synth
    for name, copy in layouts(directory, tmp_path):
        with split_read(1), parsed_lines() as counts:
            loaded = cm.load_corpus(copy)
        assert sum(counts) == record_lines(directory), name
        assert_same_corpus(loaded, corpus)


def test_non_string_texts_are_parsed_once(tmp_path):
    # Each text loads as its str().  Lists keep a block on the one
    # json.loads over its joined lines; a nested object sends it to the
    # parse one line at a time.  Either way each line is parsed once.
    def with_texts(directory, texts, convert):
        return base_corpus(directory, **{
            "posts_jsonl": lines(P1, P2, *({**P1, "id": f"t{i}", "text": convert(t)} for i, t in enumerate(texts))),
            "comments_jsonl": lines(C1, C2, *({**C1, "id": f"d{i}", "text": convert(t)} for i, t in enumerate(texts))),
        })

    for name, texts in {"lists": [123, None, 1.5, [1, "a"]], "objects": [123, {"k": [1]}]}.items():
        directory = with_texts(tmp_path / name, texts, lambda t: t)
        with parsed_lines() as counts:
            loaded = cm.load_corpus(directory)
        assert sum(counts) == record_lines(directory)
        assert snapshot(loaded) == snapshot(cm.load_corpus(with_texts(tmp_path / f"{name}_str", texts, str)))


def test_split_read_of_well_formed_files_skips_the_record_validator(small_synth, monkeypatch, tmp_path):
    # four CPUs and blocks of three lines: up to three workers per file,
    # each sending several blocks; this process parses only its own ranges
    monkeypatch.setattr(cm, "_BLOCK_LINES", 3)
    corpus, _, directory = small_synth
    for name, copy in layouts(directory, tmp_path):
        with split_read(4), parsed_lines() as counts, \
                mock.patch.object(FORK, "Process", wraps=FORK.Process) as started:
            loaded = cm.load_corpus(copy)
            workers = sum(len(cm._ranges(copy / f"{file}.jsonl")) - 1 for file in FILES)
            assert sum(counts) == record_lines(copy, in_first_range=True), name
        assert started.call_count == workers >= (0 if name == "lone_cr" else 9), name
        assert_same_corpus(loaded, corpus)


def test_one_cpu_starts_no_process(small_synth):
    corpus, _, directory = small_synth
    with split_read(1), mock.patch.object(FORK, "Process", side_effect=AssertionError("process started")):
        assert_same_corpus(cm.load_corpus(directory), corpus)


def test_worker_that_dies_leads_to_the_record_read(small_synth):
    # the patch is inherited through fork, so the worker raises before it
    # sends anything; this process then sees the pipe close and parses the
    # worker's range itself, each line once
    corpus, _, directory = small_synth
    blocks = cm._range_blocks

    def failing(*args):
        if os.getpid() != parent:
            raise RuntimeError("worker died")
        return blocks(*args)

    parent = os.getpid()
    with split_read(), mock.patch.object(cm, "_range_blocks", failing), parsed_lines() as counts, \
            mock.patch.object(FORK, "Process", wraps=FORK.Process) as started:
        loaded = cm.load_corpus(directory)
    assert started.call_count == len(FILES)
    assert sum(counts) == record_lines(directory)
    assert_same_corpus(loaded, corpus)


def test_worker_that_dies_while_sending_a_block(small_synth, monkeypatch):
    # the worker sends its first block whole and only the start of the
    # next, then exits; this process parses the rest of its range itself
    monkeypatch.setattr(cm, "_BLOCK_LINES", 3)
    corpus, _, directory = small_synth
    parse_range = cm._parse_range

    def dying(path, fields, start, end, sender):
        class Cut:
            def send_bytes(self, block):
                if sent:
                    os.write(sender.fileno(), struct.pack("!i", len(block)) + block[:10])
                    os._exit(1)
                sent.append(block)
                sender.send_bytes(block)

        sent = []
        parse_range(path, fields, start, end, Cut())

    with split_read(), mock.patch.object(cm, "_parse_range", dying):
        loaded = cm.load_corpus(directory)
    assert_same_corpus(loaded, corpus)


def test_fault_in_a_worker_is_parsed_again_from_its_block(tmp_path, monkeypatch):
    # The worker sends the block of lines 5 and 6 and stops at the fault in
    # its next block; this process parses from line 7 on, after its own
    # range.  Line 8 fails before any JSON is parsed.
    monkeypatch.setattr(cm, "_BLOCK_LINES", 2)
    directory = base_corpus(tmp_path / "c", comments_jsonl=split_lines().encode().replace(b'"c7"', b'"c\xff"'))
    with split_read(), parsed_lines() as counts:
        assert line_ranges(directory / "comments.jsonl") == [0] * 4 + [1] * 4
        err = load_error(directory)
    assert str(err.value) == f"{directory / 'comments.jsonl'}:8: invalid UTF-8 (invalid start byte)"
    # the first line of sources and of posts, lines 1-4 of comments joined
    # two at a time, then line 7 alone
    assert counts == [1, 1, 2, 2, 1]


def test_interrupt_while_a_worker_runs_leaves_no_process(small_synth):
    _, _, directory = small_synth

    def interrupted(path, post_index):
        def step(*columns):
            raise KeyboardInterrupt

        cm._read(path, cm._COMMENT_FIELDS, step, cm._Unique(None, None))

    with split_read(), mock.patch.object(cm, "_build_comments", interrupted), \
            mock.patch.object(FORK, "Process", wraps=FORK.Process) as started, \
            pytest.raises(KeyboardInterrupt):
        cm.load_corpus(directory)
    assert started.call_count == 3  # sources, posts, comments


def test_stored_order_does_not_depend_on_line_order(small_synth, tmp_path):
    corpus, _, directory = small_synth
    shuffled = tmp_path / "shuffled"
    shuffled.mkdir()
    for name in ("sources", "posts", "comments", "mentions"):
        rows = (directory / f"{name}.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        if name in ("posts", "mentions"):
            rows.reverse()
        elif name == "comments":
            # round robin over the posts, last post first: the lines of
            # different posts interleave, and each post keeps its order
            by_post = {}
            for row in rows:
                by_post.setdefault(json.loads(row)["post_id"], []).append(row)
            queues = list(by_post.values())[::-1]
            rows = [q[i] for i in range(max(map(len, queues))) for q in queues if i < len(q)]
        (shuffled / f"{name}.jsonl").write_text("".join(rows), encoding="utf-8")
    assert (shuffled / "comments.jsonl").read_text() != (directory / "comments.jsonl").read_text()
    loaded = cm.load_corpus(shuffled)
    assert snapshot(loaded) == snapshot(corpus)
    assert loaded.users == corpus.users and loaded.entities == corpus.entities
    assert np.array_equal(loaded.comment_offsets, corpus.comment_offsets)
    assert np.array_equal(loaded.user_comment_counts, corpus.user_comment_counts)


def test_value_split_across_lines_is_invalid_json(tmp_path):
    # Joined, the two lines parse as an array of two seven-key post objects,
    # so the text of p1 must be rejected on the block read, not converted.
    head = dumps({k: v for k, v in P1.items() if k != "text"})[:-1] + ', "text": [{"x": 1}'
    raw = lines(head, '{"y": 2}]}, ' + dumps(P2))
    directory = base_corpus(tmp_path / "c", posts_jsonl=raw)
    err = load_error(directory)
    assert type(err.value) is cm.SchemaError
    assert str(err.value) == f"{directory / 'posts.jsonl'}:1: invalid JSON (Expecting ',' delimiter)"


ABSENT = object()  # the field is dropped from the record

# (file, field, bad value, the message that follows "<file>:<line>: ")
FAULTS = [
    ("posts.jsonl", "likes", -1, "field 'likes' must be a non-negative integer"),
    ("comments.jsonl", "replies", 2**63, "field 'replies' is outside the 64-bit integer range"),
    ("posts.jsonl", "timestamp", True, "field 'timestamp' must be integer UTC seconds"),
    ("comments.jsonl", "timestamp", 1.5, "field 'timestamp' must be integer UTC seconds"),
    ("posts.jsonl", "sentiment", 2, "field 'sentiment' out of range [-1, 1]: 2.0"),
    ("comments.jsonl", "sentiment", "0", "field 'sentiment' must be a number"),
    ("posts.jsonl", "source_id", "", "field 'source_id' must be a non-empty string"),
    ("comments.jsonl", "user_id", None, "field 'user_id' must be a non-empty string"),
    ("comments.jsonl", "post_id", ABSENT, "missing field 'post_id'"),
    ("posts.jsonl", "text", ABSENT, "missing field 'text'"),
    ("mentions.jsonl", "confidence", 1.5, "confidence out of range [0, 1]: 1.5"),
    ("mentions.jsonl", "entity", 7, "field 'entity' must be a non-empty string"),
    ("sources.jsonl", "category", "satire", "category must be 'official' or 'fake'"),
]


@given(corpora(), st.integers(1, 5), st.data())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_one_bad_value_names_its_file_line_and_field(tmp_path, corpus, block, data):
    name, field, value, message = data.draw(st.sampled_from([f for f in FAULTS if corpus[f[0]]]))
    rows = corpus[name]
    i = data.draw(st.integers(0, len(rows) - 1))
    rows[i] = ({k: v for k, v in rows[i].items() if k != field} if value is ABSENT
               else {**rows[i], field: value})
    directory = base_corpus(tmp_path / "f", **{n.replace(".", "_"): lines(*r) for n, r in corpus.items()})
    cpus = data.draw(CPUS)
    with mock.patch.object(cm, "_BLOCK_LINES", block), split_read(cpus) if cpus else nullcontext():
        err = load_error(directory)
    assert str(err.value).startswith(f"{directory / name}:{i + 1}: ")
    assert str(err.value).endswith(message)
