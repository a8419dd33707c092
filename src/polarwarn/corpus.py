"""Annotated social-media corpus: loading, validation, column tables, sampling.

The corpus is read from four JSONL files (sources, posts, comments, entity
mentions) into column tables: numpy arrays for codes and numbers, Python
lists only for the strings something reads (post ids, user ids, entity
names).  No text is kept: each block's texts are counted as the block is
parsed (:func:`textcounts.text_counts`), and the corpus keeps each post's
own counts and the integer sums of its comments' counts.  Rows refer to
each other by integer codes: row numbers for sources and posts, and
positions in the sorted id lists for users and entities.  The loader stores each table in the order its readers use,
whatever the order of the file: sources in file order, posts in post-id
order, comments grouped by post (each post's in file order, found through
CSR offsets), and mentions by (entity, post).  Each user's comment count is
kept.  After loading, a :class:`Corpus` is immutable and safe to share.

Entity and post samples hold post rows in that stored order, so every
per-post float sum and every post dataset row follows post-id order.  An
entity sample is one table of memberships (entity index, post row), by
entity.

Each file is read in blocks of ``_BLOCK_LINES`` lines, each parsed once,
and every column is checked with numpy and set operations.  A file over
``_SPLIT_BYTES`` is cut into one byte range per CPU this process may run
on, each ending just after a newline: this process parses the first range
while one forked worker per later range parses that range, and the builders
receive every block in file order, with its texts already counted, so a
worker sends integers, not strings.  On one CPU nothing is split and no
process starts.  Duplicate keys are found from a 64-bit hash of each key,
kept in numpy and sorted once after the file.  A SchemaError or
IntegrityError names the file and line of the first bad record.
"""

from __future__ import annotations

import gc
import io
import json
import marshal
import math
import multiprocessing
import os
import re
import signal
from contextlib import closing
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Hashable, Iterator, Mapping, NamedTuple, NoReturn

import numpy as np

from .textcounts import COUNT_NAMES, text_counts

OFFICIAL = "official"
FAKE = "fake"

_WS = re.compile(r"\s+")
# bytes that are not UTF-8, as the "surrogateescape" error handler decodes them
_UNDECODABLE = re.compile("[\udc80-\udcff]")

# Lines per parsed block: bounds the record dicts held at once.
_BLOCK_LINES = 4096
# A file over this many bytes is parsed in one byte range per CPU.
_SPLIT_BYTES = 2**20


class CorpusError(Exception):
    """Base class for data-layer failures."""


class SchemaError(CorpusError):
    """A record is malformed (bad JSON, missing field, out-of-range value)."""


class IntegrityError(CorpusError):
    """Referential integrity is broken (dangling keys, duplicate ids)."""


def normalize_entity(label: str) -> str:
    """Canonical topic key: case-folded, inner whitespace collapsed."""
    return _WS.sub(" ", label.strip()).casefold()


@dataclass(frozen=True)
class Sources:
    """One row per source, in file order."""

    fake: np.ndarray  # bool: the source is a fake outlet

    def __len__(self) -> int:
        return len(self.fake)


@dataclass(frozen=True)
class Posts:
    """One row per post, in post-id order."""

    ids: list[str]
    source: np.ndarray  # source row
    timestamp: np.ndarray  # integer UTC seconds
    text_counts: np.ndarray  # one row of textcounts.COUNT_NAMES counts per post
    sentiment: np.ndarray
    likes: np.ndarray
    shares: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class Comments:
    """One row per comment, by post row; each post's comments in file order."""

    post: np.ndarray  # post row
    user: np.ndarray  # position in Corpus.users
    sentiment: np.ndarray  # NaN where the comment has no sentiment score
    likes: np.ndarray
    replies: np.ndarray

    def __len__(self) -> int:
        return len(self.post)


@dataclass(frozen=True)
class Mentions:
    """One row per entity mention, by (entity, post row)."""

    entity: np.ndarray  # position in Corpus.entities
    post: np.ndarray  # post row
    confidence: np.ndarray

    def __len__(self) -> int:
        return len(self.post)


def group_positions(ptr: np.ndarray, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``ptr[g]`` up to ``ptr[g + 1]`` of each group in ``groups``, flattened, and their count.

    With ``Corpus.comment_offsets`` these are the rows of each post's comments.
    """
    count = np.diff(ptr)[groups]
    index = np.repeat(ptr[:-1][groups] - (np.cumsum(count) - count), count) + np.arange(count.sum())
    return index, count


@dataclass(frozen=True)
class EntitySample:
    """Entities passing a confidence/coverage filter, with their member posts.

    ``entities`` runs in sorted order, the order every per-entity table
    follows.  Each membership ``i`` pairs the entity ``entities[entity[i]]``
    with the row ``rows[i]`` of a post carrying a qualifying mention of it;
    memberships keep the stored order of the mentions: by entity, each
    entity's posts by row, which is post-id order.
    """

    name: str
    entities: tuple[str, ...]
    entity: np.ndarray
    rows: np.ndarray
    requires_comment_sentiment: bool = False


@dataclass(frozen=True)
class PostSample:
    """Posts containing at least one entity of an EntitySample, by row (post-id order).

    ``labels[i]`` is 1 when the source of post ``rows[i]`` is a fake outlet, else 0.
    """

    name: str
    rows: np.ndarray
    labels: np.ndarray


@dataclass(frozen=True)
class Corpus:
    """The four tables in stored order, with the sorted user and entity ids.

    Post ``p``'s comments are rows ``comment_offsets[p]:comment_offsets[p + 1]``.
    """

    sources: Sources
    posts: Posts
    comments: Comments
    mentions: Mentions
    users: list[str]  # sorted user ids
    entities: list[str]  # sorted entity names
    comment_offsets: np.ndarray  # CSR offsets of each post row's comments
    comment_text_counts: np.ndarray  # per post row: the sums of its comments' text counts
    user_comment_counts: np.ndarray  # per user: their comments in the corpus

    @cached_property
    def user_pages(self) -> np.ndarray:
        """Per user: the distinct sources whose posts they commented on.

        Computed on first use and kept, so a corpus pays for it once, and
        only when post features are built.
        """
        n_sources = len(self.sources)
        return np.bincount(
            np.unique(self.comments.user * n_sources + self.posts.source[self.comments.post]) // n_sources,
            minlength=len(self.users),
        )

    def post_is_fake(self) -> np.ndarray:
        """Per post row: its source is a fake outlet."""
        return self.sources.fake[self.posts.source]

    def breakdown(self) -> dict[str, dict[str, int]]:
        """Per-category tallies of pages, posts, likes, comments, shares."""
        post_fake = self.post_is_fake()
        comment_fake = post_fake[self.comments.post]
        out = {}
        for cat, fake in ((OFFICIAL, False), (FAKE, True)):
            posts = post_fake == fake
            out[cat] = {
                "pages": int(np.count_nonzero(self.sources.fake == fake)),
                "posts": int(np.count_nonzero(posts)),
                "likes": sum(self.posts.likes[posts].tolist()),
                "comments": int(np.count_nonzero(comment_fake == fake)),
                "shares": sum(self.posts.shares[posts].tolist()),
            }
        return out


# ---------------------------------------------------------------------------
# Reading.  Each line of a file is parsed once, in a block of lines that
# reaches its builder as columns, in file order.  A fault is located inside
# its own block, and equal key hashes parse again only the records that
# hold them.


def _parse(path: Path, lineno: int, line: str) -> dict | None:
    """The object on a line as a text-mode reader gives it, or None for a blank line."""
    if _UNDECODABLE.search(line):
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}:{lineno}: invalid UTF-8 ({exc.reason})") from exc
    if not (line := line.strip()):
        return None
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer literal over the int digit limit, or
        # nesting deeper than the recursion limit
        msg = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
        raise SchemaError(f"{path}:{lineno}: invalid JSON ({msg})") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}:{lineno}: expected an object")
    return obj


# The value of a field a record lacks: marshal can send it, and no JSON value is it.
_MISSING = ...

# The fields of each file, in the order the builders receive their columns.
_SOURCE_FIELDS = ("id", "name", "category")
_POST_FIELDS = ("id", "source_id", "timestamp", "text", "sentiment", "likes", "shares")
_COMMENT_FIELDS = ("id", "post_id", "user_id", "timestamp", "text", "sentiment", "likes", "replies")
_MENTION_FIELDS = ("entity", "post_id", "confidence")


class _Block(NamedTuple):
    """The records of some lines of a file, one column per field."""

    lines: np.ndarray  # the number of each record's line
    stop: int  # the number of the line after the block
    end: int  # the byte after the block
    columns: list  # the texts' column holds their counts, one row per text
    fault: SchemaError | None = None  # on the line after the records; no block follows it


def _ranges(path: Path) -> list[tuple[int, int]]:
    """The file's byte ranges: one per usable CPU when it is over _SPLIT_BYTES, else one.

    Range ``k`` of ``n`` starts at the first line that starts at or after
    byte ``k * size // n`` (byte 0 excepted).  Each range but the last ends
    just after a ``\\n``, and only the first can be empty.
    """
    size = path.stat().st_size
    n = len(os.sched_getaffinity(0)) if size > _SPLIT_BYTES and hasattr(os, "sched_getaffinity") else 1
    cuts = [0]
    with open(path, "rb") as fh:
        for k in range(1, n):
            fh.seek(max(k * size // n - 1, 0))
            fh.readline()
            cuts.append(fh.tell())
    cuts.append(size)
    return [(0, cuts[1])] + [(a, b) for a, b in zip(cuts[1:], cuts[2:]) if a < b]


def _parse_block(path: Path, raw: list[bytes], first: int, end: int, fields: tuple[str, ...]) -> _Block:
    """The block of the lines ``raw``, as a binary file splits them, numbered from ``first``, up to the first fault.

    The lines are parsed with one ``json.loads`` over them joined as an
    array when that shows each non-blank line to be one object, else one at
    a time as a text-mode reader splits them, which also ends a line at a
    ``\\r`` not followed by ``\\n``.  Strings cannot hold a raw line
    break, so the ``{`` that starts a line and the ``}`` that ends it are
    outside strings.  When every line starts with ``{`` and ends with ``}``
    and the text holds no other ``{``, each line opens one object, which
    only its own last ``}`` can close, whatever lists it holds.  A text that
    is not a string is counted as its ``str``, and a missing one counts -1.
    """
    data, rows, fault = b"".join(raw), None, None
    if b"\r" not in data or data.count(b"\r") == data.count(b"\r\n"):
        try:
            stripped = list(map(str.strip, map(bytes.decode, raw)))
            lines = list(filter(None, stripped))
            text = "[" + ",\n".join(lines) + "]"
            if (text.startswith("[{") and text.endswith("}]")
                    and text.count("{") == len(lines) == text.count("},\n{") + 1):
                rows = list(map(itemgetter(*fields), json.loads(text)))
                numbers = np.flatnonzero(list(map(bool, stripped))) if len(lines) < len(raw) else np.arange(len(raw))
                numbers, stop = numbers + first, first + len(raw)
        except (ValueError, RecursionError, KeyError):  # not UTF-8, not JSON, or a field missing
            pass
    if rows is None:
        numbers, rows, lineno = [], [], first - 1
        try:
            for lineno, line in enumerate(io.TextIOWrapper(io.BytesIO(data), "utf-8", "surrogateescape"), first):
                if (obj := _parse(path, lineno, line)) is not None:
                    rows.append(tuple(map(obj.get, fields, repeat(_MISSING))))
                    numbers.append(lineno)
        except SchemaError as exc:
            fault = exc
        numbers, stop = np.array(numbers, np.int64), lineno + 1
    columns = list(zip(*rows)) or [()] * len(fields)
    if "text" in fields:
        texts = columns[k := fields.index("text")]
        if set(map(type, texts)) <= {str}:
            columns[k] = text_counts(texts)
        else:
            columns[k] = text_counts(list(map(str, texts)))
            columns[k][[value is _MISSING for value in texts]] = -1
    return _Block(numbers, stop, end, columns, fault)


def _range_blocks(path: Path, fields: tuple[str, ...], start: int, end: int, line: int = 1) -> Iterator[_Block]:
    """Each block of the lines in bytes ``start`` to ``end``, up to the first with a fault.

    Lines are numbered from ``line``, as a text-mode reader numbers them.
    """
    with open(path, "rb") as fh:
        fh.seek(start)
        while start < end and (raw := list(islice(fh, _BLOCK_LINES))):
            start += sum(map(len, raw))
            while start > end:
                start -= len(raw.pop())
            yield (block := _parse_block(path, raw, line, start, fields))
            if block.fault:
                return
            line = block.stop


def _parse_range(path: Path, fields: tuple[str, ...], start: int, end: int, sender) -> None:
    """In a worker: parse a byte range, then send each block before the first with a fault, marshalled.

    Lines are numbered from 1 at the range's start.  A block's line numbers
    and text counts go as their raw bytes, which _received reads back.  All
    blocks are parsed before the first is sent, since the parent reads them
    only after its own range.  Interrupts are left to the parent, which
    kills the worker.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    blocks = [marshal.dumps((block.lines.tobytes(), block.stop, block.end,
                             [c.tobytes() if isinstance(c, np.ndarray) else c for c in block.columns]))
              for block in _range_blocks(path, fields, start, end) if not block.fault]
    for block in blocks:
        sender.send_bytes(block)


def _received(receiver, base: int) -> Iterator[_Block]:
    """The blocks a worker sends, one at a time until it ends or dies, their lines numbered on from ``base``."""
    try:
        while True:
            lines, stop, end, columns = marshal.loads(receiver.recv_bytes())
            yield _Block(np.frombuffer(lines, np.int64) + base, stop + base, end,
                         [np.frombuffer(c, np.int64).reshape(-1, len(COUNT_NAMES)) if isinstance(c, bytes) else c
                          for c in columns])
    except (EOFError, OSError):  # OSError: the worker died while sending a block
        return


def _parsed_blocks(path: Path, fields: tuple[str, ...]) -> Iterator[_Block]:
    """Each block of the file, in file order, its lines numbered through the file.

    The first byte range is parsed here and each later one by a forked
    worker, all started first; a worker's blocks follow once this process
    has yielded the blocks before them.  The rest of a range whose worker
    found a fault or died is parsed here.  However the generator ends, each
    worker is killed, in case it is still running, and reaped.
    """
    first, *later = _ranges(path)
    context = multiprocessing.get_context("fork")
    workers = []
    try:
        for start, end in later:
            receiver, sender = context.Pipe(duplex=False)
            worker = context.Process(target=_parse_range, args=(path, fields, start, end, sender), daemon=True)
            worker.start()
            sender.close()
            workers.append((worker, receiver))
        line = 1
        for (start, end), receiver in zip([first, *later], [None] + [r for _, r in workers]):
            for block in _received(receiver, line - 1) if receiver else ():
                yield block
                start, line = block.end, block.stop
            for block in _range_blocks(path, fields, start, end, line):
                yield block
                line = block.stop
    finally:
        for worker, receiver in workers:
            receiver.close()
            worker.kill()
            worker.join()


# Each check takes a column and its field name, and raises a SchemaError
# when a value breaks its rule; _read adds the file and line of the record.


def _invalid(values: tuple, field: str, rule: str) -> NoReturn:
    """Fail for a missing value, else for a value that breaks ``rule``."""
    raise SchemaError(f"missing field {field!r}" if _MISSING in values else f"field {field!r} {rule}")


def _strings(values: tuple, field: str) -> tuple:
    """Non-empty strings."""
    if not set(map(type, values)) <= {str} or "" in values:
        _invalid(values, field, "must be a non-empty string")
    return values


def _texts(counts: np.ndarray) -> np.ndarray:
    """The counts of the texts, where a missing text counts -1."""
    if len(counts) and counts[:, 0].min() < 0:
        raise SchemaError("missing field 'text'")
    return counts


def _ints(values: tuple, field: str, non_negative: bool = False) -> np.ndarray:
    """64-bit integers: counts with ``non_negative``, else timestamps."""
    rule = "must be a non-negative integer" if non_negative else "must be integer UTC seconds"
    if not set(map(type, values)) <= {int}:
        _invalid(values, field, rule)
    try:
        out = np.array(values, np.int64)
    except OverflowError:
        # a negative count breaks its rule before the range
        _invalid(values, field, rule if non_negative and min(values) < 0 else "is outside the 64-bit integer range")
    if non_negative and len(out) and out.min() < 0:
        _invalid(values, field, rule)
    return out


def _as_float(v: int | float) -> float:
    """A JSON number as a float; an integer too large for one becomes the infinity of its sign."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _numbers(values: tuple, field: str, lo: float, hi: float, nullable: bool = False, name: str = "") -> np.ndarray:
    """Floats in [lo, hi]; with ``nullable``, null becomes NaN.

    ``name`` names the field in the range error, ``field 'x'`` by default.
    """
    allowed = {int, float, type(None)} if nullable else {int, float}
    if not set(map(type, values)) <= allowed:
        _invalid(values, field, "must be a number")
    try:
        out = np.array(values, float)
    except OverflowError:
        out = np.array([v if v is None else _as_float(v) for v in values], float)
    outside = ~((out >= lo) & (out <= hi))  # NaN is outside
    if np.count_nonzero(outside) != (values.count(None) if nullable else 0):
        value = float(out[outside][0])
        raise SchemaError(f"{name or f'field {field!r}'} out of range [{lo:g}, {hi:g}]: {value}")
    return out


def _hashes(keys: list | tuple) -> np.ndarray:
    """The 64-bit ``hash`` of each key."""
    return np.fromiter(map(hash, keys), np.int64, len(keys))


class _Unique:
    """The duplicate-key check of one file.

    It keeps no Python object per key: each block's key hashes go to an
    int64 chunk, and ``check`` sorts them.  Only the records whose keys hash
    alike, from a duplicate or from distinct keys that collide (about
    n**2 / 2**65 for n keys), are parsed again, to compare their keys.
    """

    def __init__(self, key: Callable[[dict], Hashable], message: Callable[[Hashable], str]) -> None:
        self.key, self.message = key, message  # a record's key, and the error for a repeat of it
        self.hashes: list[np.ndarray] = []

    def add(self, keys: list | tuple) -> None:
        self.hashes.append(_hashes(keys))

    def check(self, path: Path) -> None:
        """IntegrityError for the first key added so far that equals a key on an earlier line."""
        hashes = _concat(self.hashes, np.int64)
        ordered = np.sort(hashes)
        equal = ordered[1:][ordered[1:] == ordered[:-1]]
        if not len(equal):
            return
        seen = set()
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            records, at = ((lineno, line) for lineno, line in enumerate(fh, 1) if line.strip()), 0
            for position in np.flatnonzero(np.isin(hashes, equal)).tolist():
                lineno, line = next(islice(records, position - at, None))
                at = position + 1
                if (key := self.key(_parse(path, lineno, line))) in seen:
                    raise IntegrityError(f"{path}:{lineno}: {self.message(key)}") from None
                seen.add(key)


def _read(path: Path, fields: tuple[str, ...], step: Callable, unique: _Unique) -> None:
    """``step`` over the columns of each block of the file, in file order, then the duplicate check.

    When a check fails, the block's records go through ``step`` again one
    at a time, and the first that fails raises its error, unless a key on
    its line or an earlier one repeats: ``step`` adds a key when it reaches
    its duplicate check.  A parse fault likewise follows the records before it.
    """
    try:
        with closing(_parsed_blocks(path, fields)) as blocks:
            for block in blocks:
                added = len(unique.hashes)
                try:
                    step(*block.columns)
                except SchemaError:
                    del unique.hashes[added:]
                    for i, line in enumerate(block.lines.tolist()):
                        try:
                            step(*(column[i:i + 1] for column in block.columns))
                        except SchemaError as fault:
                            raise SchemaError(f"{path}:{line}: {fault}") from None
                    raise
                if block.fault:
                    raise block.fault
    except SchemaError:
        unique.check(path)
        raise
    unique.check(path)


def _refs(values: tuple, index: Mapping[str, int]) -> np.ndarray:
    """Rows of the referenced ids; -1 for an id not in ``index``."""
    return np.fromiter(map(index.get, values, repeat(-1)), np.int64, len(values))


def _dangling(rows: np.ndarray, kind: str, ids: tuple, target: str, refs: tuple) -> list[str]:
    """``"<kind> 'id' -> <target> 'ref'"`` for each reference ``_refs`` found no row for."""
    return [f"{kind} {ids[i]!r} -> {target} {refs[i]!r}" for i in np.flatnonzero(rows < 0)]


class _Codes:
    """Codes for strings as they arrive, renumbered in sorted-string order at the end."""

    def __init__(self) -> None:
        self.code: dict[str, int] = {}

    def encode(self, values: tuple) -> np.ndarray:
        code = self.code
        for v in set(values).difference(code):
            code[v] = len(code)
        return np.fromiter(map(code.__getitem__, values), np.int64, len(values))

    def renumbered(self, chunks: list[np.ndarray]) -> tuple[list[str], np.ndarray]:
        """The sorted strings, and the encoded chunks joined and renumbered to match."""
        names = sorted(self.code)
        rank = np.empty(len(names), np.int64)
        rank[np.fromiter(map(self.code.__getitem__, names), np.int64, len(names))] = np.arange(len(names))
        return names, rank[_concat(chunks, np.int64)]


def _concat(chunks: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(chunks) if chunks else np.zeros(0, dtype)


def _reorder(table, order: np.ndarray) -> None:
    """Put a just-built table's rows in ``order``, one column at a time.

    Each new column can then reuse the space the old one frees.  Only the
    loader sets columns of the frozen tables, before load_corpus returns.
    """
    for name, column in vars(table).items():
        object.__setattr__(table, name, column[order] if isinstance(column, np.ndarray)
                           else list(map(column.__getitem__, order.tolist())))


# Each builder checks a block's fields in a fixed order, the duplicate check
# included, which decides the error reported for a record with several
# faults.  The builders keep file order, so each error names its record's
# line; only the finished posts table is put in id order, and load_corpus
# orders the others once no reference dangles.


def _build_sources(path: Path) -> tuple[dict[str, int], Sources]:
    ids: list[str] = []
    fake = []
    unique = _Unique(itemgetter("id"), "duplicate source id {!r}".format)

    def step(sid, name, category):
        _strings(sid, "id")
        if not set(_strings(category, "category")) <= {OFFICIAL, FAKE}:
            raise SchemaError("category must be 'official' or 'fake'")
        unique.add(sid)
        _strings(name, "name")
        ids.extend(sid)
        fake.append(np.array(category) == FAKE)
    _read(path, _SOURCE_FIELDS, step, unique)
    return {s: i for i, s in enumerate(ids)}, Sources(fake=_concat(fake, bool))


def _build_posts(path: Path, source_index: Mapping[str, int]) -> tuple[dict[str, int], Posts, list[str]]:
    ids: list[str] = []
    dangling: list[str] = []
    source, timestamp, counts, sentiment, likes, shares = [], [], [], [], [], []
    unique = _Unique(itemgetter("id"), "duplicate post id {!r}".format)

    def step(pid, source_id, ts, text, sent, like, share):
        unique.add(_strings(pid, "id"))
        ids.extend(pid)
        source.append(_refs(_strings(source_id, "source_id"), source_index))
        dangling.extend(_dangling(source[-1], "post", pid, "source", source_id))
        timestamp.append(_ints(ts, "timestamp"))
        counts.append(_texts(text))
        sentiment.append(_numbers(sent, "sentiment", -1.0, 1.0))
        likes.append(_ints(like, "likes", non_negative=True))
        shares.append(_ints(share, "shares", non_negative=True))
    _read(path, _POST_FIELDS, step, unique)
    posts = Posts(
        ids=ids, source=_concat(source, np.int64), timestamp=_concat(timestamp, np.int64),
        text_counts=_concat(counts, np.int64).reshape(-1, len(COUNT_NAMES)),
        sentiment=_concat(sentiment, float), likes=_concat(likes, np.int64), shares=_concat(shares, np.int64),
    )
    _reorder(posts, np.array(sorted(range(len(ids)), key=ids.__getitem__), np.int64))
    return {p: i for i, p in enumerate(posts.ids)}, posts, dangling


def _build_comments(path: Path, post_index: Mapping[str, int]) -> tuple[list[str], Comments, np.ndarray, list[str]]:
    """The comments, and per post row the sums of its comments' text counts.

    The counts are summed as each block arrives, so no per-comment count is
    kept.  A dangling comment's post row is -1, so its counts go to one more
    row at the end, which is left out: load_corpus then fails anyway.
    """
    text_sums = np.zeros((len(post_index) + 1, len(COUNT_NAMES)), np.int64)
    dangling: list[str] = []
    users = _Codes()
    post, user, sentiment, likes, replies = [], [], [], [], []
    unique = _Unique(itemgetter("id"), "duplicate comment id {!r}".format)

    def step(cid, post_id, user_id, ts, text, sent, like, reply):
        unique.add(_strings(cid, "id"))
        if _MISSING in sent:  # reported ahead of a fault in post_id or a later field
            raise SchemaError("missing field 'sentiment'")
        post.append(_refs(_strings(post_id, "post_id"), post_index))
        dangling.extend(_dangling(post[-1], "comment", cid, "post", post_id))
        user.append(users.encode(_strings(user_id, "user_id")))
        _ints(ts, "timestamp")
        np.add.at(text_sums, post[-1], _texts(text))
        sentiment.append(_numbers(sent, "sentiment", -1.0, 1.0, nullable=True))
        likes.append(_ints(like, "likes", non_negative=True))
        replies.append(_ints(reply, "replies", non_negative=True))
    _read(path, _COMMENT_FIELDS, step, unique)
    names, user = users.renumbered(user)
    comments = Comments(
        post=_concat(post, np.int64), user=user, sentiment=_concat(sentiment, float),
        likes=_concat(likes, np.int64), replies=_concat(replies, np.int64),
    )
    return names, comments, text_sums[:-1], dangling


def _build_mentions(path: Path, post_index: Mapping[str, int]) -> tuple[list[str], Mentions, list[str]]:
    """Mentions keyed by normalized entity; duplicates compare (entity, post id) pairs."""
    entities = _Codes()
    normalized: dict[str, str] = {}
    dangling: list[str] = []
    entity, post, confidence = [], [], []
    unique = _Unique(lambda record: (normalize_entity(record["entity"]), record["post_id"]),
                     lambda key: "duplicate mention of {!r} in post {!r}".format(*key))

    def step(label, post_id, conf):
        for raw in set(_strings(label, "entity")).difference(normalized):
            normalized[raw] = normalize_entity(raw)
        keys = tuple(map(normalized.__getitem__, label))
        post.append(_refs(_strings(post_id, "post_id"), post_index))
        dangling.extend(_dangling(post[-1], "mention", keys, "post", post_id))
        confidence.append(_numbers(conf, "confidence", 0.0, 1.0, name="confidence"))
        unique.add(list(zip(keys, post_id)))
        entity.append(entities.encode(keys))
    _read(path, _MENTION_FIELDS, step, unique)
    names, entity = entities.renumbered(entity)
    mentions = Mentions(entity=entity, post=_concat(post, np.int64), confidence=_concat(confidence, float))
    return names, mentions, dangling


def load_corpus(directory: str | Path) -> Corpus:
    """Load and validate the four JSONL files into column tables, in stored order.

    Raises SchemaError with file/line coordinates for malformed records and
    IntegrityError listing every dangling reference or duplicate key.  An
    integer outside the 64-bit range is a SchemaError.
    """
    paths = {name: Path(directory) / f"{name}.jsonl"
             for name in ("sources", "posts", "comments", "mentions")}
    for p in paths.values():
        if not p.exists():
            raise CorpusError(f"missing corpus file: {p}")

    # The cyclic garbage collector is paused while the files are read: the reader
    # makes no reference cycles, so passes over the fresh record dicts would find nothing.
    enabled = gc.isenabled()
    gc.disable()
    try:
        source_index, sources = _build_sources(paths["sources"])
        post_index, posts, from_posts = _build_posts(paths["posts"], source_index)
        users, comments, comment_text_counts, from_comments = _build_comments(paths["comments"], post_index)
        entities, mentions, from_mentions = _build_mentions(paths["mentions"], post_index)
    finally:
        if enabled:
            gc.enable()
    if dangling := from_posts + from_comments + from_mentions:
        raise IntegrityError("dangling references: " + "; ".join(sorted(dangling)))
    _reorder(comments, np.argsort(comments.post, kind="stable"))
    _reorder(mentions, np.lexsort((mentions.post, mentions.entity)))
    offsets = np.zeros(len(posts) + 1, np.int64)
    np.cumsum(np.bincount(comments.post, minlength=len(posts)), out=offsets[1:])

    return Corpus(
        sources=sources,
        posts=posts,
        comments=comments,
        mentions=mentions,
        users=users,
        entities=entities,
        comment_offsets=offsets,
        comment_text_counts=comment_text_counts,
        user_comment_counts=np.bincount(comments.user, minlength=len(users)),
    )


def select_entities(
    corpus: Corpus,
    min_confidence: float,
    min_posts: int,
    require_comment_sentiment: bool = False,
    name: str = "",
) -> EntitySample:
    """Entities whose qualifying mentions appear in at least ``min_posts`` posts.

    A mention below ``min_confidence`` is ignored entirely; the post-count
    rule counts distinct posts with qualifying mentions, not raw mentions.
    """
    qualifying = corpus.mentions.confidence >= min_confidence
    entity, post = corpus.mentions.entity[qualifying], corpus.mentions.post[qualifying]
    counts = np.bincount(entity, minlength=len(corpus.entities))
    kept = counts >= min_posts
    member = kept[entity]
    return EntitySample(
        name=name or f"conf{min_confidence:g}_posts{min_posts}",
        entities=tuple(map(corpus.entities.__getitem__, np.flatnonzero(kept).tolist())),
        entity=(np.cumsum(kept) - 1)[entity[member]],
        rows=post[member],
        requires_comment_sentiment=require_comment_sentiment,
    )


def select_e1(corpus: Corpus) -> EntitySample:
    return select_entities(corpus, 0.6, 1, require_comment_sentiment=False, name="E1")


def select_e2(corpus: Corpus) -> EntitySample:
    return select_entities(corpus, 0.9, 100, require_comment_sentiment=True, name="E2")


def disputed_entities(corpus: Corpus, sample: EntitySample) -> np.ndarray:
    """Per entity of ``sample.entities``: True where it has member posts in both categories, official and fake."""
    n = len(sample.entities)
    fake = np.bincount(sample.entity[corpus.post_is_fake()[sample.rows]], minlength=n)
    return (fake > 0) & (fake < np.bincount(sample.entity, minlength=n))


def posts_for_entities(corpus: Corpus, sample: EntitySample, name: str = "") -> PostSample:
    """All posts containing at least one entity of the sample, labeled by source."""
    rows = np.unique(sample.rows)
    return PostSample(
        name=name or f"P[{sample.name}]",
        rows=rows,
        labels=corpus.post_is_fake()[rows].astype(np.int8),
    )
