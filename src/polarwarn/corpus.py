"""Annotated social-media corpus: loading, validation, column tables, sampling.

The corpus is read from four JSONL files (sources, posts, comments, entity
mentions) into column tables: numpy arrays for codes and numbers, Python
lists only for the strings something reads (texts, post ids, user ids,
entity names).  Rows refer to each other by integer codes: row numbers for
sources and posts, and positions in the sorted id lists for users and
entities.  The loader stores each table in the order its readers use,
whatever the order of the file: sources in file order, posts in post-id
order, comments grouped by post (each post's in file order, found through
CSR offsets), and mentions by (entity, post).  Each user's comment count is
kept.  After loading, a :class:`Corpus` is immutable and safe to share.

Entity and post samples hold post rows in that stored order, so every
per-post float sum and every post dataset row follows post-id order.  An
entity sample is one table of memberships (entity index, post row), by
entity.

Each file is read in blocks of ``_BLOCK_LINES`` lines.  A block is parsed
with one ``json.loads`` over its lines joined as an array, and every column
is checked with numpy and set operations.  When a block or a column fails
a check, the file is read again one record at a time through the same
builders and checks, which then raise a SchemaError or IntegrityError
naming the file and line of the first bad record.
"""

from __future__ import annotations

import gc
import json
import math
import re
from dataclasses import dataclass
from itertools import islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NoReturn

import numpy as np

OFFICIAL = "official"
FAKE = "fake"

_WS = re.compile(r"\s+")
# bytes that are not UTF-8, as the "surrogateescape" error handler decodes them
_UNDECODABLE = re.compile("[\udc80-\udcff]")

# Lines per parsed block: bounds the record dicts held at once.
_BLOCK_LINES = 4096


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
    text: list[str]
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
    text: list[str]
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
    user_comment_counts: np.ndarray  # per user: their comments in the corpus

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
# Reading.  A file is first read in parsed blocks of columns.  When a block or
# a column fails a check, the file is read again as one-record blocks through
# the same builders, whose checks then raise the error for the first bad record.


def _iter_jsonl(path: Path) -> Iterable[tuple[int, dict]]:
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if _UNDECODABLE.search(line):
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise SchemaError(f"{path}:{lineno}: invalid UTF-8 ({exc.reason})") from exc
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # a JSONDecodeError, an integer literal over the int digit
                # limit, or nesting deeper than the recursion limit
                msg = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
                raise SchemaError(f"{path}:{lineno}: invalid JSON ({msg})") from exc
            if not isinstance(obj, dict):
                raise SchemaError(f"{path}:{lineno}: expected an object")
            yield lineno, obj


class _Recheck(Exception):
    """A block or column failed a check on the block read."""


# The value of a field a record lacks, on the record read.
_MISSING = object()

# The fields of each file, in the order the builders receive their columns.
_SOURCE_FIELDS = ("id", "name", "category")
_POST_FIELDS = ("id", "source_id", "timestamp", "text", "sentiment", "likes", "shares")
_COMMENT_FIELDS = ("id", "post_id", "user_id", "timestamp", "text", "sentiment", "likes", "replies")
_MENTION_FIELDS = ("entity", "post_id", "confidence")


def _parsed_blocks(path: Path, fields: tuple[str, ...]) -> Iterator[tuple[None, list[tuple]]]:
    """Each block of the file as ``(None, columns)``, one tuple of values per field.

    A block passes when its lines join to an array of exactly one object per
    non-blank line, each object has exactly ``fields`` as keys, and (checked
    by the column builders) every value is a string, a number or null.
    Strings cannot hold a raw line break, so every ``"},\\n{"`` of the
    joined text sits between two lines.  Objects of scalars contain no
    other braces, so when every line starts with ``{`` and ends with ``}``
    and the object count equals the line count, each line is one object.
    """
    get = itemgetter(*fields)
    with open(path, encoding="utf-8") as fh:
        while raw := list(islice(fh, _BLOCK_LINES)):
            lines = list(filter(None, map(str.strip, raw)))
            if not lines:
                continue
            text = "[" + ",\n".join(lines) + "]"
            if not (text.startswith("[{") and text.endswith("}]")
                    and text.count("},\n{") == len(lines) - 1):
                raise _Recheck
            try:
                rows = json.loads(text)
            except (ValueError, RecursionError):
                raise _Recheck from None
            if (len(rows) != len(lines) or set(map(type, rows)) != {dict}
                    or sum(map(len, rows)) != len(fields) * len(rows)):
                raise _Recheck
            try:
                columns = list(zip(*map(get, rows)))
            except KeyError:
                raise _Recheck from None
            yield None, columns


def _records(path: Path, fields: tuple[str, ...]) -> Iterator[tuple[str, list[tuple]]]:
    """Each record of the file as a one-record block, located at its ``path:line``."""
    for lineno, obj in _iter_jsonl(path):
        yield f"{path}:{lineno}", [(obj.get(field, _MISSING),) for field in fields]


def _read(path: Path, fields: tuple[str, ...], build: Callable):
    """``build`` over the parsed blocks, or over the records when a check fails.

    A decode error also leads to the record read, which reads the lines
    before it first, as a line-by-line reader would.  The cyclic garbage
    collector is paused meanwhile: the reader makes no reference cycles, so
    collector passes over each block's fresh record dicts would find nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return build(_parsed_blocks(path, fields))
    except (_Recheck, UnicodeDecodeError):
        return build(_records(path, fields))
    finally:
        if enabled:
            gc.enable()


# Each check takes a column, its field name and where the block is: None on
# the block read, where a failed check raises _Recheck, or "path:line" on the
# record read, where it raises the error for that record.


def _fail(where: str | None, message: str, error: type[CorpusError] = SchemaError) -> NoReturn:
    if where is None:
        raise _Recheck
    raise error(f"{where}: {message}")


def _invalid(values: tuple, field: str, where: str | None, rule: str) -> NoReturn:
    """Fail for a missing value, else for a value that breaks ``rule``."""
    _fail(where, f"missing field {field!r}" if _MISSING in values else f"field {field!r} {rule}")


def _strings(values: tuple, field: str, where: str | None) -> tuple:
    """Non-empty strings."""
    if not set(map(type, values)) <= {str} or "" in values:
        _invalid(values, field, where, "must be a non-empty string")
    return values


def _texts(values: tuple, where: str | None) -> Iterable[str]:
    """Strings; the record read converts any other value with ``str``.

    The block read rejects them, since _parsed_blocks needs scalar values.
    """
    if set(map(type, values)) <= {str}:
        return values
    if where is None or _MISSING in values:
        _fail(where, "missing field 'text'")
    return [str(v) for v in values]


def _ints(values: tuple, field: str, where: str | None, non_negative: bool = False) -> np.ndarray:
    """64-bit integers: counts with ``non_negative``, else timestamps."""
    rule = "must be a non-negative integer" if non_negative else "must be integer UTC seconds"
    if not set(map(type, values)) <= {int}:
        _invalid(values, field, where, rule)
    try:
        out = np.array(values, np.int64)
    except OverflowError:
        # a negative count breaks its rule before the range
        _invalid(values, field, where,
                 rule if non_negative and min(values) < 0 else "is outside the 64-bit integer range")
    if non_negative and len(out) and out.min() < 0:
        _invalid(values, field, where, rule)
    return out


def _as_float(v: int | float) -> float:
    """A JSON number as a float; an integer too large for one becomes the infinity of its sign."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _numbers(values: tuple, field: str, where: str | None, lo: float, hi: float,
             nullable: bool = False, name: str = "") -> np.ndarray:
    """Floats in [lo, hi]; with ``nullable``, null becomes NaN.

    ``name`` names the field in the range error, ``field 'x'`` by default.
    """
    allowed = {int, float, type(None)} if nullable else {int, float}
    if not set(map(type, values)) <= allowed:
        _invalid(values, field, where, "must be a number")
    try:
        out = np.array(values, float)
    except OverflowError:
        out = np.array([v if v is None else _as_float(v) for v in values], float)
    outside = ~((out >= lo) & (out <= hi))  # NaN is outside
    if np.count_nonzero(outside) != (values.count(None) if nullable else 0):
        value = float(out[outside][0])
        _fail(where, f"{name or f'field {field!r}'} out of range [{lo:g}, {hi:g}]: {value}")
    return out


def _repeats(values: tuple | list, seen: set) -> bool:
    """Add ``values`` to ``seen``; true when one was there already or repeats."""
    size = len(seen)
    seen.update(values)
    return len(seen) != size + len(values)


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


# Each builder checks a block's fields in a fixed order, which decides the
# error the record read reports for a record with several faults.  The
# builders keep file order, so each error names its record's line; only the
# finished posts table is put in id order, and load_corpus orders the others
# once no reference dangles.


def _build_sources(blocks) -> tuple[dict[str, int], Sources]:
    ids: list[str] = []
    seen: set[str] = set()
    fake = []
    for where, (sid, name, category) in blocks:
        _strings(sid, "id", where)
        if not set(_strings(category, "category", where)) <= {OFFICIAL, FAKE}:
            _fail(where, "category must be 'official' or 'fake'")
        if _repeats(sid, seen):
            _fail(where, f"duplicate source id {sid[0]!r}", IntegrityError)
        _strings(name, "name", where)
        ids += sid
        fake.append(np.array(category) == FAKE)
    return {s: i for i, s in enumerate(ids)}, Sources(fake=_concat(fake, bool))


def _build_posts(blocks, source_index: Mapping[str, int]) -> tuple[dict[str, int], Posts, list[str]]:
    ids: list[str] = []
    seen: set[str] = set()
    texts: list[str] = []
    dangling: list[str] = []
    source, timestamp, sentiment, likes, shares = [], [], [], [], []
    for where, (pid, source_id, ts, text, sent, like, share) in blocks:
        if _repeats(_strings(pid, "id", where), seen):
            _fail(where, f"duplicate post id {pid[0]!r}", IntegrityError)
        ids += pid
        source.append(_refs(_strings(source_id, "source_id", where), source_index))
        dangling += _dangling(source[-1], "post", pid, "source", source_id)
        timestamp.append(_ints(ts, "timestamp", where))
        texts += _texts(text, where)
        sentiment.append(_numbers(sent, "sentiment", where, -1.0, 1.0))
        likes.append(_ints(like, "likes", where, non_negative=True))
        shares.append(_ints(share, "shares", where, non_negative=True))
    posts = Posts(
        ids=ids, source=_concat(source, np.int64), timestamp=_concat(timestamp, np.int64),
        text=texts, sentiment=_concat(sentiment, float),
        likes=_concat(likes, np.int64), shares=_concat(shares, np.int64),
    )
    _reorder(posts, np.array(sorted(range(len(ids)), key=ids.__getitem__), np.int64))
    return {p: i for i, p in enumerate(posts.ids)}, posts, dangling


def _build_comments(blocks, post_index: Mapping[str, int]) -> tuple[list[str], Comments, list[str]]:
    seen: set[str] = set()
    texts: list[str] = []
    dangling: list[str] = []
    users = _Codes()
    post, user, sentiment, likes, replies = [], [], [], [], []
    for where, (cid, post_id, user_id, ts, text, sent, like, reply) in blocks:
        if _repeats(_strings(cid, "id", where), seen):
            _fail(where, f"duplicate comment id {cid[0]!r}", IntegrityError)
        if where and _MISSING in sent:  # reported ahead of a fault in post_id or a later field
            _fail(where, "missing field 'sentiment'")
        post.append(_refs(_strings(post_id, "post_id", where), post_index))
        dangling += _dangling(post[-1], "comment", cid, "post", post_id)
        user.append(users.encode(_strings(user_id, "user_id", where)))
        _ints(ts, "timestamp", where)
        texts += _texts(text, where)
        sentiment.append(_numbers(sent, "sentiment", where, -1.0, 1.0, nullable=True))
        likes.append(_ints(like, "likes", where, non_negative=True))
        replies.append(_ints(reply, "replies", where, non_negative=True))
    names, user = users.renumbered(user)
    comments = Comments(
        post=_concat(post, np.int64), user=user, text=texts, sentiment=_concat(sentiment, float),
        likes=_concat(likes, np.int64), replies=_concat(replies, np.int64),
    )
    return names, comments, dangling


def _build_mentions(blocks, post_index: Mapping[str, int]) -> tuple[list[str], Mentions, list[str]]:
    """Mentions keyed by normalized entity; duplicates compare (entity, post id) pairs."""
    entities = _Codes()
    normalized: dict[str, str] = {}
    seen: set[tuple[str, str]] = set()
    dangling: list[str] = []
    entity, post, confidence = [], [], []
    for where, (label, post_id, conf) in blocks:
        for raw in set(_strings(label, "entity", where)).difference(normalized):
            normalized[raw] = normalize_entity(raw)
        keys = tuple(map(normalized.__getitem__, label))
        post.append(_refs(_strings(post_id, "post_id", where), post_index))
        dangling += _dangling(post[-1], "mention", keys, "post", post_id)
        confidence.append(_numbers(conf, "confidence", where, 0.0, 1.0, name="confidence"))
        if _repeats(list(zip(keys, post_id)), seen):
            _fail(where, f"duplicate mention of {keys[0]!r} in post {post_id[0]!r}", IntegrityError)
        entity.append(entities.encode(keys))
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

    source_index, sources = _read(paths["sources"], _SOURCE_FIELDS, _build_sources)
    post_index, posts, from_posts = _read(paths["posts"], _POST_FIELDS, lambda b: _build_posts(b, source_index))
    users, comments, from_comments = _read(paths["comments"], _COMMENT_FIELDS,
                                           lambda b: _build_comments(b, post_index))
    entities, mentions, from_mentions = _read(paths["mentions"], _MENTION_FIELDS,
                                              lambda b: _build_mentions(b, post_index))
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
