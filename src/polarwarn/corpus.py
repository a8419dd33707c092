"""Annotated social-media corpus: loading, validation, column tables, sampling.

The corpus is read from four JSONL files (sources, posts, comments, entity
mentions) into column tables: numpy arrays for codes and numbers, Python
lists only for the strings something reads (texts, post ids, user ids,
entity names).  Rows refer to each other by integer codes, which are row
numbers in file order for sources and posts and positions in the sorted id
lists for users and entities.  Comments are indexed by post in CSR form,
and each user's comment count is kept.  After loading, a :class:`Corpus` is
immutable and safe to share.

Entity and post samples hold post rows, not post ids.  Their rows run in
post-id order, which :func:`_id_rank` alone decides: every per-post float
sum and every post dataset row follows it, whatever the order of the file.

Each file is read in blocks of ``_BLOCK_LINES`` lines.  A block is parsed
with one ``json.loads`` over its lines joined as an array, and every column
is checked with numpy and set operations.  Only when a block or a column
fails a check is the file read again record by record, by the validator
that raises a SchemaError or IntegrityError naming the file and line of the
first bad record.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from itertools import islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

OFFICIAL = "official"
FAKE = "fake"

_WS = re.compile(r"\s+")
# bytes that are not UTF-8, as the "surrogateescape" error handler decodes them
_UNDECODABLE = re.compile("[\udc80-\udcff]")

# Lines per parsed block: bounds the record dicts held at once.
_BLOCK_LINES = 4096
_INT64 = np.iinfo(np.int64)


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
    """One row per post, in file order."""

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
    """One row per comment, in file order."""

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
    """One row per entity mention, in file order."""

    entity: np.ndarray  # position in Corpus.entities
    post: np.ndarray  # post row
    confidence: np.ndarray

    def __len__(self) -> int:
        return len(self.post)


@dataclass(frozen=True)
class Groups:
    """Rows grouped by an integer key in CSR form.

    Group ``g`` holds rows ``order[ptr[g]:ptr[g + 1]]``, in file order.
    """

    order: np.ndarray
    ptr: np.ndarray

    @classmethod
    def of(cls, key: np.ndarray, size: int) -> "Groups":
        ptr = np.zeros(size + 1, np.int64)
        np.cumsum(np.bincount(key, minlength=size), out=ptr[1:])
        return cls(order=np.argsort(key, kind="stable"), ptr=ptr)

    def rows(self, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of each group in ``groups``, concatenated, and each group's size."""
        index, count = group_positions(self.ptr, groups)
        return self.order[index], count


def group_positions(ptr: np.ndarray, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``ptr[g]`` up to ``ptr[g + 1]`` of each group in ``groups``, flattened, and their count."""
    count = np.diff(ptr)[groups]
    index = np.repeat(ptr[:-1][groups] - (np.cumsum(count) - count), count) + np.arange(count.sum())
    return index, count


@dataclass(frozen=True)
class EntitySample:
    """Entities passing a confidence/coverage filter, with their member posts.

    ``member_rows[e]`` holds the row of every post carrying a qualifying
    mention of ``e``, in post-id order; its keys run in sorted entity order,
    the order every per-entity table follows.
    """

    name: str
    member_rows: Mapping[str, np.ndarray]
    requires_comment_sentiment: bool = False

    @property
    def entities(self) -> tuple[str, ...]:
        return tuple(self.member_rows)


@dataclass(frozen=True)
class PostSample:
    """Posts containing at least one entity of an EntitySample, in post-id order.

    ``labels[i]`` is 1 when the source of post ``rows[i]`` is a fake outlet, else 0.
    """

    name: str
    rows: np.ndarray
    labels: np.ndarray


@dataclass(frozen=True)
class Corpus:
    sources: Sources
    posts: Posts
    comments: Comments
    mentions: Mentions
    users: list[str]  # sorted user ids
    entities: list[str]  # sorted entity names
    comments_of_post: Groups
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


@dataclass(frozen=True)
class CorpusPaths:
    sources: Path
    posts: Path
    comments: Path
    mentions: Path

    @classmethod
    def in_dir(cls, directory: str | Path) -> "CorpusPaths":
        d = Path(directory)
        return cls(
            sources=d / "sources.jsonl",
            posts=d / "posts.jsonl",
            comments=d / "comments.jsonl",
            mentions=d / "mentions.jsonl",
        )


# ---------------------------------------------------------------------------
# Record validator: one record at a time, raising at the first bad field.


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


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise SchemaError(f"{where}: missing field {key!r}")
    return obj[key]


def _as_str(obj: dict, key: str, where: str) -> str:
    v = _need(obj, key, where)
    if not isinstance(v, str) or not v:
        raise SchemaError(f"{where}: field {key!r} must be a non-empty string")
    return v


def _as_int64(v: int, key: str, where: str) -> int:
    if not _INT64.min <= v <= _INT64.max:
        raise SchemaError(f"{where}: field {key!r} is outside the 64-bit integer range")
    return v


def _as_count(obj: dict, key: str, where: str) -> int:
    v = _need(obj, key, where)
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise SchemaError(f"{where}: field {key!r} must be a non-negative integer")
    return _as_int64(v, key, where)


def _as_timestamp(obj: dict, key: str, where: str) -> int:
    v = _need(obj, key, where)
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{where}: field {key!r} must be integer UTC seconds")
    return _as_int64(v, key, where)


def _as_float(v: int | float) -> float:
    """A JSON number as a float; an integer too large for one becomes the infinity of its sign."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _as_sentiment(v, where: str, key: str = "sentiment") -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{where}: field {key!r} must be a number")
    v = _as_float(v)
    if not -1.0 <= v <= 1.0:
        raise SchemaError(f"{where}: field {key!r} out of range [-1, 1]: {v}")
    return v


# Each reader checks a record's fields in a fixed order, which decides the
# error reported for a record with several faults, and yields them in the
# order of the matching _*_FIELDS tuple.

_SOURCE_FIELDS = ("id", "name", "category")
_POST_FIELDS = ("id", "source_id", "timestamp", "text", "sentiment", "likes", "shares")
_COMMENT_FIELDS = ("id", "post_id", "user_id", "timestamp", "text", "sentiment", "likes", "replies")
_MENTION_FIELDS = ("entity", "post_id", "confidence")


def _source_records(path: Path) -> Iterator[tuple]:
    seen: set[str] = set()
    for lineno, obj in _iter_jsonl(path):
        where = f"{path}:{lineno}"
        sid = _as_str(obj, "id", where)
        category = _as_str(obj, "category", where)
        if category not in (OFFICIAL, FAKE):
            raise SchemaError(f"{where}: category must be 'official' or 'fake'")
        if sid in seen:
            raise IntegrityError(f"{where}: duplicate source id {sid!r}")
        seen.add(sid)
        yield sid, _as_str(obj, "name", where), category


def _post_records(path: Path) -> Iterator[tuple]:
    seen: set[str] = set()
    for lineno, obj in _iter_jsonl(path):
        where = f"{path}:{lineno}"
        pid = _as_str(obj, "id", where)
        if pid in seen:
            raise IntegrityError(f"{where}: duplicate post id {pid!r}")
        seen.add(pid)
        yield (
            pid,
            _as_str(obj, "source_id", where),
            _as_timestamp(obj, "timestamp", where),
            str(_need(obj, "text", where)),
            _as_sentiment(_need(obj, "sentiment", where), where),
            _as_count(obj, "likes", where),
            _as_count(obj, "shares", where),
        )


def _comment_records(path: Path) -> Iterator[tuple]:
    seen: set[str] = set()
    for lineno, obj in _iter_jsonl(path):
        where = f"{path}:{lineno}"
        cid = _as_str(obj, "id", where)
        if cid in seen:
            raise IntegrityError(f"{where}: duplicate comment id {cid!r}")
        seen.add(cid)
        raw_sent = _need(obj, "sentiment", where)
        yield (
            cid,
            _as_str(obj, "post_id", where),
            _as_str(obj, "user_id", where),
            _as_timestamp(obj, "timestamp", where),
            str(_need(obj, "text", where)),
            None if raw_sent is None else _as_sentiment(raw_sent, where),
            _as_count(obj, "likes", where),
            _as_count(obj, "replies", where),
        )


def _mention_records(path: Path) -> Iterator[tuple]:
    """Mentions with the entity label as written; duplicates compare normalized labels."""
    seen: set[tuple[str, str]] = set()
    for lineno, obj in _iter_jsonl(path):
        where = f"{path}:{lineno}"
        label = _as_str(obj, "entity", where)
        entity = normalize_entity(label)
        post_id = _as_str(obj, "post_id", where)
        conf = _need(obj, "confidence", where)
        if isinstance(conf, bool) or not isinstance(conf, (int, float)):
            raise SchemaError(f"{where}: field 'confidence' must be a number")
        conf = _as_float(conf)
        if not 0.0 <= conf <= 1.0:
            raise SchemaError(f"{where}: confidence out of range [0, 1]: {conf}")
        if (entity, post_id) in seen:
            raise IntegrityError(f"{where}: duplicate mention of {entity!r} in post {post_id!r}")
        seen.add((entity, post_id))
        yield label, post_id, conf


def _record_blocks(records: Iterator[tuple]) -> Iterator[list[tuple]]:
    """Validated records in blocks, one tuple of values per field."""
    while block := list(islice(records, _BLOCK_LINES)):
        yield list(zip(*block))


def _raise_dangling(paths: CorpusPaths) -> None:
    """Raise the IntegrityError listing every dangling reference, sorted."""
    source_ids = {sid for sid, *_ in _source_records(paths.sources)}
    post_ids: set[str] = set()
    dangling: list[str] = []
    for pid, source_id, *_ in _post_records(paths.posts):
        post_ids.add(pid)
        if source_id not in source_ids:
            dangling.append(f"post {pid!r} -> source {source_id!r}")
    for cid, post_id, *_ in _comment_records(paths.comments):
        if post_id not in post_ids:
            dangling.append(f"comment {cid!r} -> post {post_id!r}")
    for label, post_id, _ in _mention_records(paths.mentions):
        if post_id not in post_ids:
            dangling.append(f"mention {normalize_entity(label)!r} -> post {post_id!r}")
    raise IntegrityError("dangling references: " + "; ".join(sorted(dangling)))


# ---------------------------------------------------------------------------
# Block parser and column checks.  A failed check raises _Recheck, and the
# file is read again through the record validator above.


class _Recheck(Exception):
    """A block or column failed a check."""


def _parsed_blocks(path: Path, fields: tuple[str, ...]) -> Iterator[list[tuple]]:
    """Each block of the file as one tuple of values per field.

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
            yield columns


def _read(path: Path, fields: tuple[str, ...], records: Callable, build: Callable):
    """``build`` over the parsed blocks, or over the validated records when a check fails.

    A decode error also goes to the record validator, which reads the lines
    before it first, as a line-by-line reader would.
    """
    try:
        return build(_parsed_blocks(path, fields))
    except (_Recheck, UnicodeDecodeError):
        return build(_record_blocks(records(path)))


def _strings(values: tuple) -> tuple:
    """Non-empty strings."""
    if not set(map(type, values)) <= {str} or "" in values:
        raise _Recheck
    return values


def _texts(values: tuple) -> tuple:
    if not set(map(type, values)) <= {str}:
        raise _Recheck
    return values


def _ints(values: tuple, non_negative: bool = False) -> np.ndarray:
    if not set(map(type, values)) <= {int}:
        raise _Recheck
    try:
        out = np.array(values, np.int64)
    except OverflowError:
        raise _Recheck from None
    if non_negative and len(out) and out.min() < 0:
        raise _Recheck
    return out


def _numbers(values: tuple, lo: float, hi: float, nullable: bool = False) -> np.ndarray:
    """Floats in [lo, hi]; with ``nullable``, null becomes NaN."""
    allowed = {int, float, type(None)} if nullable else {int, float}
    if not set(map(type, values)) <= allowed:
        raise _Recheck
    try:
        out = np.array(values, float)
    except OverflowError:
        raise _Recheck from None
    outside = np.count_nonzero(~((out >= lo) & (out <= hi)))  # NaN is outside
    if outside != (values.count(None) if nullable else 0):
        raise _Recheck
    return out


def _unique(values: list) -> None:
    if len(set(values)) != len(values):
        raise _Recheck


def _refs(values: tuple, index: Mapping[str, int]) -> np.ndarray:
    """Rows of the referenced ids; -1 for an id not in ``index``."""
    return np.fromiter(map(index.get, values, repeat(-1)), np.int64, len(values))


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


def _build_sources(blocks) -> tuple[dict[str, int], Sources]:
    ids: list[str] = []
    fake = []
    for sid, name, category in blocks:
        ids += _strings(sid)
        _strings(name)
        if not set(_strings(category)) <= {OFFICIAL, FAKE}:
            raise _Recheck
        fake.append(np.array(category) == FAKE)
    _unique(ids)
    return {s: i for i, s in enumerate(ids)}, Sources(fake=_concat(fake, bool))


def _build_posts(blocks, source_index: Mapping[str, int]) -> tuple[dict[str, int], Posts]:
    ids: list[str] = []
    texts: list[str] = []
    source, timestamp, sentiment, likes, shares = [], [], [], [], []
    for pid, source_id, ts, text, sent, like, share in blocks:
        ids += _strings(pid)
        texts += _texts(text)
        source.append(_refs(_strings(source_id), source_index))
        timestamp.append(_ints(ts))
        sentiment.append(_numbers(sent, -1.0, 1.0))
        likes.append(_ints(like, non_negative=True))
        shares.append(_ints(share, non_negative=True))
    _unique(ids)
    posts = Posts(
        ids=ids, source=_concat(source, np.int64), timestamp=_concat(timestamp, np.int64),
        text=texts, sentiment=_concat(sentiment, float),
        likes=_concat(likes, np.int64), shares=_concat(shares, np.int64),
    )
    return {p: i for i, p in enumerate(ids)}, posts


def _build_comments(blocks, post_index: Mapping[str, int]) -> tuple[list[str], Comments]:
    seen: set[str] = set()
    n = 0
    texts: list[str] = []
    users = _Codes()
    post, user, sentiment, likes, replies = [], [], [], [], []
    for cid, post_id, user_id, ts, text, sent, like, reply in blocks:
        seen.update(_strings(cid))
        n += len(cid)
        _ints(ts)
        texts += _texts(text)
        post.append(_refs(_strings(post_id), post_index))
        user.append(users.encode(_strings(user_id)))
        sentiment.append(_numbers(sent, -1.0, 1.0, nullable=True))
        likes.append(_ints(like, non_negative=True))
        replies.append(_ints(reply, non_negative=True))
    if len(seen) != n:
        raise _Recheck
    names, user = users.renumbered(user)
    comments = Comments(
        post=_concat(post, np.int64), user=user, text=texts, sentiment=_concat(sentiment, float),
        likes=_concat(likes, np.int64), replies=_concat(replies, np.int64),
    )
    return names, comments


def _build_mentions(blocks, post_index: Mapping[str, int]) -> tuple[list[str], Mentions]:
    entities = _Codes()
    normalized: dict[str, str] = {}
    entity, post, confidence = [], [], []
    for label, post_id, conf in blocks:
        for raw in set(_strings(label)).difference(normalized):
            normalized[raw] = normalize_entity(raw)
        entity.append(entities.encode(tuple(map(normalized.__getitem__, label))))
        post.append(_refs(_strings(post_id), post_index))
        confidence.append(_numbers(conf, 0.0, 1.0))
    names, entity = entities.renumbered(entity)
    post = _concat(post, np.int64)
    # with a dangling post id the pairs are checked on the error path
    if post.min(initial=0) >= 0 and len(np.unique(entity * len(post_index) + post)) != len(post):
        raise _Recheck
    return names, Mentions(entity=entity, post=post, confidence=_concat(confidence, float))


def load_corpus(paths: CorpusPaths | str | Path) -> Corpus:
    """Load and validate the four JSONL files into column tables.

    Raises SchemaError with file/line coordinates for malformed records and
    IntegrityError listing every dangling reference or duplicate key.  An
    integer outside the 64-bit range is a SchemaError.
    """
    if not isinstance(paths, CorpusPaths):
        paths = CorpusPaths.in_dir(paths)
    for p in (paths.sources, paths.posts, paths.comments, paths.mentions):
        if not Path(p).exists():
            raise CorpusError(f"missing corpus file: {p}")

    source_index, sources = _read(paths.sources, _SOURCE_FIELDS, _source_records, _build_sources)
    post_index, posts = _read(
        paths.posts, _POST_FIELDS, _post_records,
        lambda blocks: _build_posts(blocks, source_index),
    )
    users, comments = _read(
        paths.comments, _COMMENT_FIELDS, _comment_records,
        lambda blocks: _build_comments(blocks, post_index),
    )
    entities, mentions = _read(
        paths.mentions, _MENTION_FIELDS, _mention_records,
        lambda blocks: _build_mentions(blocks, post_index),
    )
    if min(posts.source.min(initial=0), comments.post.min(initial=0), mentions.post.min(initial=0)) < 0:
        _raise_dangling(paths)

    return Corpus(
        sources=sources,
        posts=posts,
        comments=comments,
        mentions=mentions,
        users=users,
        entities=entities,
        comments_of_post=Groups.of(comments.post, len(posts)),
        user_comment_counts=np.bincount(comments.user, minlength=len(users)),
    )


def _id_rank(posts: Posts) -> np.ndarray:
    """Each post row's position in post-id order, the order samples keep their rows in."""
    ids = posts.ids
    rank = np.empty(len(ids), np.int64)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


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
    if not 0.0 <= min_confidence <= 1.0:
        raise ValueError(f"min_confidence out of range: {min_confidence}")
    qualifying = corpus.mentions.confidence >= min_confidence
    entity, post = corpus.mentions.entity[qualifying], corpus.mentions.post[qualifying]
    post = post[np.lexsort((_id_rank(corpus.posts)[post], entity))]
    counts = np.bincount(entity, minlength=len(corpus.entities))
    ends = np.cumsum(counts)
    member = {
        corpus.entities[code]: post[ends[code] - counts[code]:ends[code]]
        for code in np.flatnonzero((counts >= min_posts) & (counts > 0)).tolist()
    }
    return EntitySample(
        name=name or f"conf{min_confidence:g}_posts{min_posts}",
        member_rows=member,
        requires_comment_sentiment=require_comment_sentiment,
    )


def select_e1(corpus: Corpus) -> EntitySample:
    return select_entities(corpus, 0.6, 1, require_comment_sentiment=False, name="E1")


def select_e2(corpus: Corpus) -> EntitySample:
    return select_entities(corpus, 0.9, 100, require_comment_sentiment=True, name="E2")


def disputed_entities(corpus: Corpus, sample: EntitySample) -> frozenset[str]:
    """Entities with member posts in both the official and the fake category."""
    post_fake = corpus.post_is_fake()
    return frozenset(
        entity for entity, rows in sample.member_rows.items()
        if 0 < np.count_nonzero(post_fake[rows]) < len(rows)
    )


def posts_for_entities(corpus: Corpus, sample: EntitySample, name: str = "") -> PostSample:
    """All posts containing at least one entity of the sample, labeled by source."""
    if not sample.entities:
        raise ValueError("entity sample is empty")
    rows = np.unique(np.concatenate(list(sample.member_rows.values())))
    rows = rows[np.argsort(_id_rank(corpus.posts)[rows])]
    return PostSample(
        name=name or f"P[{sample.name}]",
        rows=rows,
        labels=corpus.post_is_fake()[rows].astype(np.int8),
    )
