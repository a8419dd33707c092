"""Entity-level polarization measures and the derived analysis curves.

Measures per entity: sentiment spread across the posts that present it
(presentation distance), the gap between how it is presented and how users
respond in comments (response distance), and the fraction of its audience
that is devoted to it (engaged fraction).  Binary indicators (controversy,
perception, captivation) follow once data-driven thresholds are known.

:func:`entity_features` returns every measure of a sample's entities as
one :class:`EntityTable`, a column per measure aligned with
``sample.entities``; every later stage reads its columns by entity index.
It is also the one place that decides which users are engaged with which
sample entity: the engaged fraction here and the ``ub_engaged_users*`` post
features (through :meth:`EntityTable.engaged`) read one table.

All functions are pure with respect to an immutable corpus; "negative"
always means sentiment strictly below zero, and standard deviations use the
population form (divide by n).

Every per-entity value is computed over the sample's membership table with
:func:`_grouped`, the kernel :mod:`fakenews` uses too, and the one place a
group's non-integer values are summed.  Its sums add left to right on every
Python version, as the built-in ``sum`` does before Python 3.12 and not from
3.12 on, where it compensates: a per-entity ``sum`` loop gives the same bits
on 3.10 and 3.11, and on 3.12+ float columns can differ from it in the last
bit.  :func:`_grouped_std` squares by multiplication and roots with ``np.sqrt``,
which IEEE 754 rounds correctly, so no value depends on the C library's ``pow``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, EntitySample, disputed_entities, group_positions
from .errors import ConfigError
from .thresholds import MEASURES


def _div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, and 0.0 where den is 0."""
    return np.divide(num, den, out=np.zeros(len(num)), where=den > 0)


def _grouped(group: np.ndarray, values: np.ndarray, size: int) -> tuple[np.ndarray, ...]:
    """Per-group count, sum and mean of ``values``; 0 for empty groups.

    The one place a group's non-integer values are summed, in array order, as
    a left-to-right scalar ``sum`` does.
    """
    counts = np.bincount(group, minlength=size)
    total = np.bincount(group, weights=values, minlength=size)
    return counts, total, _div(total, counts)


def _grouped_std(group: np.ndarray, values: np.ndarray, size: int) -> tuple[np.ndarray, ...]:
    """:func:`_grouped`'s values and the population std, the root of the mean of each ``d * d``."""
    counts, total, mean = _grouped(group, values, size)
    d = values - mean[group]
    d *= d
    return counts, total, mean, np.sqrt(_div(np.bincount(group, weights=d, minlength=size), counts))


def _summary(prefix: str, group: np.ndarray, values: np.ndarray, size: int) -> dict[str, np.ndarray]:
    """Per-group ``<prefix>_min``, ``_max``, ``_mean`` and ``_std`` of ``values``; 0 for empty groups.

    ``group`` must be sorted; the mean and std are :func:`_grouped_std`'s.  A
    zero min or max is the group's first zero, 0.0 or -0.0, as Python's
    ``min`` and ``max`` keep the first of equal values; which one
    ``np.minimum`` keeps is not defined.
    """
    counts, _, mean, std = _grouped_std(group, values, size)
    present = counts > 0
    starts = (np.cumsum(counts) - counts)[present]
    zero = np.flatnonzero(values == 0)
    with_zero, first = np.unique(group[zero], return_index=True)
    first_zero = np.zeros(size)
    first_zero[with_zero] = values[zero[first]]
    lo, hi = np.zeros(size), np.zeros(size)
    lo[present] = np.minimum.reduceat(values, starts)
    hi[present] = np.maximum.reduceat(values, starts)
    lo, hi = (np.where(x == 0, first_zero, x) for x in (lo, hi))
    return {f"{prefix}_min": lo, f"{prefix}_max": hi, f"{prefix}_mean": mean, f"{prefix}_std": std}


@dataclass(frozen=True)
class EntityTable:
    """Every measure of a sample's entities, one array per column, aligned with ``sample.entities``.

    ``columns`` runs in ``features.csv`` order.  A value that does not
    exist is NaN: each comment-dependent column of an entity without scored
    comments (``comment_sent_mean`` is NaN), and an indicator before its cut is
    set.  ``response_dist_global`` is the absolute gap between the mean
    post sentiment and the mean of all scored comments on the member posts;
    the other ``response_dist_*`` columns aggregate r(p) over member posts
    with at least one scored comment.

    ``engagement`` is the engaged-user table :meth:`engaged` reads, keyed in a
    format internal to this module.  A user is engaged with entity ``e`` when
    strictly more than 95% of all the user's comments sit on ``e``'s member posts.
    """

    entities: tuple[str, ...]
    columns: dict[str, np.ndarray]
    engagement: tuple[np.ndarray, np.ndarray]

    def __len__(self) -> int:
        return len(self.entities)

    def engaged(self, user: np.ndarray, entity: np.ndarray) -> np.ndarray:
        """Per pair, whether ``user`` is engaged with sample entity ``entity``.

        Each user must have commented on a member post of its entity.
        """
        keys, engaged = self.engagement
        return engaged[np.searchsorted(keys, user * len(self) + entity)]

    def complete(self, names: Iterable[str]) -> np.ndarray:
        """True for each entity with a value in every column of ``names``."""
        return ~np.isnan(np.column_stack([self.columns[c] for c in names])).any(axis=1)


def entity_features(corpus: Corpus, sample: EntitySample) -> EntityTable:
    """Every measure of every sample entity, as one column table.

    The comment-dependent columns of an entity without sentiment-scored
    comments are NaN; the batch never aborts.  The indicators are NaN too:
    ``earlywarning.with_indicators`` sets them once the thresholds are known.
    """
    n, m = len(sample.entities), len(sample.rows)
    sentiment = corpus.posts.sentiment[sample.rows]

    # the comments, by membership, each post's in file order; arrays no
    # statistic reads are freed before the kernels run, to lower peak memory
    comments, count = group_positions(corpus.comment_offsets, sample.rows)
    keys, on_entity = np.unique(
        corpus.comments.user[comments] * n + np.repeat(sample.entity, count), return_counts=True
    )
    engaged = on_entity > 0.95 * corpus.user_comment_counts[keys // n]
    del on_entity
    comment_sentiment = corpus.comments.sentiment[comments]
    scored = ~np.isnan(comment_sentiment)
    comment_sentiment = comment_sentiment[scored]
    per_post, _, comment_means = _grouped(np.repeat(np.arange(m), count)[scored], comment_sentiment, m)
    del comments, scored
    commented = np.repeat(sample.entity, per_post)
    has_comments = np.bincount(commented, minlength=n) > 0

    # r(p) = abs(post sentiment - mean comment sentiment of p), over the
    # memberships with scored comments
    answered = per_post > 0
    response = np.abs(sentiment - comment_means)[answered]

    post = _summary("post_sent", sample.entity, sentiment, n)
    comment = _summary("comment_sent", commented, comment_sentiment, n)
    comment_columns = {
        **comment,
        **_summary("response_dist", sample.entity[answered], response, n),
        "response_dist_global": np.abs(post["post_sent_mean"] - comment["comment_sent_mean"]),
    }
    return EntityTable(
        entities=sample.entities,
        columns={
            "occurrences": np.bincount(sample.entity, minlength=n),
            **post,
            "presentation_distance": post["post_sent_max"] - post["post_sent_min"],
            "n_negative_posts": np.bincount(sample.entity[sentiment < 0], minlength=n),
            "engaged_fraction": _div(np.bincount(keys[engaged] % n, minlength=n),
                                     np.bincount(keys % n, minlength=n)),
            "disputed": disputed_entities(corpus, sample).astype(np.int8),
            "comments_count": np.bincount(sample.entity, weights=count, minlength=n).astype(np.int64),
            "n_negative_comments": np.bincount(commented[comment_sentiment < 0], minlength=n),
            **{name: np.where(has_comments, column, np.nan) for name, column in comment_columns.items()},
            **{row.indicator: np.full(n, np.nan) for row in MEASURES.values()},
        },
        engagement=(keys, engaged),
    )


def attention_curve(
    corpus: Corpus,
    sample: EntitySample,
    table: EntityTable,
    grid: Sequence[float],
) -> list[tuple[float, float, float]]:
    """Mean likes and comment counts of posts whose entities spread past each cut.

    For every grid value the post set is the union of member posts over
    entities with presentation distance >= the cut; an empty set yields zeros.
    """
    # each post's widest presentation distance over its sample entities;
    # NaN, which no cut reaches, for a post with none
    widest = np.full(len(corpus.posts), math.nan)
    np.fmax.at(widest, sample.rows, table.columns["presentation_distance"][sample.entity])
    n_comments = np.diff(corpus.comment_offsets)
    rows = []
    for delta in grid:
        posts = widest >= delta
        n = int(np.count_nonzero(posts))
        if n:
            rows.append((delta, sum(corpus.posts.likes[posts].tolist()) / n,
                         sum(n_comments[posts].tolist()) / n))
        else:
            rows.append((delta, 0.0, 0.0))
    return rows


# response_distribution's bins over the mean response distance
_RESPONSE_BINS = 20
_RESPONSE_RANGE = (0.0, 2.0)


@dataclass(frozen=True)
class Histogram:
    """Bin edges plus area-normalized densities, all zero for a void class."""

    edges: tuple[float, ...]
    density: tuple[float, ...]


def response_distribution(table: EntityTable, controversial: bool, disputed: bool) -> Histogram:
    """Area-1 histogram of the mean response distance for one C/UC x D/UD class."""
    c = table.columns
    mean = c["response_dist_mean"]
    values = mean[(c["controversy"] == int(controversial)) & (c["disputed"] == int(disputed))
                  & ~np.isnan(mean)].tolist()
    lo, hi = _RESPONSE_RANGE
    bins = _RESPONSE_BINS
    edges = tuple(lo + (hi - lo) * i / bins for i in range(bins + 1))
    if not values:
        return Histogram(edges=edges, density=(0.0,) * bins)
    counts = [0] * bins
    for v in values:
        idx = min(int((v - lo) / (hi - lo) * bins), bins - 1)
        counts[max(idx, 0)] += 1
    width = (hi - lo) / bins
    density = tuple(c / (len(values) * width) for c in counts)
    return Histogram(edges=edges, density=density)


@dataclass(frozen=True)
class LagHistogram:
    """Official-to-fake first-appearance lags, binned in hours."""

    edges_hours: tuple[float, ...]
    counts: tuple[int, ...]
    lags_hours: tuple[float, ...]


def temporal_lag_histogram(
    corpus: Corpus,
    sample: EntitySample,
    bin_hours: float = 1.0,
) -> LagHistogram:
    """Lag between an entity's first official post and its first fake post.

    Entities never reaching a fake source, or reaching it first (or at the
    same instant), are excluded from the histogram.  Timestamps are whole
    seconds, so a bin narrower than one second (1/3600 h) is refused: it
    would only add empty bins, one list entry and one edge each.
    """
    if not 0 < bin_hours < math.inf:
        raise ConfigError(f"bin_hours must be a finite number > 0, got {bin_hours}")
    if bin_hours < 1 / 3600:
        raise ConfigError(f"bin_hours must be at least 1/3600 (one second), got {bin_hours}")
    n = len(sample.entities)
    fake = corpus.post_is_fake()[sample.rows]
    # each entity's first official (row 0) and first fake (row 1) timestamp
    first = np.full((2, n), np.iinfo(np.int64).max)
    np.minimum.at(first, (fake.astype(np.intp), sample.entity), corpus.posts.timestamp[sample.rows])
    lagged = (np.bincount(sample.entity[fake], minlength=n) > 0) & (first[1] > first[0])
    lags = [(f - o) / 3600.0 for o, f in zip(*first[:, lagged].tolist())]
    if lags:
        n_bins = max(1, math.ceil(max(lags) / bin_hours))
    else:
        n_bins = 1
    counts = [0] * n_bins
    for lag in lags:
        counts[min(int(lag / bin_hours), n_bins - 1)] += 1
    edges = tuple(i * bin_hours for i in range(n_bins + 1))
    return LagHistogram(
        edges_hours=edges,
        counts=tuple(counts),
        lags_hours=tuple(lags),
    )
