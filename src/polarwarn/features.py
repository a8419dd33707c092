"""Entity-level polarization measures and the derived analysis curves.

Measures per entity: sentiment spread across the posts that present it
(presentation distance), the gap between how it is presented and how users
respond in comments (response distance), and the fraction of its audience
that is devoted to it (engaged fraction).  Binary indicators (controversy,
perception, captivation) follow once data-driven thresholds are known.

:func:`engagement` is the one place that decides which users are engaged
with which sample entity; the engaged fraction here and the
``ub_engaged_users*`` post features both read its table.

All functions are pure with respect to an immutable corpus; "negative"
always means sentiment strictly below zero, and standard deviations use the
population form (divide by n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, EntitySample, disputed_entities


def _population_std(values: Sequence[float], mean: float) -> float:
    n = len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / n)


def _scored_comments(corpus: Corpus, rows: np.ndarray) -> tuple[int, list[float], list[int]]:
    """Comments on the posts ``rows``: their count, the scored sentiments, and how many of those each post has.

    The sentiments run post by post, each post's comments in file order.
    """
    comments, count = corpus.comments_of_post.rows(rows)
    sentiment = corpus.comments.sentiment[comments]
    scored = ~np.isnan(sentiment)
    per_post = np.bincount(np.repeat(np.arange(len(rows)), count)[scored], minlength=len(rows))
    return len(comments), sentiment[scored].tolist(), per_post.tolist()


def _response_distances(
    post_sentiments: list[float], scored: list[float], per_post: list[int]
) -> list[float]:
    """r(p) = abs(post sentiment - mean comment sentiment of p), over posts with scored comments."""
    distances: list[float] = []
    start = 0
    for sentiment, k in zip(post_sentiments, per_post):
        if k:
            comments = scored[start:start + k]
            distances.append(abs(sentiment - sum(comments) / len(comments)))
            start += k
    return distances


def engagement(corpus: Corpus, sample: EntitySample) -> tuple[np.ndarray, np.ndarray]:
    """The engaged-user table of an entity sample, as ``(keys, engaged)``.

    ``keys`` holds, sorted, ``user * len(sample.entities) + e`` for each
    user with a comment on a member post of entity ``e`` (its index in
    ``sample.entities``).  ``engaged`` is True where strictly more than 95%
    of all that user's corpus-wide comments sit on ``e``'s member posts.
    """
    members = [sample.member_rows[e] for e in sample.entities]
    comments, count = corpus.comments_of_post.rows(np.concatenate([np.zeros(0, np.int64), *members]))
    entity = np.repeat(np.arange(len(members)), [len(r) for r in members])
    keys, on_entity = np.unique(
        corpus.comments.user[comments] * len(members) + np.repeat(entity, count), return_counts=True
    )
    return keys, on_entity > 0.95 * corpus.user_comment_counts[keys // len(members)]


@dataclass
class EntityFeatures:
    """Every measure of one entity over its member posts.

    ``response_dist_global`` is the absolute gap between the mean post
    sentiment and the mean of all scored comments on the member posts; the
    other ``response_dist_*`` fields aggregate r(p) over member posts with
    at least one scored comment.
    """

    entity: str
    occurrences: int
    post_sent_min: float
    post_sent_max: float
    post_sent_mean: float
    post_sent_std: float
    presentation_distance: float
    n_negative_posts: int
    engaged_fraction: float
    disputed: int
    comments_count: int = 0
    n_negative_comments: int = 0
    comment_sent_min: float | None = None
    comment_sent_max: float | None = None
    comment_sent_mean: float | None = None
    comment_sent_std: float | None = None
    response_dist_min: float | None = None
    response_dist_max: float | None = None
    response_dist_mean: float | None = None
    response_dist_std: float | None = None
    response_dist_global: float | None = None
    controversy: int | None = None
    perception: int | None = None
    captivation: int | None = None
    missing: tuple[str, ...] = ()


def entity_features(
    corpus: Corpus,
    sample: EntitySample,
    disputed: frozenset[str] | None = None,
) -> list[EntityFeatures]:
    """Compute the full per-entity feature record for every sample entity.

    Comment-dependent fields stay None (and the record is flagged) when an
    entity has no sentiment-scored comments; the batch never aborts.  The
    indicators stay None: ``earlywarning.fill_indicators`` sets them once
    the thresholds are known.
    """
    if disputed is None:
        disputed = disputed_entities(corpus, sample)
    keys, engaged = engagement(corpus, sample)
    n = len(sample.entities)
    commenters = np.bincount(keys % n, minlength=n).tolist()
    devoted = np.bincount(keys[engaged] % n, minlength=n).tolist()

    out: list[EntityFeatures] = []
    for e, entity in enumerate(sample.entities):
        rows = sample.member_rows[entity]
        sentiments = corpus.posts.sentiment[rows].tolist()
        mean = sum(sentiments) / len(sentiments)
        feat = EntityFeatures(
            entity=entity,
            occurrences=len(sentiments),
            post_sent_min=min(sentiments),
            post_sent_max=max(sentiments),
            post_sent_mean=mean,
            post_sent_std=_population_std(sentiments, mean),
            presentation_distance=max(sentiments) - min(sentiments),
            n_negative_posts=sum(1 for s in sentiments if s < 0),
            engaged_fraction=devoted[e] / commenters[e] if commenters[e] else 0.0,
            disputed=1 if entity in disputed else 0,
        )

        feat.comments_count, scored, per_post = _scored_comments(corpus, rows)
        missing: list[str] = []
        if scored:
            cmean = sum(scored) / len(scored)
            feat.comment_sent_min = min(scored)
            feat.comment_sent_max = max(scored)
            feat.comment_sent_mean = cmean
            feat.comment_sent_std = _population_std(scored, cmean)
            feat.n_negative_comments = sum(1 for s in scored if s < 0)
            distances = _response_distances(sentiments, scored, per_post)
            rmean = sum(distances) / len(distances)
            feat.response_dist_min = min(distances)
            feat.response_dist_max = max(distances)
            feat.response_dist_mean = rmean
            feat.response_dist_std = _population_std(distances, rmean)
            feat.response_dist_global = abs(mean - cmean)
        else:
            missing.append("comment_sentiment")

        feat.missing = tuple(missing)
        out.append(feat)
    return out


def attention_curve(
    corpus: Corpus,
    sample: EntitySample,
    features: Iterable[EntityFeatures],
    grid: Sequence[float],
) -> list[tuple[float, float, float]]:
    """Mean likes and comment counts of posts whose entities spread past each cut.

    For every grid value the post set is the union of member posts over
    entities with presentation distance >= the cut; an empty set yields zeros.
    """
    grid = list(grid)
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be ascending")
    dp = [(f.presentation_distance, sample.member_rows[f.entity]) for f in features]
    n_comments = np.diff(corpus.comments_of_post.ptr)
    rows = []
    for delta in grid:
        posts = np.zeros(len(corpus.posts), bool)
        for value, members in dp:
            if value >= delta:
                posts[members] = True
        n = int(np.count_nonzero(posts))
        if n:
            rows.append((delta, sum(corpus.posts.likes[posts].tolist()) / n,
                         sum(n_comments[posts].tolist()) / n))
        else:
            rows.append((delta, 0.0, 0.0))
    return rows


@dataclass(frozen=True)
class Histogram:
    """Bin edges plus area-normalized densities; ``empty`` marks a void class."""

    edges: tuple[float, ...]
    density: tuple[float, ...]
    n: int
    empty: bool = False

    def area(self) -> float:
        return sum(
            d * (b - a) for d, a, b in zip(self.density, self.edges, self.edges[1:])
        )


def response_distribution(
    features: Iterable[EntityFeatures],
    controversial: bool,
    disputed: bool,
    bins: int = 20,
    value_range: tuple[float, float] = (0.0, 2.0),
) -> Histogram:
    """Area-1 histogram of the mean response distance for one C/UC x D/UD class."""
    want_c = 1 if controversial else 0
    want_d = 1 if disputed else 0
    values = [
        f.response_dist_mean
        for f in features
        if f.controversy == want_c and f.disputed == want_d and f.response_dist_mean is not None
    ]
    lo, hi = value_range
    edges = tuple(lo + (hi - lo) * i / bins for i in range(bins + 1))
    if not values:
        return Histogram(edges=edges, density=(0.0,) * bins, n=0, empty=True)
    counts = [0] * bins
    for v in values:
        idx = min(int((v - lo) / (hi - lo) * bins), bins - 1)
        counts[max(idx, 0)] += 1
    width = (hi - lo) / bins
    density = tuple(c / (len(values) * width) for c in counts)
    return Histogram(edges=edges, density=density, n=len(values))


@dataclass(frozen=True)
class LagHistogram:
    """Official-to-fake first-appearance lags, binned in hours."""

    edges_hours: tuple[float, ...]
    counts: tuple[int, ...]
    lags_hours: tuple[float, ...]
    never_fake: int
    fake_first: int


def temporal_lag_histogram(
    corpus: Corpus,
    sample: EntitySample,
    bin_hours: float = 1.0,
) -> LagHistogram:
    """Lag between an entity's first official post and its first fake post.

    Entities never reaching a fake source, or reaching it first (or at the
    same instant), are excluded from the histogram and tallied separately.
    """
    if bin_hours <= 0:
        raise ValueError("bin_hours must be positive")
    post_fake = corpus.post_is_fake()
    lags: list[float] = []
    never_fake = 0
    fake_first = 0
    for rows in sample.member_rows.values():
        fake = post_fake[rows]
        fake_ts, official_ts = corpus.posts.timestamp[rows[fake]], corpus.posts.timestamp[rows[~fake]]
        if not len(fake_ts):
            never_fake += 1
            continue
        if not len(official_ts) or fake_ts.min() <= official_ts.min():
            fake_first += 1
            continue
        lags.append((int(fake_ts.min()) - int(official_ts.min())) / 3600.0)
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
        never_fake=never_fake,
        fake_first=fake_first,
    )
