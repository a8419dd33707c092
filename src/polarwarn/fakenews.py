"""Post-level fake-news classification over five feature categories.

Per post: structural (diffusion counts), semantic (surface text statistics
of the post and of its comments together), user-based (commenter
behavior and engagement), sentiment-based (presentation/response measures of
the contained entities) and predicted (early-warning disputed predictions).
Column names carry a category prefix (st_, sem_, ub_, sb_, pred_) so the
step experiments can slice by category.  The user-based engagement, the
sentiment-based and the predicted columns read the early warning's entity
table and predictions by entity index.

The post features are built in chunks of rows holding at most
``_CHUNK_COMMENTS`` comments, so the build's working memory beside its one
feature matrix does not grow with the number of comments.  The semantic
statistics read no text: they are formed from the integer text counts the
loader keeps per post (:mod:`textcounts`).
"""

from __future__ import annotations

import logging
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import Corpus, PostSample, group_positions
from .features import EntityTable, _div, _grouped, _grouped_std
from .evaluation import Cycles, MetricsReport, StepwiseResult, forward_stepwise, rank_reports, run_cycles
from .earlywarning import EarlyWarningResult
from .models import Dataset, ModelSpec

log = logging.getLogger(__name__)

CLASS_NAMES = {0: "not_fake", 1: "fake"}

# Comments per chunk of rows in build_post_dataset: bounds the per-comment
# arrays of one pass.  A row with more comments is a chunk of its own.
_CHUNK_COMMENTS = 2**13

SEMANTIC_STAT_NAMES = (
    "characters",
    "words",
    "sentences",
    "capital_letters",
    "punctuation_signs",
    "avg_word_length",
    "avg_sentence_length",
    "punctuation_rate",
    "capital_rate",
)


def _semantic_columns(counts: np.ndarray) -> list[np.ndarray]:
    """The SEMANTIC_STAT_NAMES statistics of rows of text counts (textcounts.COUNT_NAMES).

    The average word length is in characters and the average sentence length
    in words; the rates divide by the character count.  All-zero counts, as
    of an empty text, give all zeros.
    """
    chars, words, word_chars, sentences, capitals, punctuation = counts.T.astype(float)
    return [
        chars,
        words,
        sentences,
        capitals,
        punctuation,
        _div(word_chars, words),
        _div(words, sentences),
        _div(punctuation, chars),
        _div(capitals, chars),
    ]


STRUCTURAL_NAMES = (
    "likes",
    "comments",
    "shares",
    "likes_on_comments",
    "comments_on_comments",
    "avg_likes_on_comments",
    "avg_comments_on_comments",
)

USER_STAT_NAMES = (
    "comments_to_commenters_avg",
    "comments_to_commenters_std",
    "likes_to_commenters_avg",
    "likes_to_commenters_std",
    "mean_std_likes_to_commenters",
    "mean_std_comments_to_commenters",
    "comments_per_user_avg",
    "comments_per_user_std",
    "pages_per_user_avg",
    "pages_per_user_std",
    "engaged_users",
    "engaged_users_rate",
)

SENTIMENT_BASE_NAMES = ("post_sentiment", "presentation_dist_mean", "presentation_dist_std")
SENTIMENT_COMMENT_NAMES = (
    "comment_sent_avg",
    "comment_sent_std",
    "rate_positive_comments",
    "rate_negative_comments",
    "pos_over_neg_comments",
    "n_captivating_entities",
    "rate_captivating_entities",
    "response_dist_avg",
)

CATEGORY_PREFIXES = {
    "ST": "st_",
    "S": "sem_",
    "UB": "ub_",
    "SB": "sb_",
    "P": "pred_",
}


def _named(prefix: str, names: Sequence[str], columns: Iterable[np.ndarray]) -> dict[str, np.ndarray]:
    """``prefix + name`` -> column, for one name per column."""
    return {prefix + name: column for name, column in zip(names, columns, strict=True)}


def build_post_dataset(corpus: Corpus, post_sample: PostSample, warning: EarlyWarningResult) -> Dataset:
    """Full per-post feature matrix, labeled fake/not-fake by source category.

    ``warning`` is the finished early warning of the entity sample whose
    posts ``post_sample`` holds; the sentiment-based, user-based and
    predicted columns read its entity table and predictions by entity index.

    Each block of columns is named where it is built, with its category
    prefix (``st_``, ``sem_post_``, ``sem_comments_``, ``ub_``, ``sb_``,
    ``pred_``), and ``feature_names`` is the order of that one mapping.
    P1-style builds (no comment sentiment in the entity sample) omit the
    comment-dependent sentiment block, giving 44 columns; P2-style builds
    carry all 52.

    The rows, in ``post_sample`` order, which is post-id order, are built in
    consecutive chunks of at most ``_CHUNK_COMMENTS`` comments (a row with
    more is a chunk of its own), and each chunk's columns are written into
    one preallocated matrix.  So the working memory beside the matrix is
    bounded by the budget and the largest post, not by the comment count.
    Every value is a function of its own row, so the chunking does not
    change any of them.

    The semantic statistics come from the loader's integer text counts
    (:mod:`textcounts`): ``sem_post_*`` from the post's own text, and
    ``sem_comments_*`` from the sums of its comments' counts, so they do not
    depend on the order of the comments.  There ``characters`` counts each
    comment's characters once its surrounding whitespace is stripped, with
    nothing between comments, and ``sentences`` adds each comment's own
    sentences, so a comment's first word starts a sentence even when the
    comment before it ends without a terminator.

    Every other block is computed column-wise from one table of a chunk's
    comments, read as they are stored: each post's comments in file order.
    Per-post values group the table by post and by (post, commenter),
    commenters in id order.  User-based features describe each post's
    commenters: the replies and likes they received there, their comment
    counts, the pages they commented on corpus-wide, and whether they are
    engaged with an entity of the post, as :meth:`EntityTable.engaged` tells
    over all of that entity's member posts, rows or not.  Memberships of
    posts that are not rows are dropped.  Float sums are
    :func:`features._grouped`'s, left to right in that order on every
    Python version.
    """
    sample, table = warning.sample, warning.features
    rows = post_sample.rows
    n = len(rows)

    # Sample entities of each row, sorted by (row, entity) with CSR offsets
    # `ptr`; `row_of` maps a post to its row index, -1 for other posts.
    row_of = np.full(len(corpus.posts), -1)
    row_of[rows] = np.arange(n)
    row_post = row_of[sample.rows]
    kept = row_post >= 0
    row_post, row_entity = row_post[kept], sample.entity[kept]
    by = np.lexsort((row_entity, row_post))
    row_post, row_entity = row_post[by], row_entity[by]
    ptr = np.concatenate([[0], np.cumsum(np.bincount(row_post, minlength=n))])

    disputed = np.zeros((2, len(table)))
    disputed[:, table.complete(warning.dataset.feature_names)] = warning.predictions[0] == 1
    comment_ptr = np.concatenate([[0], np.cumsum(np.diff(corpus.comment_offsets)[rows])])
    features = names = None
    for lo, hi in _chunks(comment_ptr):
        at = slice(ptr[lo], ptr[hi])
        columns = _chunk_columns(corpus, warning, disputed, rows[lo:hi], ptr[lo:hi + 1] - ptr[lo],
                                 row_post[at] - lo, row_entity[at])
        if features is None:
            names = tuple(columns)
            features = np.empty((n, len(names)))
        for j, column in enumerate(columns.values()):
            features[lo:hi, j] = column
    log.debug("post features: %d rows x %d columns, %d comments scanned", n, len(names), comment_ptr[-1])
    return Dataset(
        features=features,
        labels=post_sample.labels,
        feature_names=names,
        row_ids=tuple(map(corpus.posts.ids.__getitem__, rows.tolist())),
    )


def _chunks(comment_ptr: np.ndarray) -> Iterator[tuple[int, int]]:
    """Row bounds ``(lo, hi)`` of consecutive chunks of at most _CHUNK_COMMENTS comments.

    ``comment_ptr`` holds the rows' CSR comment offsets.  A row with more
    comments is a chunk of its own; no rows make one empty chunk.
    """
    n, lo = len(comment_ptr) - 1, 0
    while True:
        hi = int(np.searchsorted(comment_ptr, comment_ptr[lo] + _CHUNK_COMMENTS, side="right")) - 1
        hi = min(max(hi, lo + 1), n)
        yield lo, hi
        if hi == n:
            return
        lo = hi


def _chunk_columns(
    corpus: Corpus,
    warning: EarlyWarningResult,
    disputed: np.ndarray,
    rows: np.ndarray,
    ptr: np.ndarray,
    row_post: np.ndarray,
    row_entity: np.ndarray,
) -> dict[str, np.ndarray]:
    """Every column of the rows ``rows``, by name in column order.

    Their sample entities are ``row_entity``, at rows ``row_post`` sorted by
    (row, entity) with CSR offsets ``ptr``; ``disputed`` is what
    :func:`_predicted_columns` reads.
    """
    table = warning.features
    n = len(rows)
    row_n_entities = np.diff(ptr).astype(float)
    comments, n_comments = group_positions(corpus.comment_offsets, rows)
    post = np.repeat(np.arange(n), n_comments)
    user = corpus.comments.user[comments]
    likes = corpus.comments.likes[comments].astype(float)
    replies = corpus.comments.replies[comments].astype(float)
    return {
        **_structural_columns(corpus, rows, post, likes, replies),
        **_named("sem_post_", SEMANTIC_STAT_NAMES, _semantic_columns(corpus.posts.text_counts[rows])),
        **_named("sem_comments_", SEMANTIC_STAT_NAMES, _semantic_columns(corpus.comment_text_counts[rows])),
        **_user_columns(corpus, table, post, user, likes, replies, ptr, row_entity, n),
        **_sentiment_columns(
            corpus, rows, comments, post, row_post, row_entity, row_n_entities, table,
            warning.sample.requires_comment_sentiment,
        ),
        **_predicted_columns(row_post, row_entity, row_n_entities, warning.best, disputed),
    }


def _structural_columns(
    corpus: Corpus,
    rows: np.ndarray,
    on_row: np.ndarray,
    likes: np.ndarray,
    replies: np.ndarray,
) -> dict[str, np.ndarray]:
    n_comments, likes_on, likes_avg = _grouped(on_row, likes, len(rows))
    _, replies_on, replies_avg = _grouped(on_row, replies, len(rows))
    return _named("st_", STRUCTURAL_NAMES, [
        corpus.posts.likes[rows].astype(float),
        n_comments.astype(float),
        corpus.posts.shares[rows].astype(float),
        likes_on,
        replies_on,
        likes_avg,
        replies_avg,
    ])


def _user_columns(
    corpus: Corpus,
    table: EntityTable,
    post: np.ndarray,
    user: np.ndarray,
    likes: np.ndarray,
    replies: np.ndarray,
    ptr: np.ndarray,
    row_entity: np.ndarray,
    n: int,
) -> dict[str, np.ndarray]:
    # (post, commenter) groups of the rows' comments: commenters in id order
    # within a post; bincount adds each group's comments in table order.
    n_users = len(corpus.users)
    pairs, group = np.unique(post * n_users + user, return_inverse=True)
    g_post, g_user = pairs // n_users, pairs % n_users
    size = len(pairs)
    g_comments, g_replies, _, g_replies_std = _grouped_std(group, replies, size)
    _, g_likes, _, g_likes_std = _grouped_std(group, likes, size)
    index, count = group_positions(ptr, g_post)
    hit = table.engaged(np.repeat(g_user, count), row_entity[index])
    g_engaged = np.bincount(np.repeat(np.arange(size), count)[hit], minlength=size) > 0

    commenters, _, r_avg, r_std = _grouped_std(g_post, g_replies, n)
    _, _, l_avg, l_std = _grouped_std(g_post, g_likes, n)
    _, _, l_std_avg = _grouped(g_post, g_likes_std, n)
    _, _, r_std_avg = _grouped(g_post, g_replies_std, n)
    _, _, c_avg, c_std = _grouped_std(g_post, g_comments.astype(float), n)
    _, _, p_avg, p_std = _grouped_std(g_post, corpus.user_pages[g_user].astype(float), n)
    n_engaged = np.bincount(g_post[g_engaged], minlength=n).astype(float)
    return _named("ub_", USER_STAT_NAMES, [
        r_avg,
        r_std,
        l_avg,
        l_std,
        l_std_avg,
        r_std_avg,
        c_avg,
        c_std,
        p_avg,
        p_std,
        n_engaged,
        _div(n_engaged, commenters),
    ])


def _sentiment_columns(
    corpus: Corpus,
    rows: np.ndarray,
    comments: np.ndarray,
    on_row: np.ndarray,
    row_post: np.ndarray,
    row_entity: np.ndarray,
    row_n_entities: np.ndarray,
    table: EntityTable,
    include_comment_sentiment: bool,
) -> dict[str, np.ndarray]:
    """Sentiment-based features; the comment-dependent block only for P2-style builds."""
    n = len(rows)
    _, _, dp_mean, dp_std = _grouped_std(row_post, table.columns["presentation_distance"][row_entity], n)
    columns = _named("sb_", SENTIMENT_BASE_NAMES, [corpus.posts.sentiment[rows], dp_mean, dp_std])
    if not include_comment_sentiment:
        return columns
    sentiment = corpus.comments.sentiment[comments]
    scored = ~np.isnan(sentiment)
    at, sentiment = on_row[scored], sentiment[scored]
    n_scored, _, s_avg, s_std = _grouped_std(at, sentiment, n)
    n_pos = np.bincount(at[sentiment > 0], minlength=n).astype(float)
    n_neg = np.bincount(at[sentiment < 0], minlength=n).astype(float)
    captivating = (table.columns["captivation"] == 1).astype(float)
    n_capt = np.bincount(row_post, weights=captivating[row_entity], minlength=n)
    response = table.columns["response_dist_global"][row_entity]
    has_response = ~np.isnan(response)
    _, _, response_avg = _grouped(row_post[has_response], response[has_response], n)
    return columns | _named("sb_", SENTIMENT_COMMENT_NAMES, [
        s_avg,
        s_std,
        _div(n_pos, n_scored),
        _div(n_neg, n_scored),
        n_pos / np.maximum(1.0, n_neg),
        n_capt,
        _div(n_capt, row_n_entities),
        response_avg,
    ])


def _predicted_columns(
    row_post: np.ndarray,
    row_entity: np.ndarray,
    row_n_entities: np.ndarray,
    best: Sequence[str],
    disputed: np.ndarray,
) -> dict[str, np.ndarray]:
    """Counts and rates of contained entities predicted disputed, per model.

    ``disputed`` holds one 0/1 flag per sample entity for each model of
    ``best``; an entity without a row in the early warning's dataset counts
    as not predicted disputed.
    """
    n = len(row_n_entities)
    columns = {}
    for algo, flags in zip(best, disputed, strict=True):
        count = np.bincount(row_post, weights=flags[row_entity], minlength=n)
        columns[f"pred_n_disputed_{algo}"] = count
        columns[f"pred_rate_disputed_{algo}"] = _div(count, row_n_entities)
    return columns


def subset_by_categories(dataset: Dataset, categories: Sequence[str]) -> list[str]:
    """The names of the columns of ``categories``, in dataset order."""
    prefixes = tuple(CATEGORY_PREFIXES[c] for c in categories)
    return [n for n in dataset.feature_names if n.startswith(prefixes)]


# A step names the categories it holds, joined by "+".
EXPERIMENT_STEPS = {
    "A": ("ST", "ST+S", "ST+UB", "ST+SB", "ST+P"),
    "B": ("ST", "ST+S", "ST+S+UB", "ST+S+UB+SB", "ST+S+UB+SB+P"),
}
# Every category: every column, in dataset order.
FULL_SET = "+".join(CATEGORY_PREFIXES)


def run_experiment(
    dataset: Dataset,
    modes: Sequence[str],
    specs: list[ModelSpec],
    cycles: Cycles,
) -> dict[str, dict[str, MetricsReport]]:
    """Each spec's report on each distinct step of the experiments ``modes``
    (any case) and on FULL_SET, each evaluated once on the cycles' rows of
    just its columns: step -> algorithm -> report."""
    table = {}
    for step in dict.fromkeys([*(s for m in modes for s in EXPERIMENT_STEPS[m.upper()]), FULL_SET]):
        names = subset_by_categories(dataset, step.split("+"))
        table[step] = {spec.algorithm: run_cycles(dataset, spec, cycles, names) for spec in specs}
    return table


def final_report(
    dataset: Dataset,
    reports: dict[str, MetricsReport],
    specs: list[ModelSpec],
    cycles: Cycles,
    max_features: int,
) -> StepwiseResult:
    """The stepwise best-feature ranking of the algorithm whose full-set report ranks first."""
    best_algo = rank_reports(reports)[0]
    best_spec = next(s for s in specs if s.algorithm == best_algo)
    return forward_stepwise(
        dataset, best_spec, min(max_features, len(dataset.feature_names)), cycles
    )
