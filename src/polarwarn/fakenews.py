"""Post-level fake-news classification over five feature categories.

Per post: structural (diffusion counts), semantic (surface text statistics
of the post and of its concatenated comments), user-based (commenter
behavior and engagement), sentiment-based (presentation/response measures of
the contained entities) and predicted (early-warning disputed predictions).
Column names carry a category prefix (st_, sem_, ub_, sb_, pred_) so the
step experiments can slice by category.  The user-based engagement, the
sentiment-based and the predicted columns read the early warning's entity
table and predictions by entity index.
"""

from __future__ import annotations

import logging
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import Corpus, PostSample, group_positions
from .features import EntityTable, _div, _grouped, _pow
from .evaluation import Cycles, MetricsReport, StepwiseResult, forward_stepwise, rank_reports, run_cycles
from .earlywarning import EarlyWarningResult
from .models import Dataset, ModelSpec

log = logging.getLogger(__name__)

CLASS_NAMES = {0: "not_fake", 1: "fake"}

_PUNCTUATION = frozenset(".,;:!?'\"()-")
_TERMINATORS = frozenset(".!?")

# Character classes of the text kernel, as bit flags.  A word character is
# one the pattern [^\W_] matches, which for one character is str.isalnum().
_WORD_CHAR, _UPPER, _PUNCT, _TERM = 1, 2, 4, 8
# Texts per kernel call: bounds the per-character arrays, so peak memory
# does not grow with the corpus.
_TEXT_BATCH = 2048

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


def _char_class(code: int) -> int:
    ch = chr(code)
    return (
        _WORD_CHAR * ch.isalnum()
        | _UPPER * ch.isupper()
        | _PUNCT * (ch in _PUNCTUATION)
        | _TERM * (ch in _TERMINATORS)
    )


def _semantic_batch(texts: list[str]) -> np.ndarray:
    """Semantic statistics of already stripped texts, one row per text.

    The texts are joined and read as code points; only the distinct code
    points are classified, and every count is a per-text bincount.  A word
    starts at a word character that follows a non-word character or opens
    its text.  A sentence starts at a word character whose previous word or
    terminator character in the text is a terminator, or that has none.
    """
    n = len(texts)
    lengths = np.fromiter(map(len, texts), np.int64, n)
    codes = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), np.uint32)
    seen = np.bincount(codes, minlength=1)
    table = np.zeros(len(seen), np.uint8)
    present = np.flatnonzero(seen)
    table[present] = [_char_class(int(c)) for c in present]
    cls = table[codes]
    text = np.repeat(np.arange(n), lengths)

    word = (cls & _WORD_CHAR) > 0
    after_word = np.zeros(len(cls), bool)
    after_word[1:] = word[:-1]
    after_word[(np.cumsum(lengths) - lengths)[lengths > 0]] = False
    marks = np.flatnonzero(cls & (_WORD_CHAR | _TERM))
    mark_word, mark_text = word[marks], text[marks]
    opens = np.ones(len(marks), bool)
    opens[1:] = ~mark_word[:-1] | (mark_text[1:] != mark_text[:-1])

    def per_text(at: np.ndarray) -> np.ndarray:
        return np.bincount(at, minlength=n).astype(float)

    chars = lengths.astype(float)
    words = per_text(text[word & ~after_word])
    sentences = per_text(mark_text[mark_word & opens])
    capitals = per_text(text[(cls & _UPPER) > 0])
    punctuation = per_text(text[(cls & _PUNCT) > 0])
    return np.column_stack([
        chars,
        words,
        sentences,
        capitals,
        punctuation,
        _div(per_text(text[word]), words),
        _div(words, sentences),
        _div(punctuation, chars),
        _div(capitals, chars),
    ])


def _semantic_columns(texts: Iterable[str], n: int) -> np.ndarray:
    """The nine semantic statistics of ``n`` texts, in batches of _TEXT_BATCH.

    Words are maximal alphanumeric runs; sentences are '.!?'-delimited
    segments containing at least one word; the average sentence length is in
    words; rates divide by the character count.  Surrounding whitespace is
    ignored and an empty text yields all zeros.
    """
    texts = iter(texts)
    out = np.zeros((n, len(SEMANTIC_STAT_NAMES)))
    for start in range(0, n, _TEXT_BATCH):
        batch = [t.strip() for t in islice(texts, _TEXT_BATCH)]
        out[start:start + len(batch)] = _semantic_batch(batch)
    return out


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

    Every block is computed column-wise from one table of the rows'
    comments, read as they are stored: the rows in ``post_sample`` order,
    which is post-id order, each post's comments in file order.  Per-post
    values group the table by post and by (post, commenter), commenters in
    id order.  User-based features describe each post's commenters: the
    replies and likes they received there, their comment counts, the pages
    they commented on corpus-wide, and whether they are engaged with an
    entity of the post, as the entity table's ``engagement`` records over
    all of that entity's member posts, rows or not.  Memberships of posts
    that are not rows are dropped.

    Float sums add left to right in that order, on every Python version.
    The per-post build before this one used the built-in ``sum``, which adds
    left to right before Python 3.12 and with compensation from 3.12 on, so
    the two agree bit for bit on 3.10 and 3.11; on 3.12+ only the
    integer-valued columns are sure to agree, and float columns can differ
    in the last bit.
    """
    sample, table = warning.sample, warning.features
    rows = post_sample.rows
    row_ids = tuple(map(corpus.posts.ids.__getitem__, rows.tolist()))
    n = len(rows)

    comments, n_comments = group_positions(corpus.comment_offsets, rows)
    post = np.repeat(np.arange(n), n_comments)
    user = corpus.comments.user[comments]
    likes = corpus.comments.likes[comments].astype(float)
    replies = corpus.comments.replies[comments].astype(float)

    # Sample entities of each row, sorted by (row, entity) with CSR offsets
    # `ptr`; `row_of` maps a post to its row index, -1 for other posts.
    row_of = np.full(len(corpus.posts), -1)
    row_of[rows] = np.arange(n)
    row_post = row_of[sample.rows]
    kept = row_post >= 0
    row_post, row_entity = row_post[kept], sample.entity[kept]
    by = np.lexsort((row_entity, row_post))
    row_post, row_entity = row_post[by], row_entity[by]
    row_n_entities = np.bincount(row_post, minlength=n)
    ptr = np.concatenate([[0], np.cumsum(row_n_entities)])
    row_n_entities = row_n_entities.astype(float)

    columns = {
        **_structural_columns(corpus, rows, post, likes, replies, n_comments),
        **_named("sem_post_", SEMANTIC_STAT_NAMES,
                 _semantic_columns(map(corpus.posts.text.__getitem__, rows.tolist()), n).T),
        **_named("sem_comments_", SEMANTIC_STAT_NAMES,
                 _semantic_columns(_joined_comment_texts(corpus, comments, n_comments), n).T),
        **_user_columns(corpus, table, post, user, likes, replies, ptr, row_entity, n),
        **_sentiment_columns(
            corpus, rows, comments, post, row_post, row_entity, row_n_entities, table,
            sample.requires_comment_sentiment,
        ),
        **_predicted_columns(row_post, row_entity, row_n_entities, warning),
    }
    log.debug("post features: %d rows x %d columns, %d comments scanned", n, len(columns), len(comments))
    return Dataset(
        features=np.column_stack(list(columns.values())),
        labels=post_sample.labels,
        feature_names=tuple(columns),
        row_ids=row_ids,
    )


def _joined_comment_texts(corpus: Corpus, comments: np.ndarray, n_comments: np.ndarray) -> Iterator[str]:
    """Each row's comment texts joined by newlines, made lazily."""
    text = corpus.comments.text
    ends = np.cumsum(n_comments).tolist()
    starts = [0] + ends[:-1]
    comments = comments.tolist()
    return ("\n".join(map(text.__getitem__, comments[a:b])) for a, b in zip(starts, ends))


def _structural_columns(
    corpus: Corpus,
    rows: np.ndarray,
    on_row: np.ndarray,
    likes: np.ndarray,
    replies: np.ndarray,
    n_comments: np.ndarray,
) -> dict[str, np.ndarray]:
    n = len(rows)
    likes_on = np.bincount(on_row, weights=likes, minlength=n)
    replies_on = np.bincount(on_row, weights=replies, minlength=n)
    return _named("st_", STRUCTURAL_NAMES, [
        corpus.posts.likes[rows].astype(float),
        n_comments.astype(float),
        corpus.posts.shares[rows].astype(float),
        likes_on,
        replies_on,
        _div(likes_on, n_comments),
        _div(replies_on, n_comments),
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
    n_sources = len(corpus.sources)
    pages = np.bincount(
        np.unique(corpus.comments.user * n_sources + corpus.posts.source[corpus.comments.post])
        // n_sources,
        minlength=len(corpus.users),
    )
    keys, engaged = table.engagement
    engaged = keys[engaged]
    n_sample_entities = len(table)

    # (post, commenter) groups of the rows' comments: commenters in id order
    # within a post; bincount adds each group's comments in table order.
    n_users = len(corpus.users)
    pairs, group = np.unique(post * n_users + user, return_inverse=True)
    g_post, g_user = pairs // n_users, pairs % n_users
    size = len(pairs)
    g_replies, _, g_replies_var = _grouped(group, replies, size)
    g_likes, _, g_likes_var = _grouped(group, likes, size)
    g_comments = np.bincount(group, minlength=size).astype(float)
    index, count = group_positions(ptr, g_post)
    hit = np.isin(np.repeat(g_user, count) * n_sample_entities + row_entity[index], engaged)
    g_engaged = np.bincount(np.repeat(np.arange(size), count)[hit], minlength=size) > 0

    commenters = np.bincount(g_post, minlength=n)
    _, r_avg, r_var = _grouped(g_post, g_replies, n)
    _, l_avg, l_var = _grouped(g_post, g_likes, n)
    _, c_avg, c_var = _grouped(g_post, g_comments, n)
    _, p_avg, p_var = _grouped(g_post, pages[g_user].astype(float), n)
    n_engaged = np.bincount(g_post[g_engaged], minlength=n).astype(float)
    return _named("ub_", USER_STAT_NAMES, [
        r_avg,
        _pow(r_var, 0.5),
        l_avg,
        _pow(l_var, 0.5),
        _div(np.bincount(g_post, weights=_pow(g_likes_var, 0.5), minlength=n), commenters),
        _div(np.bincount(g_post, weights=_pow(g_replies_var, 0.5), minlength=n), commenters),
        c_avg,
        _pow(c_var, 0.5),
        p_avg,
        _pow(p_var, 0.5),
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
    _, dp_mean, dp_var = _grouped(row_post, table.columns["presentation_distance"][row_entity], n)
    columns = _named("sb_", SENTIMENT_BASE_NAMES, [corpus.posts.sentiment[rows], dp_mean, _pow(dp_var, 0.5)])
    if not include_comment_sentiment:
        return columns
    sentiment = corpus.comments.sentiment[comments]
    scored = ~np.isnan(sentiment)
    at, sentiment = on_row[scored], sentiment[scored]
    n_scored = np.bincount(at, minlength=n)
    _, s_avg, s_var = _grouped(at, sentiment, n)
    n_pos = np.bincount(at[sentiment > 0], minlength=n).astype(float)
    n_neg = np.bincount(at[sentiment < 0], minlength=n).astype(float)
    captivating = (table.columns["captivation"] == 1).astype(float)
    n_capt = np.bincount(row_post, weights=captivating[row_entity], minlength=n)
    response = table.columns["response_dist_global"][row_entity]
    has_response = ~np.isnan(response)
    at = row_post[has_response]
    response_sum = np.bincount(at, weights=response[has_response], minlength=n)
    return columns | _named("sb_", SENTIMENT_COMMENT_NAMES, [
        s_avg,
        _pow(s_var, 0.5),
        _div(n_pos, n_scored),
        _div(n_neg, n_scored),
        n_pos / np.maximum(1.0, n_neg),
        n_capt,
        _div(n_capt, row_n_entities),
        _div(response_sum, np.bincount(at, minlength=n)),
    ])


def _predicted_columns(
    row_post: np.ndarray,
    row_entity: np.ndarray,
    row_n_entities: np.ndarray,
    warning: EarlyWarningResult,
) -> dict[str, np.ndarray]:
    """Counts and rates of contained entities predicted disputed, per model.

    An entity without a row in the early warning's dataset counts as not
    predicted disputed.
    """
    n = len(row_n_entities)
    table = warning.features
    disputed = np.zeros((2, len(table)))
    disputed[:, table.complete(warning.dataset.feature_names)] = warning.predictions[0] == 1
    columns = {}
    for algo, flags in zip(warning.best, disputed, strict=True):
        count = np.bincount(row_post, weights=flags[row_entity], minlength=n)
        columns[f"pred_n_disputed_{algo}"] = count
        columns[f"pred_rate_disputed_{algo}"] = _div(count, row_n_entities)
    return columns


def subset_by_categories(dataset: Dataset, categories: Sequence[str]) -> Dataset:
    prefixes = tuple(CATEGORY_PREFIXES[c] for c in categories)
    names = [n for n in dataset.feature_names if n.startswith(prefixes)]
    return dataset.take_columns(names)


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
    (any case) and on FULL_SET, each evaluated once: step -> algorithm -> report."""
    table = {}
    for step in dict.fromkeys([*(s for m in modes for s in EXPERIMENT_STEPS[m.upper()]), FULL_SET]):
        sub = subset_by_categories(dataset, step.split("+"))
        table[step] = {spec.algorithm: run_cycles(sub, spec, cycles) for spec in specs}
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
