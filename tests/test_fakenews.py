"""Post-level features against hand counts and a per-post brute oracle."""

import csv
import json
import logging
import math
import random
import shutil
import tracemalloc
from itertools import compress
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarwarn import cli
from polarwarn import corpus as cm
from polarwarn import earlywarning as ew
from polarwarn import fakenews as fn
from polarwarn import textcounts as tc
from polarwarn.evaluation import Protocol
from polarwarn.models import ALGORITHMS, Dataset, ModelSpec

from conftest import (comment, entity_rows, mention, oracle_counts, post, read_records, source, tiny_warning,
                      write_corpus)


# The per-post definitions the column-wise build must reproduce exactly.
# Float sums run left to right in explicit loops, so the oracle does not
# depend on how a Python version's built-in sum() adds floats.
def oracle_semantic(counts):
    """The nine semantic statistics of one row of text counts (oracle_counts)."""
    n_chars, n_words, word_chars, n_sentences, n_caps, n_punct = counts
    return [
        float(n_chars),
        float(n_words),
        float(n_sentences),
        float(n_caps),
        float(n_punct),
        word_chars / n_words if n_words else 0.0,
        n_words / n_sentences if n_sentences else 0.0,
        n_punct / n_chars if n_chars else 0.0,
        n_caps / n_chars if n_chars else 0.0,
    ]


def oracle_mean_std(values):
    if not values:
        return 0.0, 0.0
    total = 0
    for v in values:
        total += v
    mean = total / len(values)
    squares = 0
    for v in values:
        squares += (v - mean) * (v - mean)
    return mean, math.sqrt(squares / len(values))


def oracle_mean(values):
    return oracle_mean_std(values)[0]


def oracle_row(records, pid, sample, min_confidence, feature_map, pred_map):
    """One post's feature row, straight from the raw records.

    ``feature_map`` maps an entity to its ``entity_rows`` dict, and
    ``pred_map`` an entity with a dataset row to its two models' labels.
    """
    post = records.posts[pid]
    comments = records.comments_by_post.get(pid, [])
    entities = sorted(
        e for e, conf in records.entities_by_post.get(pid, {}).items()
        if e in sample.entities and conf >= min_confidence
    )

    def member(post_id, entity):
        return records.entities_by_post.get(post_id, {}).get(entity, -1.0) >= min_confidence

    n = len(comments)
    likes_on = sum(c["likes"] for c in comments)
    replies_on = sum(c["replies"] for c in comments)
    row = [float(post["likes"]), float(n), float(post["shares"]), float(likes_on),
           float(replies_on), likes_on / n if n else 0.0, replies_on / n if n else 0.0]

    row += oracle_semantic(oracle_counts(post["text"]))
    # the comments' statistics: the integer sums of each comment's own counts
    row += oracle_semantic([sum(column) for column in zip([0] * 6, *(oracle_counts(c["text"]) for c in comments))])

    by_user = {}
    for c in comments:
        by_user.setdefault(c["user_id"], []).append(c)
    commenters = sorted(by_user)
    if commenters:
        def engaged(user):
            mine = records.comments_by_user[user]
            for e in entities:
                on_entity = sum(1 for c in mine if member(c["post_id"], e))
                if on_entity > 0.95 * len(mine):
                    return True
            return False

        pages = [
            len({records.posts[c["post_id"]]["source_id"] for c in records.comments_by_user[u]})
            for u in commenters
        ]
        n_engaged = sum(1 for u in commenters if engaged(u))
        row += [
            *oracle_mean_std([sum(c["replies"] for c in by_user[u]) for u in commenters]),
            *oracle_mean_std([sum(c["likes"] for c in by_user[u]) for u in commenters]),
            oracle_mean([oracle_mean_std([c["likes"] for c in by_user[u]])[1] for u in commenters]),
            oracle_mean([oracle_mean_std([c["replies"] for c in by_user[u]])[1]
                         for u in commenters]),
            *oracle_mean_std([len(by_user[u]) for u in commenters]),
            *oracle_mean_std(pages),
            float(n_engaged),
            n_engaged / len(commenters),
        ]
    else:
        row += [0.0] * len(fn.USER_STAT_NAMES)

    known = [feature_map[e] for e in entities if e in feature_map]
    row += [post["sentiment"], *oracle_mean_std([f["presentation_distance"] for f in known])]
    if sample.requires_comment_sentiment:
        scored = [c["sentiment"] for c in comments if c["sentiment"] is not None]
        n_pos = sum(1 for s in scored if s > 0)
        n_neg = sum(1 for s in scored if s < 0)
        n_capt = sum(1 for f in known if f["captivation"] == 1)
        responses = [f["response_dist_global"] for f in known if f["response_dist_global"] is not None]
        row += [
            *oracle_mean_std(scored),
            n_pos / len(scored) if scored else 0.0,
            n_neg / len(scored) if scored else 0.0,
            n_pos / max(1, n_neg),
            float(n_capt),
            n_capt / len(entities) if entities else 0.0,
            oracle_mean(responses),
        ]

    for side in (0, 1):
        count = sum(1 for e in entities if e in pred_map and pred_map[e][side] == 1)
        row += [float(count), count / len(entities) if entities else 0.0]
    return row


def semantic_stats(text):
    return np.array(fn._semantic_columns(tc.text_counts([text])))[:, 0]


class TestSemanticStats:
    def stats(self, text):
        return dict(zip(fn.SEMANTIC_STAT_NAMES, semantic_stats(text)))

    def test_hand_counts(self):
        s = self.stats("Ciao. Ciao!")
        assert s["sentences"] == 2
        assert s["words"] == 2
        assert s["punctuation_signs"] == 2
        assert s["capital_letters"] == 2
        assert s["characters"] == 11
        assert s["avg_word_length"] == 4
        assert s["avg_sentence_length"] == 1

    def test_empty_text_all_zero(self):
        assert semantic_stats("").tolist() == [0.0] * 9

    def test_all_caps_rate(self):
        assert self.stats("AAAA")["capital_rate"] == 1.0

    def test_no_terminator_is_one_sentence(self):
        s = self.stats("due parole")
        assert s["sentences"] == 1
        assert s["avg_sentence_length"] == 2

    def test_accented_words_count(self):
        assert self.stats("perché però")["words"] == 2

    @given(st.text(max_size=80), st.integers(0, 5))
    @settings(max_examples=80, deadline=None)
    def test_trailing_whitespace_invariant(self, text, pad):
        padded = text + " " * pad + "\n" * (pad % 2)
        assert semantic_stats(text).tolist() == semantic_stats(padded).tolist()


# Characters where a text kernel can go wrong: whitespace the strip removes
# (including the line separator), underscores (\w but not a word character),
# titlecase, a non-BMP capital, a combining mark, digits and terminators.
TRICKY = " \t\n\u2028\u3000_.!?,;:'\"()-aZ\u01c5\U0001d400e\u0301\u0663\u00b2"
tricky_text = st.text(st.one_of(st.sampled_from(TRICKY), st.characters()), max_size=30)


class TestTextKernel:
    @given(st.lists(tricky_text, max_size=12), st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_text_oracle(self, texts, chars):
        with mock.patch.object(tc, "_TEXT_CHARS", chars):
            got = tc.text_counts(texts)
        assert got.dtype == np.int64 and got.shape == (len(texts), len(tc.COUNT_NAMES))
        assert got.tolist() == [oracle_counts(t) for t in texts]

    @given(st.text(st.characters(exclude_categories=())))  # any code point, lone surrogates too
    @settings(max_examples=300, deadline=None)
    def test_any_unicode_text_matches_the_oracle(self, text):
        assert tc.text_counts([text]).tolist() == [oracle_counts(text)]

    def test_hand_cases(self):
        texts = ["", "   \n", "__a__b_", "\u01c5ubrovnik. \U0001d400!", "e\u0301t\u00e9",
                 "a b", "?!x", "x?!", "...", "1.5 m"]
        got = tc.text_counts(texts)
        assert got.tolist() == [oracle_counts(t) for t in texts]
        counts = {name: dict(zip(texts, column)) for name, column in zip(tc.COUNT_NAMES, got.T.tolist())}
        assert counts["words"]["__a__b_"] == 2  # underscores split words
        assert counts["word_characters"]["__a__b_"] == 2
        assert counts["words"]["e\u0301t\u00e9"] == 2  # a combining mark is not alphanumeric
        assert counts["characters"]["   \n"] == 0
        sentences = counts["sentences"]
        assert sentences["?!x"] == 1 and sentences["..."] == 0 and sentences["1.5 m"] == 2

    def test_longer_than_one_batch(self):
        rng = np.random.default_rng(3)
        alphabet = list(TRICKY) + list("bcdefghij ")
        texts = ["".join(rng.choice(alphabet, size=rng.integers(0, 25))) for _ in range(207)]
        # one text longer than the whole budget, which is a batch of its own
        texts.insert(100, "".join(rng.choice(alphabet, size=600)))
        with mock.patch.object(tc, "_TEXT_CHARS", 256):
            got = tc.text_counts(texts)
        assert got.tolist() == [oracle_counts(t) for t in texts]

    def test_memory_does_not_grow_with_the_largest_code_point(self):
        # a table indexed by code point would take 1.1 MB per byte of entry
        # for U+10FFFD; the kernel's own arrays take tens of bytes per character
        texts = [("Plain ASCII text. " * 400).strip(), "and one more"]

        def peak(batch):
            tracemalloc.start()
            try:
                tc._count_batch(batch)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        ascii_peak = peak(texts)
        for wide in ("\U0010fffd", "\U0001f600", "\u00e9"):
            assert peak([*texts, "x" + wide]) < ascii_peak + 2**16
            assert tc._count_batch([*texts, wide]).tolist() == [oracle_counts(t) for t in [*texts, wide]]


def build_rows(corpus, predictions=None, posts=None):
    """Feature rows by post id of an E1 build over the given posts (default P1).

    ``predictions`` maps an entity to its (log, nn) labels, (0, 0) when absent.
    """
    sample = cm.select_e1(corpus)
    if posts is None:
        post_sample = cm.posts_for_entities(corpus, sample)
    else:
        rows = np.array([corpus.posts.ids.index(p) for p in sorted(posts)])
        post_sample = cm.PostSample(name="P", rows=rows, labels=np.zeros(len(rows), np.int8))
    ds = fn.build_post_dataset(corpus, post_sample, tiny_warning(corpus, sample, predictions))
    return {pid: dict(zip(ds.feature_names, row)) for pid, row in zip(ds.row_ids, ds.features)}


def user_stats(rows, pid):
    return {name: rows[pid]["ub_" + name] for name in fn.USER_STAT_NAMES}


def build_user_corpus(tmp_path):
    """Three sources; u1 comments on p1 twice and on two other sources."""
    sources = [source("s1"), source("s2"), source("s3", "fake")]
    posts = [post("p1", "s1"), post("p2", "s2", 50), post("p3", "s3", 60),
             post("p4", "s1", 70)]
    comments = [
        comment("c1", "p1", "u1", 1, replies=1, likes=2),
        comment("c2", "p1", "u1", 2, replies=3, likes=4),
        comment("c3", "p2", "u1", 3),
        comment("c4", "p3", "u1", 4),
    ]
    mentions = [mention("alpha", "p1", 0.9)]
    return cm.load_corpus(write_corpus(tmp_path / "u", sources, posts, comments, mentions))


class TestUserStats:
    def test_hand_computation_single_commenter(self, tmp_path):
        corpus = build_user_corpus(tmp_path)
        stats = user_stats(build_rows(corpus), "p1")
        assert stats["comments_to_commenters_avg"] == 4  # replies 1 + 3
        assert stats["comments_to_commenters_std"] == 0
        assert stats["likes_to_commenters_avg"] == 6
        assert stats["comments_per_user_avg"] == 2
        assert stats["pages_per_user_avg"] == 3  # s1, s2, s3 corpus-wide
        assert stats["mean_std_comments_to_commenters"] == 1.0  # std of {1, 3}
        assert stats["engaged_users"] == 0  # 2 of 4 comments on alpha's posts

    def test_no_commenters_all_zero(self, tmp_path):
        corpus = build_user_corpus(tmp_path)
        rows = build_rows(corpus, posts=["p1", "p4"])
        assert list(user_stats(rows, "p4").values()) == [0.0] * 12

    def test_engaged_commenter_counted(self, tmp_path):
        sources = [source("s1")]
        posts = [post("p1")]
        comments = [comment(f"c{i}", "p1", "fan", i) for i in range(5)]
        mentions = [mention("alpha", "p1", 0.9)]
        corpus = cm.load_corpus(write_corpus(tmp_path / "e", sources, posts, comments, mentions))
        stats = user_stats(build_rows(corpus), "p1")
        assert stats["engaged_users"] == 1
        assert stats["engaged_users_rate"] == 1.0

    def test_per_commenter_std_of_unequal_likes(self, tmp_path):
        sources = [source("s1")]
        posts = [post("p1")]
        comments = [comment(f"c{i}", "p1", "u1", i, likes=likes, replies=2 * likes)
                    for i, likes in enumerate((1, 2, 6))]
        corpus = cm.load_corpus(write_corpus(
            tmp_path / "s", sources, posts, comments, [mention("alpha", "p1", 0.9)]
        ))
        stats = user_stats(build_rows(corpus), "p1")
        # likes {1, 2, 6}: mean 3, squared deviations 4 + 1 + 9
        assert stats["mean_std_likes_to_commenters"] == math.sqrt(14 / 3)
        assert stats["mean_std_comments_to_commenters"] == math.sqrt(56 / 3)
        assert stats["likes_to_commenters_avg"] == 9
        assert stats["likes_to_commenters_std"] == 0  # one commenter
        assert stats["comments_per_user_avg"] == 3

    def test_engaged_with_two_entities_counts_once(self, tmp_path):
        sources = [source("s1")]
        posts = [post("p1"), post("p2", timestamp=5)]
        comments = [comment(f"c{i}", "p1", "fan", i) for i in range(5)]
        comments += [comment("d1", "p1", "other", 6), comment("d2", "p2", "other", 7)]
        mentions = [mention("alpha", "p1", 0.9), mention("beta", "p1", 0.9)]
        corpus = cm.load_corpus(write_corpus(tmp_path / "t", sources, posts, comments, mentions))
        rows = build_rows(corpus)
        stats = user_stats(rows, "p1")
        # fan is engaged with alpha and with beta; other has 1 of 2 comments there
        assert stats["engaged_users"] == 1
        assert stats["engaged_users_rate"] == 0.5

    def test_engagement_needs_more_than_95_percent(self, tmp_path):
        sources = [source("s1")]
        posts = [post("p1"), post("p2", timestamp=5)]
        comments = [comment(f"c{i}", "p1", "near", i) for i in range(19)]
        comments += [comment("d1", "p2", "near", 30), comment("f1", "p1", "fan", 31)]
        mentions = [mention("alpha", "p1", 0.9)]
        corpus = cm.load_corpus(write_corpus(tmp_path / "n", sources, posts, comments, mentions))
        stats = user_stats(build_rows(corpus), "p1")
        # near has exactly 95% (19 of 20) of their comments on alpha's posts
        assert stats["engaged_users"] == 1
        assert stats["engaged_users_rate"] == 0.5

    def test_engagement_counts_member_posts_outside_the_rows(self, tmp_path):
        sources = [source("s1")]
        posts = [post("p1"), post("p2", timestamp=5), post("p3", timestamp=9)]
        comments = [comment("c0", "p1", "fan", 0)]
        comments += [comment(f"c{i}", "p2", "fan", i) for i in range(1, 20)]
        comments += [comment("d1", "p1", "other", 30), comment("d2", "p3", "other", 31)]
        mentions = [mention("alpha", "p1", 0.9), mention("alpha", "p2", 0.9)]
        corpus = cm.load_corpus(write_corpus(tmp_path / "o", sources, posts, comments, mentions))
        stats = user_stats(build_rows(corpus, posts=["p1"]), "p1")
        # the rows are p1 alone: fan has 1 of 20 comments there, but all 20
        # on alpha's member posts p1 and p2; other has 1 of 2
        assert stats["engaged_users"] == 1
        assert stats["engaged_users_rate"] == 0.5


def build_predicted_corpus(tmp_path):
    """p1 mentions a and b; p2 mentions nothing."""
    directory = write_corpus(
        tmp_path / "pred", [source("s1")], [post("p1"), post("p2", timestamp=5)],
        [comment("c1", "p1")], [mention("a", "p1", 0.9), mention("b", "p1", 0.9)],
    )
    return cm.load_corpus(directory)


PREDICTED = ("pred_n_disputed_log", "pred_rate_disputed_log",
             "pred_n_disputed_nn", "pred_rate_disputed_nn")


class TestPredictedStats:
    def test_counts_and_rates(self, tmp_path):
        corpus = build_predicted_corpus(tmp_path)
        rows = build_rows(corpus, {"a": (1, 1), "b": (0, 0)})
        assert [rows["p1"][name] for name in PREDICTED] == [1, 0.5, 1, 0.5]

    def test_no_entities_zero(self, tmp_path):
        corpus = build_predicted_corpus(tmp_path)
        rows = build_rows(corpus, {"a": (1, 1)}, posts=["p1", "p2"])
        assert [rows["p2"][name] for name in PREDICTED] == [0, 0, 0, 0]

    def test_debug_line_counts_rows_columns_comments(self, tmp_path, caplog):
        corpus = build_predicted_corpus(tmp_path)
        with caplog.at_level(logging.DEBUG, logger=fn.__name__):
            build_rows(corpus, posts=["p1", "p2"])
        debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert any("2 rows x 44 columns, 1 comments scanned" in m for m in debug)


@pytest.fixture(scope="module")
def small_post_world(tmp_path_factory):
    from conftest import SMALL_SYNTH_CONFIG
    from polarwarn import synth

    directory = tmp_path_factory.mktemp("posts")
    synth.generate(SMALL_SYNTH_CONFIG, directory)
    corpus = cm.load_corpus(directory)
    e1 = cm.select_e1(corpus)
    specs = [ModelSpec(a, seed=2) for a in ALGORITHMS]
    warning = ew.run_early_warning(corpus, e1, specs, Protocol(repeats=4, seed=2))
    p1 = cm.posts_for_entities(corpus, e1, name="P1")
    dataset = fn.build_post_dataset(corpus, p1, warning)
    return corpus, read_records(directory), e1, warning, p1, dataset


@pytest.fixture(scope="module")
def small_p2_world(tmp_path_factory):
    """E2 and one more entity, "unscored", with member posts but no scored comment.

    The corpus is generated from the config small_post_world uses, plus two
    mentions of "unscored": a P2 post without comments and a post outside P2
    whose comments are all unscored.  The sample holds E2's memberships and
    those two.
    """
    from conftest import SMALL_SYNTH_CONFIG
    from polarwarn import synth

    directory = tmp_path_factory.mktemp("posts_p2")
    synth.generate(SMALL_SYNTH_CONFIG, directory)
    corpus = cm.load_corpus(directory)
    e2 = cm.select_e2(corpus)
    in_e2 = np.isin(np.arange(len(corpus.posts)), e2.rows)
    n_comments = np.diff(corpus.comment_offsets)
    n_scored = np.bincount(corpus.comments.post[~np.isnan(corpus.comments.sentiment)],
                           minlength=len(corpus.posts))
    uncommented = np.flatnonzero(in_e2 & (n_comments == 0))
    unscored = np.flatnonzero(~in_e2 & (n_comments > 0) & (n_scored == 0))
    assert len(uncommented) and len(unscored)
    with open(directory / "mentions.jsonl", "a", encoding="utf-8") as fh:
        for row in (uncommented[0], unscored[0]):
            fh.write(json.dumps(mention("unscored", corpus.posts.ids[row])) + "\n")
    corpus = cm.load_corpus(directory)
    wide = cm.select_entities(corpus, 0.9, 1, require_comment_sentiment=True, name="E2")
    kept = np.isin(wide.entities, [*cm.select_e2(corpus).entities, "unscored"])
    member = kept[wide.entity]
    e2 = cm.EntitySample("E2", tuple(compress(wide.entities, kept)), (np.cumsum(kept) - 1)[wide.entity[member]],
                         wide.rows[member], requires_comment_sentiment=True)
    specs = [ModelSpec(a, seed=2) for a in ALGORITHMS]
    warning = ew.run_early_warning(corpus, e2, specs, Protocol(repeats=3, seed=2))
    p2 = cm.posts_for_entities(corpus, e2, name="P2")
    dataset = fn.build_post_dataset(corpus, p2, warning)
    return corpus, read_records(directory), e2, warning, dataset


# The post feature names up to the predicted block, in column order: P1
# builds stop after the three base sentiment columns, P2 builds carry the
# eight comment-sentiment columns too.
P1_NAMES = (
    "st_likes", "st_comments", "st_shares", "st_likes_on_comments", "st_comments_on_comments",
    "st_avg_likes_on_comments", "st_avg_comments_on_comments",
    "sem_post_characters", "sem_post_words", "sem_post_sentences", "sem_post_capital_letters",
    "sem_post_punctuation_signs", "sem_post_avg_word_length", "sem_post_avg_sentence_length",
    "sem_post_punctuation_rate", "sem_post_capital_rate",
    "sem_comments_characters", "sem_comments_words", "sem_comments_sentences", "sem_comments_capital_letters",
    "sem_comments_punctuation_signs", "sem_comments_avg_word_length", "sem_comments_avg_sentence_length",
    "sem_comments_punctuation_rate", "sem_comments_capital_rate",
    "ub_comments_to_commenters_avg", "ub_comments_to_commenters_std", "ub_likes_to_commenters_avg",
    "ub_likes_to_commenters_std", "ub_mean_std_likes_to_commenters", "ub_mean_std_comments_to_commenters",
    "ub_comments_per_user_avg", "ub_comments_per_user_std", "ub_pages_per_user_avg", "ub_pages_per_user_std",
    "ub_engaged_users", "ub_engaged_users_rate",
    "sb_post_sentiment", "sb_presentation_dist_mean", "sb_presentation_dist_std",
)
P2_COMMENT_NAMES = (
    "sb_comment_sent_avg", "sb_comment_sent_std", "sb_rate_positive_comments", "sb_rate_negative_comments",
    "sb_pos_over_neg_comments", "sb_n_captivating_entities", "sb_rate_captivating_entities",
    "sb_response_dist_avg",
)


def predicted_names(warning) -> tuple[str, ...]:
    return tuple(f"pred_{kind}_disputed_{algo}" for algo in warning.best for kind in ("n", "rate"))


class TestBuildPostDataset:
    def test_p1_width_44(self, small_post_world):
        *_, dataset = small_post_world
        assert len(dataset.feature_names) == 44
        assert len(set(dataset.feature_names)) == 44

    def test_p2_width_52(self, small_p2_world):
        *_, ds = small_p2_world
        assert len(ds.feature_names) == 52

    def test_p1_names_in_column_order(self, small_post_world):
        *_, warning, _, dataset = small_post_world
        assert dataset.feature_names == P1_NAMES + predicted_names(warning)
        assert len(dataset.feature_names) == 44

    def test_p2_names_in_column_order(self, small_p2_world):
        *_, warning, dataset = small_p2_world
        assert dataset.feature_names == P1_NAMES + P2_COMMENT_NAMES + predicted_names(warning)
        assert len(dataset.feature_names) == 52

    def test_rates_bounded_counts_nonnegative(self, small_post_world):
        *_, dataset = small_post_world
        for i, name in enumerate(dataset.feature_names):
            column = dataset.features[:, i]
            if "rate" in name:
                assert np.all((column >= 0) & (column <= 1)), name
            if name.startswith(("st_", "ub_engaged", "pred_n")):
                assert np.all(column >= 0), name

    def test_subset_rows_match_the_full_build(self, small_post_world):
        corpus, _, e1, warning, p1, dataset = small_post_world
        half = np.arange(0, len(p1.rows), 2)
        subset = cm.PostSample(name="half", rows=p1.rows[half], labels=p1.labels[half])
        ds = fn.build_post_dataset(corpus, subset, warning)
        assert ds.row_ids == tuple(dataset.row_ids[i] for i in half.tolist())
        assert np.array_equal(ds.features, dataset.features[half])

    @pytest.mark.parametrize("budget", ["one", "all"])
    def test_chunked_builds_are_bit_identical(self, small_post_world, small_p2_world, budget):
        """One comment per chunk, or every comment in one, against the default chunks."""
        corpus, _, _, warning, p1, dataset = small_post_world
        corpus2, _, e2, warning2, dataset2 = small_p2_world
        p2 = cm.posts_for_entities(corpus2, e2, name="P2")
        for corpus, posts, warn, ds in ((corpus, p1, warning, dataset), (corpus2, p2, warning2, dataset2)):
            assert np.diff(corpus.comment_offsets)[posts.rows].max() > 1  # a post over budget "one"
            chunk = 1 if budget == "one" else len(corpus.comments) + 1
            with mock.patch.object(fn, "_CHUNK_COMMENTS", chunk):
                got = fn.build_post_dataset(corpus, posts, warn)
            assert got.feature_names == ds.feature_names
            assert got.row_ids == ds.row_ids
            assert got.features.tobytes() == ds.features.tobytes()

    @given(st.lists(st.integers(0, 6), max_size=30), st.integers(1, 8))
    @settings(deadline=None)
    def test_chunks_cover_the_rows_within_the_budget(self, counts, budget):
        comment_ptr = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
        with mock.patch.object(fn, "_CHUNK_COMMENTS", budget):
            bounds = list(fn._chunks(comment_ptr))
        assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
        assert bounds[-1][1] == len(counts)
        for lo, hi in bounds:
            taken = comment_ptr[hi] - comment_ptr[lo]
            assert taken <= budget or hi == lo + 1
            # greedy: the next row would not have fit
            assert hi == len(counts) or comment_ptr[hi + 1] - comment_ptr[lo] > budget

    def test_labels_match_source_category(self, small_post_world):
        _, records, _, _, p1, dataset = small_post_world
        for pid, label in zip(dataset.row_ids, dataset.labels):
            category = records.sources[records.posts[pid]["source_id"]]["category"]
            expected = 1 if category == "fake" else 0
            assert label == expected

    def test_predicted_count_bounded_by_contained(self, small_post_world):
        _, records, e1, warning, _, dataset = small_post_world
        names = list(dataset.feature_names)
        n_col = names.index(f"pred_n_disputed_{warning.best[0]}")
        for row, pid in zip(dataset.features, dataset.row_ids):
            contained = [
                e for e, conf in records.entities_by_post.get(pid, {}).items()
                if e in e1.entities and conf >= 0.6
            ]
            assert row[n_col] <= len(contained)

    def test_matches_naive_recomputation(self, small_post_world, small_p2_world):
        _, records1, e1, warning, p1, dataset = small_post_world
        _, records2, e2, warning2, dataset2 = small_p2_world
        for records, sample, min_confidence, warn, ds, width in (
            (records1, e1, 0.6, warning, dataset, 44), (records2, e2, 0.9, warning2, dataset2, 52)
        ):
            feature_map = {f["entity"]: f for f in entity_rows(warn.features)}
            pred_map = dict(zip(warn.dataset.row_ids, warn.predictions[0].T.tolist()))
            assert ds.features.shape[1] == width
            assert any(ds.features[:, ds.feature_names.index("ub_engaged_users")] > 0)
            for pid, row in zip(ds.row_ids, ds.features.tolist()):
                expected = oracle_row(records, pid, sample, min_confidence, feature_map, pred_map)
                wrong = [n for n, a, b in zip(ds.feature_names, row, expected) if a != b]
                assert not wrong, (pid, wrong)

    def test_entity_without_scored_comments(self, small_p2_world, tmp_path):
        _, records, e2, warning, dataset = small_p2_world
        cli._write_features(tmp_path / "features.csv", warning.features)
        with open(tmp_path / "features.csv", newline="", encoding="utf-8") as fh:
            row = next(r for r in csv.DictReader(fh) if r["entity"] == "unscored")
        comment_fields = [name for name in row if name.startswith(("comment_sent_", "response_dist_"))]
        assert len(comment_fields) == 9
        assert [row[name] for name in (*comment_fields, "perception")] == [""] * 10
        assert row["missing"] == "comment_sentiment"
        assert row["controversy"] in ("0", "1") and row["captivation"] in ("0", "1")
        assert "unscored" in e2.entities and "unscored" not in warning.dataset.row_ids
        alone = [pid for pid, entities in records.entities_by_post.items()
                 if [e for e, conf in entities.items() if e in e2.entities and conf >= 0.9] == ["unscored"]]
        assert len(alone) == 1
        values = dict(zip(dataset.feature_names, dataset.features[dataset.row_ids.index(alone[0])].tolist()))
        assert [values[name] for name in dataset.feature_names if name.startswith("pred_")] == [0.0] * 4
        assert values["sb_response_dist_avg"] == 0.0
        assert values["st_comments"] > 0 and values["sb_comment_sent_avg"] == 0.0


def test_semantic_columns_do_not_depend_on_comment_line_order(small_synth, tmp_path):
    """Shuffling the lines of comments.jsonl leaves every sem_post_ and sem_comments_ column bit-identical.

    This is the semantic half of line-order independence only: the ub_
    float sums still add each post's comments in file order.
    """
    corpus, _, directory = small_synth
    shuffled = tmp_path / "shuffled"
    shutil.copytree(directory, shuffled)
    lines = (directory / "comments.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(7).shuffle(lines)
    (shuffled / "comments.jsonl").write_text("".join(lines), encoding="utf-8")

    def semantic(corpus):
        e1 = cm.select_e1(corpus)
        ds = fn.build_post_dataset(corpus, cm.posts_for_entities(corpus, e1), tiny_warning(corpus, e1))
        names = [name for name in ds.feature_names if name.startswith("sem_")]
        return ds.row_ids, names, ds.features[:, [ds.feature_names.index(name) for name in names]]

    row_ids, names, features = semantic(corpus)
    got = semantic(cm.load_corpus(shuffled))
    assert len(names) == 18
    assert got[:2] == (row_ids, names)
    assert got[2].tobytes() == features.tobytes()


def traced_build(corpus, chunk):
    """build_post_dataset's P1 build under the given chunk budget, and its traced peak beside the matrix."""
    e1 = cm.select_e1(corpus)
    posts = cm.posts_for_entities(corpus, e1)
    warning = tiny_warning(corpus, e1)
    corpus.user_pages  # a per-corpus value, computed once on first use
    with mock.patch.object(fn, "_CHUNK_COMMENTS", chunk):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ds = fn.build_post_dataset(corpus, posts, warning)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    return posts, peak - ds.features.nbytes


def traced_counts(texts, chars):
    """text_counts of ``texts`` under the given character budget, and its traced peak beside the counts."""
    with mock.patch.object(tc, "_TEXT_CHARS", chars):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            counts = tc.text_counts(texts)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    return peak - counts.nbytes


# Working memory per unit of budget, upper bounds read off the code: a chunk
# holds under 32 eight-byte values per comment at a time (its comment table,
# the (post, commenter) groups and the grouped sums' temporaries; about 11
# measured), the text kernel under 64 bytes per character (33-44 measured,
# the most with four-byte code points).
BYTES_PER_COMMENT = 256
BYTES_PER_CHAR = 64


class TestBoundedMemory:
    """Copying every comment 8 times leaves each stage's traced working memory within its budget."""

    @pytest.fixture(scope="class")
    def corpora(self, tmp_path_factory):
        """A small synthetic corpus, and a copy with each comment repeated 8 times under new ids.

        The posts, users and memberships are the same in both, so only the
        comments can make a difference.
        """
        from polarwarn import synth

        tmp_path = tmp_path_factory.mktemp("eightfold")
        config = synth.SynthConfig(n_entities=40, n_posts=600, n_users=300, n_comments=4000,
                                   head_entities=4, head_posts_min=30, head_posts_max=40, seed=21)
        synth.generate(config, tmp_path / "x1")
        (tmp_path / "x8").mkdir()
        for name in ("sources", "posts", "mentions"):
            (tmp_path / "x8" / f"{name}.jsonl").write_text((tmp_path / "x1" / f"{name}.jsonl").read_text())
        comments = [json.loads(line) for line in (tmp_path / "x1" / "comments.jsonl").read_text().splitlines()]
        with open(tmp_path / "x8" / "comments.jsonl", "w", encoding="utf-8") as fh:
            for copy in range(8):
                for c in comments:
                    fh.write(json.dumps({**c, "id": f"{c['id']}.{copy}"}) + "\n")
        return tmp_path / "x1", tmp_path / "x8", [c["text"] for c in comments]

    def test_peak_does_not_grow_with_the_comments(self, corpora):
        """The build reads no text, so its only budget is a chunk's comments, or the largest post's when more."""
        chunk = 256
        _, once = traced_build(cm.load_corpus(corpora[0]), chunk)
        corpus = cm.load_corpus(corpora[1])
        posts, eightfold = traced_build(corpus, chunk)

        offsets = corpus.comment_offsets
        n_comments = offsets[posts.rows + 1] - offsets[posts.rows]
        assert n_comments.sum() > 8 * chunk  # many chunks
        budget = BYTES_PER_COMMENT * max(chunk, n_comments.max())
        assert eightfold <= once + budget, (once, eightfold, budget)

    def test_counting_peak_does_not_grow_with_the_texts(self, corpora):
        """Counting one block of every comment text, or of 8 copies of each, stays within one batch's budget.

        Beside the returned counts, the kernel holds at most one batch of
        _TEXT_CHARS characters, or the longest text when that is longer.
        """
        chars, texts = 4096, corpora[2]
        once = traced_counts(texts, chars)
        eightfold = traced_counts(texts * 8, chars)
        assert sum(map(len, texts)) > 8 * chars  # many batches
        budget = BYTES_PER_CHAR * max(chars, max(map(len, texts)) + 1)
        assert once <= budget and eightfold <= budget, (once, eightfold, budget)
        assert eightfold <= once + 2**12, (once, eightfold)


# Working memory of one lin cycle per cell of its rows (train and test) and
# columns, an upper bound read off the code: the gathered rows (8 bytes), the
# finiteness mask (1), the standardizer's deviations and the standardized
# copy (16), the intercept copy and the least-squares solver's own copy (16),
# with room left for the solver's workspace and the scores (about 16 measured).
BYTES_PER_CYCLE_CELL = 64


class TestExperimentMemory:
    def test_peak_does_not_grow_with_the_rows_no_cycle_uses(self):
        """A step copies its cycles' rows of its columns, never every row of them.

        On a P1-like matrix of 20,000 rows with 100 positives, each cycle
        uses 200 rows, and a copy of every row of one step's columns would
        exceed the bound many times over.
        """
        rng = np.random.default_rng(3)
        widths = {"st_": 7, "sem_": 18, "ub_": 12, "sb_": 3, "pred_": 4}  # P1's 44 columns
        names = tuple(f"{prefix}{j}" for prefix, k in widths.items() for j in range(k))
        labels = np.zeros(20_000, np.int8)
        labels[rng.choice(len(labels), 100, replace=False)] = 1
        ds = Dataset(rng.normal(0, 1, (len(labels), len(names))), labels, names)
        cycles = Protocol(repeats=3, seed=1).cycles(ds.labels)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn.run_experiment(ds, ["b"], [ModelSpec("lin")], cycles)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        cycle_rows = max(len(train) + len(test) for train, test in cycles)
        assert cycle_rows == 200
        assert peak <= BYTES_PER_CYCLE_CELL * cycle_rows * len(names), peak


def synthetic_category_dataset(signal_category, n=240, seed=0):
    """Noise in every category except one, which carries the label."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    names, columns = [], []
    for cat, prefix in (("ST", "st_"), ("S", "sem_"), ("UB", "ub_"), ("SB", "sb_"), ("P", "pred_")):
        for j in range(2):
            names.append(f"{prefix}x{j}")
            if cat == signal_category and j == 0:
                columns.append(y + rng.normal(0, 0.3, n))
            else:
                columns.append(rng.normal(0, 1, n))
    return Dataset(
        features=np.column_stack(columns),
        labels=y.astype(np.int8),
        feature_names=tuple(names),
    )


class TestExperiments:
    def test_step_one_identical_across_modes(self):
        ds = synthetic_category_dataset("P")
        spec = ModelSpec("log", seed=1)
        cycles = Protocol(repeats=3, seed=4).cycles(ds.labels)
        a = fn.run_experiment(ds, ["A"], [spec], cycles)
        b = fn.run_experiment(ds, ["B"], [spec], cycles)
        assert fn.EXPERIMENT_STEPS["A"][0] == fn.EXPERIMENT_STEPS["B"][0] == "ST"
        assert a["ST"]["log"] == b["ST"]["log"]

    def test_predicted_signal_peaks_at_st_plus_p(self):
        ds = synthetic_category_dataset("P")
        steps = fn.run_experiment(ds, ["A"], [ModelSpec("log", seed=1)], Protocol(repeats=4, seed=4).cycles(ds.labels))
        values = {step: steps[step]["log"].auc for step in fn.EXPERIMENT_STEPS["A"]}
        assert max(values, key=values.get) == "ST+P"

    def test_mode_b_final_gains_over_baseline(self):
        ds = synthetic_category_dataset("P")
        steps = fn.run_experiment(ds, ["B"], [ModelSpec("log", seed=1)], Protocol(repeats=4, seed=4).cycles(ds.labels))
        auc = [steps[step]["log"].auc for step in fn.EXPERIMENT_STEPS["B"]]
        assert auc[-1] > auc[0]

    @pytest.mark.parametrize("modes, n_steps", [(["a", "b"], 8), (["A"], 6), (["b"], 5), ([], 1)])
    def test_each_distinct_step_evaluated_once(self, monkeypatch, modes, n_steps):
        # A and B share ST and ST+S, and B's last step is the full set
        ds = synthetic_category_dataset("P", n=120)
        specs = [ModelSpec("log", seed=1), ModelSpec("lin", seed=1)]
        evaluated = []
        run_cycles = fn.run_cycles

        def counted(dataset, spec, cycles, names):
            evaluated.append((tuple(names), spec.algorithm))
            return run_cycles(dataset, spec, cycles, names)

        monkeypatch.setattr(fn, "run_cycles", counted)
        steps = fn.run_experiment(ds, modes, specs, Protocol(repeats=2, seed=4).cycles(ds.labels))
        expected = [s for m in modes for s in fn.EXPERIMENT_STEPS[m.upper()]] + [fn.FULL_SET]
        assert list(steps) == list(dict.fromkeys(expected))
        assert len(steps) == n_steps
        assert len(evaluated) == len(set(evaluated)) == 2 * n_steps
        assert all(list(reports) == ["log", "lin"] for reports in steps.values())

    def test_full_set_is_every_column_in_order(self):
        ds = synthetic_category_dataset("P")
        full = fn.subset_by_categories(ds, fn.FULL_SET.split("+"))
        assert full == list(ds.feature_names)
        assert fn.FULL_SET == fn.EXPERIMENT_STEPS["B"][-1]


class TestFinalReport:
    def test_structural_signal_ranks_first(self):
        ds = synthetic_category_dataset("ST", n=300, seed=5)
        specs = [ModelSpec("log", seed=2)]
        cycles = Protocol(repeats=3, seed=6).cycles(ds.labels)
        reports = fn.run_experiment(ds, [], specs, cycles)[fn.FULL_SET]
        ranking = fn.final_report(ds, reports, specs, cycles, max_features=3)
        assert ranking.features[0] == "st_x0"
        assert reports["log"].auc > 0.8

    def test_report_class_names(self):
        ds = synthetic_category_dataset("ST", n=200, seed=6)
        reports = fn.run_experiment(
            ds, ["A"], [ModelSpec("log", seed=2)], Protocol(repeats=2, seed=6).cycles(ds.labels)
        )[fn.FULL_SET]
        assert list(reports["log"].to_json_dict(fn.CLASS_NAMES)["per_class"]) == ["not_fake", "fake"]

    def test_ranks_the_given_reports_without_evaluating_them(self, monkeypatch):
        ds = synthetic_category_dataset("ST", n=200, seed=6)
        specs = [ModelSpec("lin", seed=2), ModelSpec("log", seed=2)]
        cycles = Protocol(repeats=2, seed=6).cycles(ds.labels)
        reports = fn.run_experiment(ds, [], specs, cycles)[fn.FULL_SET]
        stepwise = []
        monkeypatch.setattr(fn, "run_cycles", None)  # final_report may not call it
        monkeypatch.setattr(fn, "forward_stepwise", lambda _, spec, *rest: stepwise.append(spec.algorithm))
        fn.final_report(ds, reports, specs, cycles, max_features=1)
        assert stepwise == [fn.rank_reports(reports)[0]]
