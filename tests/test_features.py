"""Entity measures against hand computations and a naive full-scan oracle."""

import math
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarwarn import corpus as cm
from polarwarn import earlywarning as ew
from polarwarn import fakenews as fn
from polarwarn import features as feat
from polarwarn import thresholds as th

from conftest import (comment, entity_rows, members, mention, post, read_records, source, tiny_warning,
                      write_corpus)


def corpus_with_sentiments(tmp_path, sentiments, comments_by_post=None):
    """One official source, one post per sentiment, all mentioning 'topic'."""
    posts = [post(f"p{i}", sentiment=s, timestamp=i) for i, s in enumerate(sentiments)]
    comments = []
    k = 0
    for pid, sent_list in (comments_by_post or {}).items():
        for s in sent_list:
            comments.append(comment(f"c{k}", pid, f"u{k}", sentiment=s))
            k += 1
    mentions = [mention("topic", p["id"]) for p in posts]
    directory = write_corpus(tmp_path / "f", [source("s1")], posts, comments, mentions)
    return cm.load_corpus(directory)


def topic_features(corpus):
    """The entity_features values of 'topic', with every mention counted."""
    sample = cm.select_entities(corpus, 0.0, 1)
    return {f["entity"]: f for f in entity_rows(feat.entity_features(corpus, sample))}["topic"]


class TestPresentationDistance:
    def test_single_post_is_zero(self, tmp_path):
        corpus = corpus_with_sentiments(tmp_path, [0.4])
        assert topic_features(corpus)["presentation_distance"] == 0.0

    def test_spread(self, tmp_path):
        corpus = corpus_with_sentiments(tmp_path, [-0.8, 0.1, 0.6])
        assert topic_features(corpus)["presentation_distance"] == pytest.approx(1.4)

    def test_extremes(self, tmp_path):
        corpus = corpus_with_sentiments(tmp_path, [-1.0, 1.0])
        assert topic_features(corpus)["presentation_distance"] == pytest.approx(2.0)

    @given(st.lists(st.floats(min_value=-1, max_value=1), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_range_and_reorder_invariance(self, sentiments):
        spread = max(sentiments) - min(sentiments)
        assert 0.0 <= spread <= 2.0
        assert spread == max(reversed(sentiments)) - min(reversed(sentiments))


class TestResponseDistance:
    def test_consonant_response_all_zero(self, tmp_path):
        corpus = corpus_with_sentiments(tmp_path, [0.5], {"p0": [0.5, 0.5]})
        f = topic_features(corpus)
        assert f["response_dist_global"] == f["response_dist_min"] == f["response_dist_max"] == 0.0
        assert f["response_dist_mean"] == f["response_dist_std"] == 0.0

    def test_hand_computation_single_post(self, tmp_path):
        corpus = corpus_with_sentiments(tmp_path, [0.2], {"p0": [-0.4, 0.0]})
        f = topic_features(corpus)
        assert f["response_dist_global"] == pytest.approx(0.4)
        assert f["response_dist_min"] == f["response_dist_max"] == f["response_dist_mean"] == pytest.approx(0.4)
        assert f["response_dist_std"] == 0.0

    def test_hand_computation_two_posts(self, tmp_path):
        # r(p0) = |0.3 - 0.2| = 0.1, r(p1) = |0.0 - 0.5| = 0.5
        corpus = corpus_with_sentiments(
            tmp_path, [0.3, 0.0], {"p0": [0.2], "p1": [0.5]}
        )
        f = topic_features(corpus)
        assert f["response_dist_min"] == pytest.approx(0.1)
        assert f["response_dist_max"] == pytest.approx(0.5)
        assert f["response_dist_mean"] == pytest.approx(0.3)

    def test_no_scored_comments_leaves_fields_none(self, tmp_path):
        corpus = corpus_with_sentiments(tmp_path, [0.2], {"p0": [None]})
        f = topic_features(corpus)
        assert f["comments_count"] == 1
        assert f["comment_sent_mean"] is None and f["comment_sent_std"] is None
        assert f["response_dist_min"] is None and f["response_dist_global"] is None
        assert f["missing"] == ("comment_sentiment",)


class TestEngagedFraction:
    def build(self, tmp_path, member_comments, elsewhere_comments):
        """One member post and one non-member post; u1 comments on both."""
        posts = [post("pm", sentiment=0.1), post("px", sentiment=0.2, timestamp=5)]
        comments = []
        for i in range(member_comments):
            comments.append(comment(f"cm{i}", "pm", "u1", timestamp=i))
        for i in range(elsewhere_comments):
            comments.append(comment(f"cx{i}", "px", "u1", timestamp=i))
        directory = write_corpus(
            tmp_path / "e", [source("s1")], posts, comments, [mention("topic", "pm")]
        )
        return cm.load_corpus(directory)

    def test_exactly_95_percent_is_not_engaged(self, tmp_path):
        corpus = self.build(tmp_path, member_comments=19, elsewhere_comments=1)
        assert topic_features(corpus)["engaged_fraction"] == 0.0

    def test_above_95_percent_is_engaged(self, tmp_path):
        # 20 of 21 comments on member posts: 0.9524 > 0.95
        corpus = self.build(tmp_path, member_comments=20, elsewhere_comments=1)
        assert topic_features(corpus)["engaged_fraction"] == 1.0

    def test_sole_commenter_fully_engaged(self, tmp_path):
        corpus = self.build(tmp_path, member_comments=3, elsewhere_comments=0)
        assert topic_features(corpus)["engaged_fraction"] == 1.0

    def test_no_commenters_is_zero(self, tmp_path):
        corpus = corpus_with_sentiments(tmp_path, [0.1])
        assert topic_features(corpus)["engaged_fraction"] == 0.0

    def test_outside_comment_never_increases(self, tmp_path):
        before = self.build(tmp_path, member_comments=20, elsewhere_comments=0)
        after = self.build(tmp_path, member_comments=20, elsewhere_comments=1)
        assert topic_features(after)["engaged_fraction"] <= topic_features(before)["engaged_fraction"]

    def test_matches_generator_truth_exactly(self, small_synth):
        corpus, truth, _ = small_synth
        for f in entity_rows(feat.entity_features(corpus, cm.select_e1(corpus))):
            assert f["engaged_fraction"] == truth.entities[f["entity"]].u_e, f["entity"]

    def test_planted_cohorts_are_engaged(self, small_synth):
        corpus, truth, _ = small_synth
        some = 0
        for entity, t in truth.entities.items():
            if t.disputed and t.cohort:
                assert set(t.cohort) <= set(t.engaged_users)
                some += 1
        assert some > 0


def test_sums_and_rows_follow_post_id_order(tmp_path):
    # ids p0..p11 sort as p0, p1, p10, p11, p2, ..., p9, unlike their file
    # order, and the sentiment sum depends on the order of addition
    sentiments = [0.0] * 12
    sentiments[2], sentiments[10], sentiments[11] = 0.3, 0.2, 0.1
    posts = [post(f"p{i}", "s2" if i % 2 else "s1", sentiment=s) for i, s in enumerate(sentiments)]
    directory = write_corpus(tmp_path / "ids", [source("s1"), source("s2", "fake")], posts, [],
                             [mention("topic", p["id"]) for p in posts])
    corpus = cm.load_corpus(directory)
    sample = cm.select_e1(corpus)
    ids = sorted(p["id"] for p in posts)
    in_id_order, in_file_order = 0.0, 0.0
    for pid in ids:
        in_id_order += sentiments[int(pid[1:])]
    for s in sentiments:
        in_file_order += s
    assert in_id_order != in_file_order
    assert feat.entity_features(corpus, sample).columns["post_sent_mean"][0] == in_id_order / len(ids)
    dataset = fn.build_post_dataset(corpus, cm.posts_for_entities(corpus, sample), tiny_warning(corpus, sample))
    assert list(dataset.row_ids) == ids


def naive_entity_features(records, min_confidence, entity):
    """Independent recomputation by brute scans over the raw record lists."""
    member = {m["post_id"] for m in records.mentions
              if m["entity"] == entity and m["confidence"] >= min_confidence}
    sentiments = [p["sentiment"] for p in records.posts.values() if p["id"] in member]
    all_comments = [c for c in records.comments if c["post_id"] in member]
    scored = [c["sentiment"] for c in all_comments if c["sentiment"] is not None]
    out = {
        "occurrences": len(member),
        "post_sent_min": min(sentiments),
        "post_sent_max": max(sentiments),
        "post_sent_mean": sum(sentiments) / len(sentiments),
        "presentation_distance": max(sentiments) - min(sentiments),
        "n_negative_posts": sum(1 for s in sentiments if s < 0),
        "comments_count": len(all_comments),
        "n_negative_comments": sum(1 for s in scored if s < 0),
    }
    mean = out["post_sent_mean"]
    out["post_sent_std"] = math.sqrt(sum((s - mean) * (s - mean) for s in sentiments) / len(sentiments))
    commenters = {c["user_id"] for c in all_comments}
    engaged = 0
    for user in commenters:
        mine = [c for c in records.comments if c["user_id"] == user]
        on_member = sum(1 for c in mine if c["post_id"] in member)
        if on_member > 0.95 * len(mine):
            engaged += 1
    out["engaged_fraction"] = engaged / len(commenters) if commenters else 0.0
    if scored:
        per_post = []
        for pid in member:
            cs = [c["sentiment"] for c in all_comments
                  if c["post_id"] == pid and c["sentiment"] is not None]
            if cs:
                per_post.append(abs(records.posts[pid]["sentiment"] - sum(cs) / len(cs)))
        out["response_dist_min"] = min(per_post)
        out["response_dist_max"] = max(per_post)
        out["response_dist_mean"] = sum(per_post) / len(per_post)
        out["response_dist_global"] = abs(
            sum(sentiments) / len(sentiments) - sum(scored) / len(scored)
        )
    return out


def test_entity_features_match_naive_oracle_every_entity(oracle_dir):
    corpus = cm.load_corpus(oracle_dir)
    sample = cm.select_e1(corpus)
    computed = {f["entity"]: f for f in entity_rows(feat.entity_features(corpus, sample))}
    assert set(computed) == set(sample.entities)
    records = read_records(oracle_dir)
    for entity in sorted(sample.entities):
        expected = naive_entity_features(records, 0.6, entity)
        got = computed[entity]
        for key, value in expected.items():
            assert got[key] == pytest.approx(value, abs=1e-12), (entity, key)


def _lsum(values):
    """Left-to-right float sum, as the built-in ``sum`` adds before Python 3.12."""
    return reduce(add, values, 0)


def reference_std(values, mean):
    return math.sqrt(_lsum((v - mean) * (v - mean) for v in values) / len(values))


@given(st.integers(1, 8).flatmap(lambda size: st.tuples(
    st.just(size), st.lists(st.tuples(st.integers(0, size - 1), st.floats(-1e9, 1e9)), max_size=40))))
@settings(max_examples=200, deadline=None)
def test_grouped_matches_left_to_right_oracle(case):
    # unsorted groups, some of them empty; every value compared bit for bit
    size, rows = case
    group = np.array([g for g, _ in rows], dtype=np.intp)
    values = np.array([v for _, v in rows], dtype=float)
    got = feat._grouped_std(group, values, size)
    assert [x.tobytes() for x in feat._grouped(group, values, size)] == [x.tobytes() for x in got[:3]]
    for g in range(size):
        members = [v for h, v in rows if h == g]
        total = float(_lsum(members))
        mean = total / len(members) if members else 0.0
        std = reference_std(members, mean) if members else 0.0
        assert [float(x[g]).hex() for x in got] == [
            float(len(members)).hex(), total.hex(), mean.hex(), std.hex()], (g, members)


def reference_comment_sentiments(corpus, rows):
    """Comments on the posts ``rows``: their count, their scored sentiments, and each post's count of those."""
    comments, count = cm.group_positions(corpus.comment_offsets, rows)
    sentiment = corpus.comments.sentiment[comments]
    scored = ~np.isnan(sentiment)
    per_post = np.bincount(np.repeat(np.arange(len(rows)), count)[scored], minlength=len(rows))
    return len(comments), sentiment[scored].tolist(), per_post.tolist()


def reference_distances(post_sentiments, scored, per_post):
    """r(p) over the posts with scored comments."""
    distances = []
    start = 0
    for sentiment, k in zip(post_sentiments, per_post):
        if k:
            comments = scored[start:start + k]
            distances.append(abs(sentiment - _lsum(comments) / len(comments)))
            start += k
    return distances


def reference_entity_features(corpus, by_entity):
    """The entity-by-entity loop that ``entity_features`` replaces with grouped kernels."""
    post_fake = corpus.post_is_fake()
    disputed = {e for e, rows in by_entity.items() if 0 < np.count_nonzero(post_fake[rows]) < len(rows)}
    posts_of = list(by_entity.values())
    n = len(posts_of)
    comments, count = cm.group_positions(corpus.comment_offsets, np.concatenate(posts_of))
    entity = np.repeat(np.arange(n), [len(r) for r in posts_of])
    keys, on_entity = np.unique(corpus.comments.user[comments] * n + np.repeat(entity, count),
                                return_counts=True)
    engaged = on_entity > 0.95 * corpus.user_comment_counts[keys // n]
    commenters = np.bincount(keys % n, minlength=n).tolist()
    devoted = np.bincount(keys[engaged] % n, minlength=n).tolist()
    out = []
    for e, (entity, rows) in enumerate(by_entity.items()):
        sentiments = corpus.posts.sentiment[rows].tolist()
        mean = _lsum(sentiments) / len(sentiments)
        comments_count, scored, per_post = reference_comment_sentiments(corpus, rows)
        f = {
            "entity": entity,
            "occurrences": len(sentiments),
            "post_sent_min": min(sentiments),
            "post_sent_max": max(sentiments),
            "post_sent_mean": mean,
            "post_sent_std": reference_std(sentiments, mean),
            "presentation_distance": max(sentiments) - min(sentiments),
            "n_negative_posts": sum(1 for s in sentiments if s < 0),
            "engaged_fraction": devoted[e] / commenters[e] if commenters[e] else 0.0,
            "disputed": 1 if entity in disputed else 0,
            "comments_count": comments_count,
            "n_negative_comments": sum(1 for s in scored if s < 0),
        }
        comment_fields = ("comment_sent_min", "comment_sent_max", "comment_sent_mean", "comment_sent_std",
                          "response_dist_min", "response_dist_max", "response_dist_mean", "response_dist_std",
                          "response_dist_global")
        f.update(dict.fromkeys(comment_fields))
        if scored:
            cmean = _lsum(scored) / len(scored)
            f["comment_sent_min"] = min(scored)
            f["comment_sent_max"] = max(scored)
            f["comment_sent_mean"] = cmean
            f["comment_sent_std"] = reference_std(scored, cmean)
            distances = reference_distances(sentiments, scored, per_post)
            rmean = _lsum(distances) / len(distances)
            f["response_dist_min"] = min(distances)
            f["response_dist_max"] = max(distances)
            f["response_dist_mean"] = rmean
            f["response_dist_std"] = reference_std(distances, rmean)
            f["response_dist_global"] = abs(mean - cmean)
        f.update(controversy=None, perception=None, captivation=None,
                 missing=() if scored else ("comment_sentiment",))
        out.append(f)
    return out


def reference_attention_curve(corpus, by_entity, features, grid):
    """The per-cut loop over entities that ``attention_curve`` replaces with one per-post array."""
    dp = [(f["presentation_distance"], by_entity[f["entity"]]) for f in features]
    n_comments = np.diff(corpus.comment_offsets)
    rows = []
    for delta in grid:
        posts = np.zeros(len(corpus.posts), bool)
        for value, member in dp:
            if value >= delta:
                posts[member] = True
        n = int(np.count_nonzero(posts))
        if n:
            rows.append((delta, sum(corpus.posts.likes[posts].tolist()) / n,
                         sum(n_comments[posts].tolist()) / n))
        else:
            rows.append((delta, 0.0, 0.0))
    return rows


def reference_lags(corpus, by_entity):
    """The entity-by-entity loop that ``temporal_lag_histogram`` replaces with ``np.minimum.at``."""
    post_fake = corpus.post_is_fake()
    lags = []
    for rows in by_entity.values():
        fake = post_fake[rows]
        fake_ts, official_ts = corpus.posts.timestamp[rows[fake]], corpus.posts.timestamp[rows[~fake]]
        if not len(fake_ts) or not len(official_ts) or fake_ts.min() <= official_ts.min():
            continue
        lags.append((int(fake_ts.min()) - int(official_ts.min())) / 3600.0)
    return tuple(lags)


def same_bits(got, expected):
    # repr tells 0.0 from -0.0 and 1 from 1.0, which == does not
    assert got == expected
    assert list(map(repr, got)) == list(map(repr, expected))


@pytest.mark.parametrize("selection", [
    {"min_confidence": 0.6, "min_posts": 1},
    {"min_confidence": 0.9, "min_posts": 30, "require_comment_sentiment": True},
], ids=["E1", "E2-style"])
def test_entity_measures_match_reference_loops(oracle_corpus, selection):
    corpus = oracle_corpus
    sample = cm.select_entities(corpus, **selection)
    by_entity = members(sample)
    table = feat.entity_features(corpus, sample)
    assert len(table) == len(sample.entities)
    features = entity_rows(table)
    same_bits(features, reference_entity_features(corpus, by_entity))
    grid = [-math.inf, *(i / 100 for i in range(0, 200, 5)), math.nan]
    same_bits(feat.attention_curve(corpus, sample, table, grid),
              reference_attention_curve(corpus, by_entity, features, grid))
    lags = feat.temporal_lag_histogram(corpus, sample).lags_hours
    assert lags and lags == reference_lags(corpus, by_entity)


def test_signed_zeros_pick_as_min_and_max_do(tmp_path):
    # ids sort p0, p1: min and max keep the first of equal values
    corpus = corpus_with_sentiments(tmp_path, [0.0, -0.0], {"p0": [-0.0, 0.0], "p1": [0.0]})
    sample = cm.select_entities(corpus, 0.0, 1)
    got = entity_rows(feat.entity_features(corpus, sample))
    same_bits(got, reference_entity_features(corpus, members(sample)))
    assert repr((got[0]["post_sent_min"], got[0]["comment_sent_min"])) == "(0.0, -0.0)"


def test_indicator_boundaries(small_synth):
    corpus, _, _ = small_synth
    sample = cm.select_e1(corpus)
    feats = feat.entity_features(corpus, sample)
    target = entity_rows(feats)[0]

    cuts = {th.MEASURE_PRESENTATION: target["presentation_distance"],  # boundary: >= flips to 1
            th.MEASURE_ENGAGEMENT: target["engaged_fraction"]}
    target = entity_rows(ew.with_indicators(feats, cuts))[0]
    assert target["controversy"] == 1
    assert target["captivation"] == 1


def test_indicators_monotone_in_measure(small_synth):
    corpus, _, _ = small_synth
    sample = cm.select_e1(corpus)

    feats = ew.with_indicators(feat.entity_features(corpus, sample), {th.MEASURE_PRESENTATION: 0.5})
    ordered = sorted(entity_rows(feats), key=lambda f: f["presentation_distance"])
    seen_one = False
    for f in ordered:
        if f["controversy"] == 1:
            seen_one = True
        elif seen_one:
            pytest.fail("controversy flipped back to 0 as presentation distance grew")


class TestAttentionCurve:
    def test_single_entity_flat_then_zero(self, tmp_path):
        corpus = corpus_with_sentiments(tmp_path, [0.0, 0.5])  # d_p = 0.5
        sample = cm.select_e1(corpus)
        feats = feat.entity_features(corpus, sample)
        rows = feat.attention_curve(corpus, sample, feats, [0.0, 0.5, 0.6])
        assert rows[0][1:] == rows[1][1:]
        assert rows[2][1:] == (0.0, 0.0)

    def test_grid_zero_gives_global_means(self, tiny_corpus, tiny_dir):
        sample = cm.select_e1(tiny_corpus)
        feats = feat.entity_features(tiny_corpus, sample)
        rows = feat.attention_curve(tiny_corpus, sample, feats, [0.0])
        member = {"p1", "p2", "p3"}
        posts = read_records(tiny_dir).posts
        expected_likes = sum(posts[p]["likes"] for p in member) / 3
        assert rows[0][1] == pytest.approx(expected_likes)

    def test_non_decreasing_over_gap(self, tmp_path):
        posts = [
            post("a1", sentiment=0.0, likes=1), post("a2", sentiment=0.1, likes=1),
            post("b1", sentiment=-0.9, likes=500), post("b2", sentiment=0.9, likes=500),
        ]
        mentions = [mention("dull", "a1"), mention("dull", "a2"),
                    mention("hot", "b1"), mention("hot", "b2")]
        directory = write_corpus(tmp_path / "att", [source("s1")], posts, [], mentions)
        corpus = cm.load_corpus(directory)
        sample = cm.select_e1(corpus)
        feats = feat.entity_features(corpus, sample)
        rows = feat.attention_curve(corpus, sample, feats, [0.0, 1.0])
        assert rows[1][1] > rows[0][1]


def area(hist):
    return sum(d * (b - a) for d, a, b in zip(hist.density, hist.edges, hist.edges[1:]))


class TestResponseDistribution:
    def make_features(self, values, controversy=1, disputed=1):
        """A table of the columns response_distribution reads, one entity per value."""
        n = len(values)
        return feat.EntityTable(
            entities=tuple(f"e{i}" for i in range(n)),
            columns={"disputed": np.full(n, disputed, np.int8), "response_dist_mean": np.array(values, float),
                     "controversy": np.full(n, float(controversy))},
            engagement=(np.zeros(0, np.int64), np.zeros(0, bool)),
        )

    def test_point_mass_single_bin(self):
        hist = feat.response_distribution(self.make_features([0.5] * 7), True, True)
        assert sum(1 for d in hist.density if d > 0) == 1
        assert area(hist) == pytest.approx(1.0)

    def test_empty_class_flagged(self):
        hist = feat.response_distribution(self.make_features([]), False, True)
        assert len(hist.edges) == 21 and hist.density == (0.0,) * 20

    @given(st.lists(st.floats(min_value=0, max_value=2), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_area_is_one(self, values):
        hist = feat.response_distribution(self.make_features(values), True, True)
        assert area(hist) == pytest.approx(1.0)


class TestTemporalLag:
    def build(self, tmp_path, official_ts, fake_ts):
        posts, mentions_ = [], []
        for i, ts in enumerate(official_ts):
            posts.append(post(f"o{i}", "s1", ts))
            mentions_.append(mention("topic", f"o{i}"))
        for i, ts in enumerate(fake_ts):
            posts.append(post(f"f{i}", "s2", ts))
            mentions_.append(mention("topic", f"f{i}"))
        directory = write_corpus(
            tmp_path / "lag", [source("s1"), source("s2", "fake")], posts, [], mentions_
        )
        return cm.load_corpus(directory)

    def test_one_hour_lag(self, tmp_path):
        corpus = self.build(tmp_path, [0], [3600])
        hist = feat.temporal_lag_histogram(corpus, cm.select_e1(corpus), bin_hours=1.0)
        assert hist.lags_hours == (1.0,)
        assert sum(hist.counts) == 1

    def test_fake_first_excluded_and_counted(self, tmp_path):
        corpus = self.build(tmp_path, [7200], [3600])
        hist = feat.temporal_lag_histogram(corpus, cm.select_e1(corpus))
        assert hist.lags_hours == ()
        assert sum(hist.counts) == 0

    def test_never_fake_counted(self, tmp_path):
        corpus = self.build(tmp_path, [0, 100], [])
        hist = feat.temporal_lag_histogram(corpus, cm.select_e1(corpus))
        assert hist.lags_hours == ()
        assert sum(hist.counts) == 0

    def test_planted_lags_all_within_bound(self, small_synth):
        corpus, truth, _ = small_synth
        sample = cm.select_e1(corpus)
        hist = feat.temporal_lag_histogram(corpus, sample, bin_hours=1.0)
        assert len(hist.lags_hours) == len(truth.disputed)
        assert max(hist.lags_hours) <= 24.0
        for entity, t in truth.entities.items():
            if t.disputed:
                assert t.lag_hours <= 24.0
