"""Generator determinism, planted-truth consistency, config validation."""

import hashlib
import json
import math
from dataclasses import fields
from itertools import compress

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from polarwarn import corpus as cm
from polarwarn import synth
from polarwarn.cli import EXIT_CONFIG, main

TOY = synth.SynthConfig(
    n_entities=40, n_posts=600, n_users=300, n_comments=4000,
    head_entities=4, head_posts_min=30, head_posts_max=40, seed=21,
)


def file_bytes(directory):
    return {
        name: (directory / name).read_bytes()
        for name in ("sources.jsonl", "posts.jsonl", "comments.jsonl", "mentions.jsonl", "truth.json")
    }


def test_fixed_seed_byte_identical(tmp_path):
    synth.generate(TOY, tmp_path / "a")
    synth.generate(TOY, tmp_path / "b")
    assert file_bytes(tmp_path / "a") == file_bytes(tmp_path / "b")


# sha256 of each TOY file, computed with numpy 2.4.6 before the generator
# drew its uniforms through rng.random().  numpy does not promise the same
# Generator streams across releases, so a numpy upgrade may need new values.
TOY_SHA256 = {
    "sources.jsonl": "9b103e0bd846cad3d3d9dcc9c71b28f0ba4a7877f42a26fba3ee91c8c1ffd18d",
    "posts.jsonl": "1dbbc78e37cd8c20af5dcb6e17bb33d3038a53a80dfdac0e66dfff4159340eae",
    "comments.jsonl": "52c988b9dbccf5ea780d41e93fee62b3ce62a86fb587782f050f1b47ec56edcc",
    "mentions.jsonl": "dd48d99ac2a7f0112f03331060898a70047755c03f04651ef99df496011fa656",
    "truth.json": "a87eefab77292e9d34a2469fc7ee58d7aa97a3dcba6602c5577223e97d34aca1",
}


def test_toy_corpus_hashes_pinned(tmp_path):
    synth.generate(TOY, tmp_path / "a")
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in file_bytes(tmp_path / "a").items()}
    assert digests == TOY_SHA256


# Rows for each line formatter: unicode text with the characters JSON
# escapes or passes through, sentiments that may be null, ints over int64.
TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\r\t\u2028\u2029\ufeff\U0001f600'),
                         st.characters()))
INT = st.integers(-2**63, 2**63 - 1)
FLOAT = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                                   -1.7976931348623157e308, 1e16, 1e-7]))
SENTIMENT = st.one_of(st.none(), FLOAT, INT)
LINE_ROWS = {
    "sources": (synth._source_line, {"id": TEXT, "name": TEXT, "category": TEXT}),
    "posts": (synth._post_line, {"id": TEXT, "source_id": TEXT, "timestamp": INT, "text": TEXT,
                                 "sentiment": SENTIMENT, "likes": INT, "shares": INT}),
    "comments": (synth._comment_line, {"id": TEXT, "post_id": TEXT, "user_id": TEXT, "timestamp": INT,
                                       "text": TEXT, "sentiment": SENTIMENT, "likes": INT, "replies": INT}),
    "mentions": (synth._mention_line, {"entity": TEXT, "post_id": TEXT, "confidence": FLOAT}),
}


@pytest.mark.parametrize("name", sorted(LINE_ROWS))
@given(data=st.data())
def test_line_formatter_matches_json_dumps(name, data):
    line, row_fields = LINE_ROWS[name]
    drawn = data.draw(st.fixed_dictionaries(row_fields))
    row = {key: drawn[key] for key in row_fields}  # the generator's key order
    assert line(*row.values()) == json.dumps(row, ensure_ascii=False)


BOUND = st.one_of(st.floats(-1e300, 1e300), st.integers(-10**6, 10**6))


@given(seed=st.integers(0, 2**64 - 1), a=BOUND, b=BOUND)
def test_uniform_matches_generator_uniform(seed, a, b):
    # -0.0 sorts before 0.0: Generator.uniform rejects the bounds (0.0, -0.0)
    lo, hi = sorted((a, b), key=lambda v: (v, math.copysign(1.0, v)))
    assume(math.isfinite(float(hi) - float(lo)))
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert synth._uniform(ours.random, lo, hi).hex() == theirs.uniform(lo, hi).hex()
    assert ours.random() == theirs.random()


# one call each: the replayed integers(n) and random(), and the numpy draws
# the generator still makes while the replay holds the 32-bit buffer
DRAW_CALLS = st.lists(st.one_of(
    st.tuples(st.just("integers"), st.integers(1, 2**32 - 1)),
    # numpy rejects a 32-bit value with probability (2**32 mod n) / 2**32, here 1/4 to 1/2
    st.tuples(st.just("integers"), st.integers(2**31 + 1, 3 * 2**30)),
    st.tuples(st.just("random")),
    st.tuples(st.just("normal"), st.floats(-1, 1), st.floats(0, 2)),
    st.tuples(st.just("poisson"), st.floats(0, 100)),  # lam >= 10 takes numpy's other method
    st.tuples(st.just("gamma"), st.floats(0.1, 10), st.floats(0.1, 10)),  # so does shape < 1
), max_size=40)


@given(seed=st.integers(0, 2**64 - 1), buffered=st.booleans(), calls=DRAW_CALLS)
def test_replay_matches_generator(seed, buffered, calls):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:  # integers(2**32) takes one 32-bit value: the high half stays buffered
        assert ours.integers(2**32) == theirs.integers(2**32)
    assert ours.bit_generator.state["has_uint32"] == buffered
    draws = synth._Replay(ours)
    for name, *args in calls:
        if name == "integers":
            value, expected = draws.integers(*args), theirs.integers(*args)
        elif name == "random":
            value, expected = draws.random(), theirs.random()
        else:
            value, expected = getattr(ours, name)(*args), getattr(theirs, name)(*args)
        assert value == expected, (name, args)
    draws.store()
    assert [ours.integers(1000), ours.integers(7), ours.random()] == \
        [theirs.integers(1000), theirs.integers(7), theirs.random()]
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_different_seed_differs(tmp_path):
    synth.generate(TOY, tmp_path / "a")
    other = synth.SynthConfig(**{**TOY.to_json_dict(), "seed": 22})
    synth.generate(other, tmp_path / "b")
    assert file_bytes(tmp_path / "a") != file_bytes(tmp_path / "b")


def test_ground_truth_matches_generate(tmp_path):
    written = synth.generate(TOY, tmp_path / "a")
    recomputed = synth.generate(TOY, tmp_path / "b")
    assert recomputed.to_json_dict() == written.to_json_dict()
    loaded = synth.load_truth(tmp_path / "a" / "truth.json")
    assert loaded.to_json_dict() == written.to_json_dict()


def test_zero_disputed_fraction_yields_no_disputed(tmp_path):
    config = synth.SynthConfig(**{**TOY.to_json_dict(), "disputed_fraction": 0.0})
    synth.generate(config, tmp_path / "z")
    corpus = cm.load_corpus(tmp_path / "z")
    sample = cm.select_e1(corpus)
    assert frozenset(compress(sample.entities, cm.disputed_entities(corpus, sample))) == frozenset()
    assert corpus.breakdown()["fake"]["posts"] == 0


def test_entity_count_and_lag_bounds(tmp_path):
    truth = synth.generate(TOY, tmp_path)
    assert len(truth.entities) == TOY.n_entities
    for t in truth.entities.values():
        if t.disputed:
            assert t.lag_hours is not None
            assert 0 < t.lag_hours <= 24.0
        else:
            assert t.lag_hours is None


def test_planted_presentation_gap(small_synth):
    corpus, truth, _ = small_synth
    config = truth.config
    wide = [t.d_p for t in truth.entities.values() if t.profile == "wide_disputed"]
    plain = [t.d_p for t in truth.entities.values() if t.profile == "plain"]
    expected_gap = (
        config.disputed_sentiment_high - config.disputed_sentiment_low
    ) - config.undisputed_spread
    assert np.mean(wide) - np.mean(plain) >= expected_gap - 0.05
    for t in truth.entities.values():
        if t.profile == "wide_disputed":
            assert t.d_p == pytest.approx(
                config.disputed_sentiment_high - config.disputed_sentiment_low
            )


def test_truth_d_p_matches_feature_pipeline(small_synth):
    corpus, truth, _ = small_synth
    from polarwarn import features as feat

    table = feat.entity_features(corpus, cm.select_e1(corpus))
    for entity, d_p in list(zip(table.entities, table.columns["presentation_distance"].tolist()))[:30]:
        assert d_p == pytest.approx(truth.entities[entity].d_p, abs=1e-12)


def test_infeasible_cohorts_rejected():
    config = synth.SynthConfig(**{**TOY.to_json_dict(), "n_users": 20})
    with pytest.raises(synth.SynthConfigError, match="infeasible"):
        config.validate()


FLOAT_FIELDS = [f.name for f in fields(synth.SynthConfig) if f.type == "float"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_float_rejected(name, value):
    config = synth.SynthConfig(**{**TOY.to_json_dict(), name: value})
    with pytest.raises(synth.SynthConfigError, match=f"^{name} must be a finite number"):
        config.validate()


@pytest.mark.parametrize("overrides, key", [
    ({"fake_lag_hours_low": 5.0, "fake_lag_hours_high": 4.0}, "fake_lag_hours_low"),
    ({"divergent_offset_low": 0.7, "divergent_offset_high": 0.3}, "divergent_offset_low"),
    # no undisputed entity draws an offset, but the range is still reversed
    ({"divergent_offset_low": 0.7, "divergent_offset_high": 0.3, "disputed_fraction": 1.0},
     "divergent_offset_low"),
    ({"undisputed_spread": -0.1}, "undisputed_spread"),
    ({"disputed_sentiment_low": 0.2, "disputed_sentiment_high": 0.8}, "disputed_sentiment_low"),
    ({"disputed_sentiment_low": -0.8, "disputed_sentiment_high": -0.2}, "disputed_sentiment_high"),
    # each below was refused only by a numpy call inside the generator
    ({"n_official_sources": 0}, "n_official_sources"),
    ({"n_fake_sources": -1}, "n_fake_sources"),
    ({"engaged_cohort_size": 0}, "engaged_cohort_size"),
    ({"audience_size_min": -1}, "audience_size_min"),
    ({"audience_size": 0}, "audience_size"),
    ({"n_comments": -1}, "n_comments"),
    ({"consonant_noise": -1.0}, "consonant_noise"),
    ({"head_posts_max": 20}, "head_posts_min"),
    ({"seed": -1}, "seed"),
    # a disputed head entity needs two posts, any head entity one
    ({"head_posts_min": 1, "head_posts_max": 1}, "head_posts_min"),
    ({"head_posts_min": 0, "head_posts_max": 0, "disputed_fraction": 0.0}, "head_posts_min"),
])
def test_reversed_or_negative_range_rejected(overrides, key):
    config = synth.SynthConfig(**{**TOY.to_json_dict(), **overrides})
    with pytest.raises(synth.SynthConfigError, match=f"^{key}"):
        config.validate()


def test_empty_ranges_accepted(tmp_path):
    config = synth.SynthConfig(**{
        **TOY.to_json_dict(), "fake_lag_hours_low": 3.0, "fake_lag_hours_high": 3.0,
        "divergent_offset_low": 0.5, "divergent_offset_high": 0.5, "undisputed_spread": 0.0,
        "disputed_sentiment_low": 0.0,
    })
    truth = synth.generate(config, tmp_path)
    assert {t.lag_hours for t in truth.entities.values() if t.disputed} == {3.0}


@pytest.mark.parametrize("overrides", [
    {"head_posts_min": 2, "head_posts_max": 2},
    {"head_posts_min": 1, "head_posts_max": 1, "disputed_fraction": 0.0},
])
def test_fewest_head_posts_accepted(tmp_path, overrides):
    truth = synth.generate(synth.SynthConfig(**{**TOY.to_json_dict(), **overrides}), tmp_path)
    heads = [t for t in truth.entities.values() if t.head]
    assert len(heads) == TOY.head_entities
    assert {t.n_posts for t in heads} == {overrides["head_posts_min"]}


def test_cli_synth_rejects_infinite_spread(tmp_path):
    (tmp_path / "synth.json").write_text('{"undisputed_spread": Infinity}')
    out = tmp_path / "data"
    code = main(["synth", "--config", str(tmp_path / "synth.json"), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not (out / "posts.jsonl").exists()


@pytest.mark.parametrize("value", ["10", True, 600.0])
def test_non_integer_count_rejected(value):
    config = synth.SynthConfig(**{**TOY.to_json_dict(), "n_posts": value})
    with pytest.raises(synth.SynthConfigError, match="^n_posts must be an integer"):
        config.validate()


def test_cli_synth_rejects_string_count(tmp_path):
    (tmp_path / "synth.json").write_text('{"n_posts": "10"}')
    out = tmp_path / "data"
    code = main(["synth", "--config", str(tmp_path / "synth.json"), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not (out / "posts.jsonl").exists()


def test_unknown_key_rejected():
    with pytest.raises(synth.SynthConfigError, match="unknown synth config key.*: n_post$"):
        synth.SynthConfig.from_json_dict({"n_post": 10, "seed": 3})


def test_post_budget_shortfall_rejected(tmp_path):
    config = synth.SynthConfig(**{**TOY.to_json_dict(), "n_posts": 100})
    with pytest.raises(synth.SynthConfigError, match="n_posts"):
        synth.generate(config, tmp_path)
    assert list(tmp_path.iterdir()) == []  # the files are opened only after the check


def test_config_json_round_trip():
    doc = TOY.to_json_dict()
    assert synth.SynthConfig.from_json_dict(doc) == TOY
