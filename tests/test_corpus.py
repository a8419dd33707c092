"""Corpus loading, validation, indexing and sampling."""

import gc
import json
from itertools import compress

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polarwarn import corpus as cm
from polarwarn import synth

from conftest import comment, members, mention, post, post_ids, read_records, source, write_corpus


def test_identity_ingestion(tiny_corpus):
    assert len(tiny_corpus.sources) == 2
    assert len(tiny_corpus.posts) == 3
    assert len(tiny_corpus.comments) == 4
    assert len(tiny_corpus.mentions) == 4
    breakdown = tiny_corpus.breakdown()
    assert breakdown["official"]["posts"] == 2
    assert breakdown["fake"]["posts"] == 1
    assert breakdown["official"]["comments"] == 3
    assert breakdown["official"]["likes"] == 14
    assert breakdown["fake"]["shares"] == 7


def test_sentiment_out_of_range_reports_line(tmp_path):
    directory = write_corpus(
        tmp_path / "bad",
        [source("s1")],
        [post("p1", sentiment=1.5)],
        [],
        [],
    )
    with pytest.raises(cm.SchemaError, match=r"posts\.jsonl:1.*sentiment"):
        cm.load_corpus(directory)


def test_malformed_json_reports_line(tmp_path):
    directory = write_corpus(tmp_path / "bad", [source("s1")], [], [], [])
    with open(directory / "posts.jsonl", "w") as fh:
        fh.write(json.dumps(post("p1")) + "\n")
        fh.write("{not json\n")
    with pytest.raises(cm.SchemaError, match=r"posts\.jsonl:2"):
        cm.load_corpus(directory)


def test_load_pauses_cyclic_gc_and_restores_it(tiny_dir, tmp_path, monkeypatch):
    during = []
    build = cm._build_sources
    monkeypatch.setattr(cm, "_build_sources", lambda blocks: (during.append(gc.isenabled()), build(blocks))[1])
    assert gc.isenabled()
    cm.load_corpus(tiny_dir)
    assert during == [False] and gc.isenabled()
    bad = write_corpus(tmp_path / "bad", [source("s1")], [post("p1", sentiment=1.5)], [], [])
    with pytest.raises(cm.SchemaError):
        cm.load_corpus(bad)
    assert gc.isenabled()
    gc.disable()
    try:
        cm.load_corpus(tiny_dir)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_dangling_references_listed(tmp_path):
    directory = write_corpus(
        tmp_path / "bad",
        [source("s1")],
        [post("p1", source_id="ghost")],
        [comment("c1", "vanished")],
        [mention("alpha", "p1")],
    )
    with pytest.raises(cm.IntegrityError) as err:
        cm.load_corpus(directory)
    message = str(err.value)
    assert "ghost" in message and "vanished" in message


def test_duplicate_mention_pair_rejected(tmp_path):
    directory = write_corpus(
        tmp_path / "bad",
        [source("s1")],
        [post("p1")],
        [],
        [mention("alpha", "p1", 0.9), mention("Alpha", "p1", 0.8)],  # same after normalization
    )
    with pytest.raises(cm.IntegrityError, match="duplicate mention"):
        cm.load_corpus(directory)


def test_missing_file_is_corpus_error(tmp_path):
    with pytest.raises(cm.CorpusError, match="sources.jsonl"):
        cm.load_corpus(tmp_path / "nowhere")


def test_entity_normalization(tiny_corpus, tmp_path):
    directory = write_corpus(
        tmp_path / "norm",
        [source("s1")],
        [post("p1"), post("p2")],
        [],
        [mention("  Mario   Rossi ", "p1", 0.9), mention("mario rossi", "p2", 0.9)],
    )
    corpus = cm.load_corpus(directory)
    assert corpus.entities == ["mario rossi"]
    rows = members(cm.select_entities(corpus, 0.0, 1))["mario rossi"]
    assert post_ids(corpus, rows) == ["p1", "p2"]


def test_min_posts_boundary_excludes_99_of_100(tmp_path):
    posts = [post(f"p{i}") for i in range(99)]
    mentions = [mention("topic", f"p{i}", 0.95) for i in range(99)]
    directory = write_corpus(tmp_path / "b", [source("s1")], posts, [], mentions)
    corpus = cm.load_corpus(directory)
    assert "topic" not in cm.select_entities(corpus, 0.9, 100).entities
    assert "topic" in cm.select_entities(corpus, 0.9, 99).entities


def test_confidence_boundary_is_inclusive(tmp_path):
    directory = write_corpus(
        tmp_path / "c",
        [source("s1")],
        [post("p1"), post("p2")],
        [],
        [mention("low", "p1", 0.59), mention("edge", "p2", 0.6)],
    )
    corpus = cm.load_corpus(directory)
    sample = cm.select_entities(corpus, 0.6, 1)
    assert sample.entities == ("edge",)


def test_member_posts_only_count_qualifying_mentions(tiny_corpus, tiny_dir):
    records = read_records(tiny_dir)
    e1 = cm.select_e1(tiny_corpus)
    # gamma's only mention is at 0.3 confidence
    assert "gamma" not in e1.entities
    assert post_ids(tiny_corpus, members(e1)["alpha"]) == ["p1", "p3"]
    for entity, rows in members(e1).items():
        for p in post_ids(tiny_corpus, rows):
            assert records.entities_by_post[p][entity] >= 0.6


def test_disputed_entities(tiny_corpus):
    e1 = cm.select_e1(tiny_corpus)
    disputed = frozenset(compress(e1.entities, cm.disputed_entities(tiny_corpus, e1)))
    assert disputed == frozenset({"alpha"})  # p1 official + p3 fake
    assert disputed <= set(e1.entities)


def test_disputed_empty_without_fake_sources(tmp_path):
    directory = write_corpus(
        tmp_path / "nofake",
        [source("s1", "official"), source("s2", "official")],
        [post("p1", "s1"), post("p2", "s2")],
        [],
        [mention("alpha", "p1"), mention("alpha", "p2")],
    )
    corpus = cm.load_corpus(directory)
    e1 = cm.select_e1(corpus)
    assert frozenset(compress(e1.entities, cm.disputed_entities(corpus, e1))) == frozenset()


def test_posts_for_entities_set_semantics(tmp_path):
    directory = write_corpus(
        tmp_path / "ps",
        [source("s1"), source("s2", "fake")],
        [post("a", "s1"), post("b", "s2")],
        [],
        [mention("x", "a"), mention("x", "b"), mention("y", "a")],  # shared post "a"
    )
    corpus = cm.load_corpus(directory)
    sample = cm.select_e1(corpus)
    ps = cm.posts_for_entities(corpus, sample)
    assert post_ids(corpus, ps.rows) == ["a", "b"]
    assert ps.labels.tolist() == [0, 1]


def test_load_order_independence(tmp_path):
    sources = [source("s1"), source("s2", "fake")]
    posts = [post(f"p{i}", "s1" if i % 2 else "s2", timestamp=i) for i in range(8)]
    mentions = [mention(f"e{i % 3}", f"p{i}", 0.9) for i in range(8)]
    d1 = write_corpus(tmp_path / "o1", sources, posts, [], mentions)
    d2 = write_corpus(tmp_path / "o2", sources, posts[::-1], [], mentions[::-1])
    c1, c2 = cm.load_corpus(d1), cm.load_corpus(d2)
    s1, s2 = cm.select_e1(c1), cm.select_e1(c2)
    assert s1.entities == s2.entities
    assert {e: post_ids(c1, r) for e, r in members(s1).items()} == {
        e: post_ids(c2, r) for e, r in members(s2).items()
    }
    p1, p2 = cm.posts_for_entities(c1, s1), cm.posts_for_entities(c2, s2)
    assert post_ids(c1, p1.rows) == post_ids(c2, p2.rows)
    assert p1.labels.tolist() == p2.labels.tolist()


@st.composite
def grouped_selections(draw):
    """CSR offsets of some groups, empty ones included, and a selection of them with repeats."""
    sizes = draw(st.lists(st.integers(0, 4), min_size=1, max_size=8))
    ptr = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    groups = draw(st.lists(st.integers(0, len(sizes) - 1), max_size=12))
    return ptr, np.array(groups, np.int64)


@given(grouped_selections())
def test_group_positions_matches_a_loop_over_ptr(case):
    ptr, groups = case
    index, count = cm.group_positions(ptr, groups)
    ptr, groups = ptr.tolist(), groups.tolist()
    assert index.tolist() == [i for g in groups for i in range(ptr[g], ptr[g + 1])]
    assert count.tolist() == [ptr[g + 1] - ptr[g] for g in groups]


def test_generator_roundtrip_loads_clean(small_synth):
    corpus, truth, _ = small_synth
    assert len(corpus.posts) == truth.totals["posts"]
    assert len(corpus.comments) == truth.totals["comments"]
    assert len(corpus.mentions) == truth.totals["mentions"]


def test_generator_disputed_recovered_exactly(small_synth):
    corpus, truth, _ = small_synth
    e1 = cm.select_e1(corpus)
    assert frozenset(compress(e1.entities, cm.disputed_entities(corpus, e1))) == frozenset(truth.disputed)


def test_planted_high_confidence_entities_exactly_selected(tmp_path):
    config = synth.SynthConfig(
        n_entities=50, head_entities=50, n_posts=50 * 115, n_users=400,
        n_comments=8000, head_posts_min=105, head_posts_max=115, seed=3,
    )
    synth.generate(config, tmp_path / "s50")
    corpus = cm.load_corpus(tmp_path / "s50")
    e2 = cm.select_e2(corpus)
    assert len(e2.entities) == 50


def test_posts_for_entities_vs_linear_scan(small_synth):
    corpus, _, directory = small_synth
    e2 = cm.select_e2(corpus)
    ps = cm.posts_for_entities(corpus, e2)
    expected = set()
    for m in read_records(directory).mentions:  # brute scan over the raw mention list
        if m["entity"] in e2.entities and m["confidence"] >= 0.9:
            expected.add(m["post_id"])
    assert post_ids(corpus, ps.rows) == sorted(expected)


def reference_members(corpus, min_confidence, min_posts):
    """Entity -> its member post rows in post-id order, from a scan of the mention table."""
    rows = {}
    for e, p, c in zip(corpus.mentions.entity.tolist(), corpus.mentions.post.tolist(),
                       corpus.mentions.confidence.tolist()):
        if c >= min_confidence:
            rows.setdefault(corpus.entities[e], []).append(p)
    return {e: sorted(r, key=corpus.posts.ids.__getitem__)
            for e, r in sorted(rows.items()) if len(r) >= min_posts}


def reference_disputed(corpus, by_entity):
    """The entity-by-entity loop ``disputed_entities`` replaces with two bincounts."""
    post_fake = corpus.post_is_fake()
    return frozenset(
        entity for entity, rows in by_entity.items()
        if 0 < np.count_nonzero(post_fake[rows]) < len(rows)
    )


@pytest.mark.parametrize("min_confidence, min_posts", [(0.6, 1), (0.9, 30)], ids=["E1", "E2-style"])
def test_membership_table_matches_reference(oracle_corpus, min_confidence, min_posts):
    corpus = oracle_corpus
    sample = cm.select_entities(corpus, min_confidence, min_posts)
    expected = reference_members(corpus, min_confidence, min_posts)
    assert len(expected) > 1
    assert sample.entities == tuple(expected)
    assert sample.entity.tolist() == [e for e, rows in enumerate(expected.values()) for _ in rows]
    assert sample.rows.tolist() == [r for rows in expected.values() for r in rows]
    mask = cm.disputed_entities(corpus, sample)
    assert mask.shape == (len(sample.entities),)
    disputed = frozenset(compress(sample.entities, mask))
    assert disputed == reference_disputed(corpus, {e: np.array(r) for e, r in expected.items()})
    assert 0 < len(disputed) < len(expected)
    every = {r for rows in expected.values() for r in rows}
    rows = cm.posts_for_entities(corpus, sample).rows
    assert rows.tolist() == sorted(every, key=corpus.posts.ids.__getitem__)
