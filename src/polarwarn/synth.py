"""Seeded synthetic corpus generator with planted, verifiable ground truth.

The generator plants the separations the pipeline is supposed to detect:
disputed entities span a wide post-sentiment range (their official posts
lean positive, their fake posts negative) and attract a devoted commenter
cohort with consonant responses; undisputed entities live on official
sources only, with narrow presentation spread and divergent comments.  Fake
posts appear a bounded number of hours after the entity's first official
post.  A single seeded random stream with a fixed draw order (sources,
entity roles, post allocation, per-entity posts, per-post comments, noise
mentions) makes output files byte-identical per seed.

Ground truth (disputed sets, engaged cohorts, exact presentation spreads,
engaged fractions, fake-post lags) is kept apart from the feature pipeline,
so tests can verify the pipeline against an independent bookkeeping path.
One tally counts each written comment once, by (user, entity); after the
loop, each entity's commenters and each user's comment total, and so the
engaged users and fractions, come from it.  Each entity's presentation
spread and its lag from first official to first fake post are read off the
posts drawn for it (its slots), once per entity.  The lag is the one the
written timestamps show, not the planned one, so the truth stays a check on
what was written.

Every uniform draw is computed as ``lo + (hi - lo) * random()``, which is
numpy's own ``Generator.uniform`` formula (``low + range * next_double``):
it consumes the same one double from the stream and yields the same bits,
so the files stay byte-identical to those written with ``rng.uniform``,
without its per-call argument handling.  The range checks ``uniform`` made
on each call are made once, up front, by :meth:`SynthConfig.validate`.

In the per-entity post and comment loop, which makes most of the draws,
``random()`` and ``integers(n)`` are replayed in Python on the PCG64 bit
generator's raw 64-bit draws (:class:`_Replay`), which costs a fraction of a
numpy scalar call.  ``random()`` is numpy's ``next_double``, ``(raw >> 11) *
2**-53``.  ``integers(n)`` is Lemire's nearly-divisionless method, as numpy
draws it, on 32-bit values: the low half of a fresh raw draw, or the high
half PCG64 buffered from the previous one.  The replay takes that buffer
over from the bit generator before the loop and hands it back after it,
and in between only ``normal``, ``poisson`` and ``gamma`` stay numpy calls:
they draw 64-bit values and never touch the buffer.  The draws, and so the
files, are the same as numpy's own, one for one.

Each source, post, comment and mention is written to its JSONL file as soon
as it is drawn, so no row is held in memory; the noise-mention pass keeps
only each post's id and entity.  Each file's lines come from one formatter
that produces exactly ``json.dumps(row, ensure_ascii=False)``: strings
through ``json.encoder.encode_basestring``, numbers through ``repr``,
instead of a ``json.dumps`` call per row, which builds a new encoder each
time.
"""

from __future__ import annotations

import json
import math
from contextlib import ExitStack
from dataclasses import asdict, dataclass, fields
from json.encoder import encode_basestring as _str
from pathlib import Path

import numpy as np

from .errors import ConfigError

_EPOCH_2016_07_31 = 1469923200
_DAY = 86400

_OFFICIAL_TEXTS = (
    "Report {k}: an update on {entity}. Officials confirmed the details this morning. Further coverage follows.",
    "Analysis {k}: what the new figures say about {entity}. Experts weigh the evidence carefully.",
    "Interview {k}: a measured conversation about {entity}. Both positions are presented below.",
    "BREAKING {k}: major development on {entity}! Follow our live blog for updates!",
)
_FAKE_TEXTS = (
    "SHOCKING!!! The TRUTH about {entity} THEY do not want you to see!!! SHARE before it is DELETED!!!",
    "EXPOSED: {entity} SCANDAL {k}!!! Mainstream media SILENT!!! WAKE UP!!!",
    "UNBELIEVABLE!!! {entity} secret plan LEAKED {k}!!! READ NOW!!!",
    "New details emerge about {entity}. Sources say the official account {k} leaves questions open.",
)
_COMMENT_TEXTS = (
    "wow",
    "I do not believe this at all!!",
    "interesting point, thanks for sharing",
    "this again? come on",
    "absolutely true!!!",
    "source please",
)


class SynthConfigError(ConfigError):
    """A setting is out of its range, or the settings are infeasible together."""


# the closed range each field named here must lie in
_RANGES = {
    **dict.fromkeys(("n_official_sources", "n_fake_sources", "n_entities", "n_posts", "n_users",
                     "engaged_cohort_size", "audience_size_min", "audience_size", "head_posts_min"),
                    (1, math.inf)),
    **dict.fromkeys(("n_comments", "head_entities", "undisputed_spread",
                     "consonant_noise", "seed"), (0, math.inf)),
    **dict.fromkeys(("disputed_fraction", "disputed_narrow_fraction", "undisputed_wide_fraction",
                     "official_clickbait_rate", "fake_sober_rate", "cohort_comment_share",
                     "fake_post_fraction", "comment_missing_sentiment_rate", "noise_mention_rate"), (0, 1)),
    # wide-disputed posts draw from [0, high] and [low, 0]
    "disputed_sentiment_low": (-1, 0), "disputed_sentiment_high": (0, 1),
}


@dataclass(frozen=True)
class SynthConfig:
    n_official_sources: int = 25
    n_fake_sources: int = 15
    n_entities: int = 1000
    disputed_fraction: float = 0.3
    n_posts: int = 10_000
    n_users: int = 3000
    n_comments: int = 100_000
    head_entities: int = 40
    head_posts_min: int = 105
    head_posts_max: int = 130
    disputed_sentiment_low: float = -0.85
    disputed_sentiment_high: float = 0.85
    undisputed_spread: float = 0.3
    disputed_narrow_fraction: float = 0.15
    undisputed_wide_fraction: float = 0.12
    consonant_noise: float = 0.08
    divergent_offset_low: float = 0.3
    divergent_offset_high: float = 0.7
    official_clickbait_rate: float = 0.10
    fake_sober_rate: float = 0.15
    engaged_cohort_size: int = 5
    audience_size_min: int = 10
    audience_size: int = 30
    cohort_comment_share: float = 0.7
    fake_post_fraction: float = 0.4
    fake_lag_hours_low: float = 1.0
    fake_lag_hours_high: float = 23.5
    comment_missing_sentiment_rate: float = 0.05
    noise_mention_rate: float = 0.15
    seed: int = 20160731

    def n_disputed(self) -> int:
        return int(round(self.n_entities * self.disputed_fraction))

    def n_head_disputed(self) -> int:
        return min(int(round(self.head_entities * self.disputed_fraction)), self.n_disputed())

    def validate(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "float" and not _finite(v):
                raise SynthConfigError(f"{f.name} must be a finite number, got {v!r}")
            if f.type == "int" and (isinstance(v, bool) or not isinstance(v, int)):
                raise SynthConfigError(f"{f.name} must be an integer, got {v!r}")
        for name, (lo, hi) in _RANGES.items():
            v = getattr(self, name)
            if not lo <= v <= hi:
                says = f"be at least {lo}" if hi == math.inf else f"lie in [{lo}, {hi}]"
                raise SynthConfigError(f"{name} must {says}, got {v}")
        for low, high in (("fake_lag_hours_low", "fake_lag_hours_high"),
                          ("divergent_offset_low", "divergent_offset_high"),
                          ("head_posts_min", "head_posts_max")):
            if getattr(self, low) > getattr(self, high):
                raise SynthConfigError(
                    f"{low}={getattr(self, low)} exceeds {high}={getattr(self, high)}")
        if self.head_entities > self.n_entities:
            raise SynthConfigError("head_entities exceeds n_entities")
        if self.n_head_disputed() and self.head_posts_min < 2:  # one official and one fake post
            raise SynthConfigError(f"head_posts_min must be at least 2 when a head entity is disputed, "
                                   f"got {self.head_posts_min}")
        reserved = self.n_disputed() * self.engaged_cohort_size
        if reserved + self.audience_size > self.n_users:
            raise SynthConfigError(
                f"infeasible: {reserved} cohort users + audience {self.audience_size} "
                f"exceed n_users={self.n_users}"
            )

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SynthConfig":
        unknown = sorted(set(doc).difference(f.name for f in fields(cls)))
        if unknown:
            raise SynthConfigError(f"unknown synth config key(s): {', '.join(unknown)}")
        return cls(**doc)


@dataclass
class EntityTruth:
    entity: str
    disputed: bool
    head: bool
    profile: str  # wide_disputed | narrow_disputed | lookalike | plain
    n_posts: int
    d_p: float
    u_e: float
    engaged_users: tuple[str, ...]
    cohort: tuple[str, ...]
    lag_hours: float | None


@dataclass
class GroundTruth:
    entities: dict[str, EntityTruth]
    disputed: tuple[str, ...]
    totals: dict[str, int]
    config: SynthConfig

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "totals": dict(self.totals),
            "disputed": list(self.disputed),
            "entities": {
                e: {k: v for k, v in asdict(t).items() if k != "entity"}
                for e, t in self.entities.items()
            },
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GroundTruth":
        entities = {
            e: EntityTruth(
                entity=e,
                **{**v, "engaged_users": tuple(v["engaged_users"]), "cohort": tuple(v["cohort"])},
            )
            for e, v in doc["entities"].items()
        }
        return cls(
            entities=entities,
            disputed=tuple(doc["disputed"]),
            totals=dict(doc["totals"]),
            config=SynthConfig.from_json_dict(doc["config"]),
        )


def _finite(v) -> bool:
    try:
        return math.isfinite(v)
    except (OverflowError, TypeError):
        return False


def _clip(v: float) -> float:
    return float(min(1.0, max(-1.0, v)))


def _uniform(random, lo: float, hi: float) -> float:
    """``Generator.uniform(lo, hi)`` from ``random``, the generator's own or its replay, draw for draw."""
    lo = float(lo)
    return lo + (float(hi) - lo) * random()


# numpy's next_double: the top 53 bits of a raw draw times 2**-53
_DOUBLE_UNIT = 2.0 ** -53


class _Replay:
    """``Generator.random()`` and ``Generator.integers(n)`` replayed on PCG64's raw draws.

    Creating one takes over the bit generator's 32-bit buffer (``has_uint32``,
    ``uinteger``); :meth:`store` hands it back.  In between, the generator
    may make only the calls that draw 64-bit values (``random``, ``normal``,
    ``poisson``, ``gamma``), which never touch that buffer, and no
    ``integers`` or ``choice``, which do.
    """

    def __init__(self, rng: np.random.Generator):
        self.bit_generator = rng.bit_generator
        assert isinstance(self.bit_generator, np.random.PCG64)  # the buffer and draws below are PCG64's
        self.raw = self.bit_generator.random_raw
        state = self.bit_generator.state
        self.has_uint32, self.uinteger = state["has_uint32"], state["uinteger"]

    def random(self) -> float:
        return (self.raw() >> 11) * _DOUBLE_UNIT

    def integers(self, n: int) -> int:
        """``Generator.integers(n)`` for ``1 <= n < 2**32``: Lemire's method on 32-bit values."""
        if n == 1:
            return 0  # numpy draws nothing for a one-value range
        while True:
            # PCG64's next_uint32: the buffered high half, or the low half of a fresh draw
            if self.has_uint32:
                self.has_uint32 = 0
                m = self.uinteger * n
            else:
                r = self.raw()
                self.has_uint32, self.uinteger = 1, r >> 32
                m = (r & 0xFFFFFFFF) * n
            low = m & 0xFFFFFFFF
            if low >= n or low >= 0x100000000 % n:  # numpy rejects low halves below 2**32 mod n
                return m >> 32

    def store(self) -> None:
        """Hand the 32-bit buffer back to the bit generator."""
        state = self.bit_generator.state
        state["has_uint32"], state["uinteger"] = self.has_uint32, self.uinteger
        self.bit_generator.state = state


def generate(config: SynthConfig, out_dir: str | Path) -> GroundTruth:
    """Write the four corpus JSONL files plus truth.json; returns the truth.

    Each source, post, comment and mention line is written to its JSONL
    file as soon as it is drawn.  The directory is made and the files are
    opened only after every setting has passed its checks.
    """
    config.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    random = rng.random

    official_ids = [f"src_official_{i:03d}" for i in range(config.n_official_sources)]
    fake_ids = [f"src_fake_{i:03d}" for i in range(config.n_fake_sources)]

    n_ent = config.n_entities
    entities = [f"entity_{i:04d}" for i in range(n_ent)]
    n_disputed = config.n_disputed()
    disputed_idx = set(int(i) for i in rng.choice(n_ent, size=n_disputed, replace=False))
    sorted_disputed = sorted(disputed_idx)
    sorted_undisputed = [i for i in range(n_ent) if i not in disputed_idx]
    n_head_disputed = config.n_head_disputed()
    head_idx = set(sorted_disputed[:n_head_disputed])
    head_idx.update(sorted_undisputed[: config.head_entities - n_head_disputed])

    # post-count allocation: heads draw from the head range, the rest get a
    # class minimum plus a multinomial share of the remaining budget
    head_counts = {}
    for i in sorted(head_idx):
        head_counts[i] = int(rng.integers(config.head_posts_min, config.head_posts_max + 1))
    non_head = [i for i in range(n_ent) if i not in head_idx]
    minima = {i: (3 if i in disputed_idx else 1) for i in non_head}
    budget = config.n_posts - sum(head_counts.values()) - sum(minima.values())
    if budget < 0:
        raise SynthConfigError(
            f"n_posts={config.n_posts} cannot cover head allocation plus per-entity minima"
        )
    extra = rng.multinomial(budget, np.full(len(non_head), 1.0 / len(non_head))) if non_head else []
    post_counts = dict(head_counts)
    for i, e in zip(non_head, extra):
        post_counts[i] = minima[i] + int(e)

    users = [f"user_{i:05d}" for i in range(config.n_users)]
    cohorts: dict[int, list[str]] = {}
    cursor = 0
    for i in sorted_disputed:
        cohorts[i] = users[cursor : cursor + config.engaged_cohort_size]
        cursor += config.engaged_cohort_size
    pool = np.array(users[cursor:])

    # per-entity roles; the narrow/lookalike minorities create genuine class
    # overlap so the benchmark operates away from trivial separability
    audiences: dict[int, list[str]] = {}
    centers: dict[int, float] = {}
    lags: dict[int, float] = {}
    high_confidence: dict[int, bool] = {}
    profiles: dict[int, str] = {}
    divergence_sign: dict[int, float] = {}
    for i in range(n_ent):
        audience_n = int(rng.integers(min(config.audience_size_min, config.audience_size),
                                      config.audience_size + 1))
        audiences[i] = [str(u) for u in rng.choice(pool, size=audience_n, replace=False)]
        centers[i] = _uniform(random, -0.2, 0.6)
        if i in disputed_idx:
            lags[i] = _uniform(random, config.fake_lag_hours_low, config.fake_lag_hours_high)
            narrow = random() < config.disputed_narrow_fraction
            profiles[i] = "narrow_disputed" if narrow else "wide_disputed"
        else:
            wide = random() < config.undisputed_wide_fraction
            profiles[i] = "lookalike" if wide else "plain"
            divergence_sign[i] = 1.0 if random() < 0.5 else -1.0
        high_confidence[i] = True if i in head_idx else random() < 0.5

    # the ground truth's bookkeeping, independent of the feature pipeline:
    # one count per comment, and each entity's spread and observed lag
    user_entity: dict[tuple[str, int], int] = {}
    d_p: dict[int, float] = {}
    observed_lag: dict[int, float] = {}

    mean_comments = config.n_comments / config.n_posts
    # the comment loop runs once per comment: it reads these as locals and
    # inlines its uniform draws as lo + width * (raw() >> 11) * 2**-53
    normal, poisson, gamma = rng.normal, rng.poisson, rng.gamma
    cohort_share = config.cohort_comment_share
    cohort_size = config.engaged_cohort_size
    missing_rate = config.comment_missing_sentiment_rate
    noise = config.consonant_noise
    offset_lo = float(config.divergent_offset_low)
    offset_width = float(config.divergent_offset_high) - offset_lo
    delay_width = float(_DAY - 60)
    unit = _DOUBLE_UNIT
    n_texts = len(_COMMENT_TEXTS)
    primaries: list[tuple[str, str]] = []  # (post id, entity) of every post, for the noise mentions
    comment_counter = 0
    n_mentions = 0
    with ExitStack() as stack:
        write_source, write_post, write_comment, write_mention = (
            stack.enter_context(open(out / name, "w", encoding="utf-8")).write
            for name in ("sources.jsonl", "posts.jsonl", "comments.jsonl", "mentions.jsonl"))
        for i, sid in enumerate(official_ids):
            write_source(_source_line(sid, f"Official Outlet {i}", "official") + "\n")
        for i, sid in enumerate(fake_ids):
            write_source(_source_line(sid, f"Fringe Site {i}", "fake") + "\n")

        # from here on random() is replayed on the raw draws, and so is
        # integers(n) up to draws.store(); in between, only normal, poisson
        # and gamma are numpy calls
        draws = _Replay(rng)
        raw, random, integers = draws.raw, draws.random, draws.integers
        for i in range(n_ent):
            entity = entities[i]
            n_e = post_counts[i]
            is_disputed = i in disputed_idx
            if is_disputed:
                n_fake = max(1, int(round(config.fake_post_fraction * n_e)))
                n_fake = min(n_fake, n_e - 1)
            else:
                n_fake = 0
            n_official = n_e - n_fake
            t0 = _EPOCH_2016_07_31 + int(_uniform(random, 0, 90 * _DAY))

            slots: list[tuple[str, int, float]] = []  # (category, timestamp, sentiment)
            lo, hi = config.disputed_sentiment_low, config.disputed_sentiment_high
            half = config.undisputed_spread / 2.0
            profile = profiles[i]
            cohort = cohorts.get(i)
            audience = audiences[i]
            n_audience = len(audience)
            sign = divergence_sign.get(i)
            for j in range(n_official):
                ts = t0 if j == 0 else t0 + int(_uniform(random, 3600, 30 * _DAY))
                if profile == "wide_disputed":
                    sent = hi if j == 0 else _uniform(random, 0.0, hi)
                elif profile == "lookalike":
                    sent = _uniform(random, lo, hi)
                else:  # narrow_disputed and plain share the tight band
                    sent = _clip(centers[i] + _uniform(random, -half, half))
                slots.append(("official", ts, sent))
            if is_disputed:
                fake_t0 = t0 + int(lags[i] * 3600)
                for j in range(n_fake):
                    ts = fake_t0 if j == 0 else fake_t0 + int(_uniform(random, 3600, 30 * _DAY))
                    if profile == "wide_disputed":
                        sent = lo if j == 0 else _uniform(random, lo, 0.0)
                    else:
                        sent = _clip(centers[i] + _uniform(random, -half, half))
                    slots.append(("fake", ts, sent))
                first_official = min(ts for c, ts, _ in slots if c == "official")
                first_fake = min(ts for c, ts, _ in slots if c == "fake")
                observed_lag[i] = (first_fake - first_official) / 3600.0
            sentiments = [sent for _, _, sent in slots]
            d_p[i] = max(sentiments) - min(sentiments)

            for category, ts, sent in slots:
                pid = f"post_{len(primaries):06d}"
                primaries.append((pid, entity))
                # a slice of each class borrows the other side's writing style, so
                # surface statistics separate well but never perfectly
                if category == "official":
                    source = official_ids[integers(len(official_ids))]
                    style = "fake" if random() < config.official_clickbait_rate else "official"
                    likes = int(gamma(2.0, 30.0))
                    shares = int(gamma(2.0, 8.0))
                else:
                    source = fake_ids[integers(len(fake_ids))]
                    style = "official" if random() < config.fake_sober_rate else "fake"
                    likes = int(gamma(2.0, 18.0))
                    shares = int(gamma(2.0, 16.0))
                if style == "official":
                    text = _OFFICIAL_TEXTS[integers(len(_OFFICIAL_TEXTS))].format(
                        k=integers(1000), entity=entity.replace("_", " ")
                    )
                else:
                    text = _FAKE_TEXTS[integers(len(_FAKE_TEXTS))].format(
                        k=integers(1000), entity=entity.replace("_", " ").upper()
                    )
                write_post(_post_line(pid, source, ts, text, sent, likes, shares) + "\n")
                conf = _uniform(random, 0.92, 0.99) if high_confidence[i] else _uniform(random, 0.62, 0.88)
                write_mention(_mention_line(entity, pid, conf) + "\n")
                n_mentions += 1

                n_c = int(poisson(mean_comments))
                for _ in range(n_c):
                    cid = f"comment_{comment_counter:07d}"
                    comment_counter += 1
                    if is_disputed and (raw() >> 11) * unit < cohort_share:
                        user = cohort[integers(cohort_size)]
                    else:
                        user = audience[integers(n_audience)]
                    if (raw() >> 11) * unit < missing_rate:
                        c_sent = None
                    elif is_disputed:
                        # consonant audience: responses hug the presentation
                        c_sent = _clip(sent + float(normal(0.0, noise)))
                    else:
                        # divergent audience with a per-entity bias direction
                        c_sent = _clip(sent + sign * (offset_lo + offset_width * ((raw() >> 11) * unit)))
                    # the arguments draw in the order the fields are written
                    write_comment(_comment_line(
                        cid, pid, user, ts + int(60.0 + delay_width * ((raw() >> 11) * unit)),
                        _COMMENT_TEXTS[integers(n_texts)], c_sent, int(poisson(2.0)), int(poisson(1.0)),
                    ) + "\n")
                    user_entity[(user, i)] = user_entity.get((user, i), 0) + 1
        draws.store()

        # low-confidence noise mentions exercise the confidence filter without
        # affecting sample membership
        for pid, entity in primaries:
            if random() < config.noise_mention_rate:
                other = entities[int(rng.integers(n_ent))]
                if other != entity:
                    write_mention(_mention_line(other, pid, _uniform(random, 0.15, 0.55)) + "\n")
                    n_mentions += 1

    user_total: dict[str, int] = {}
    commenters: dict[int, list[str]] = {i: [] for i in range(n_ent)}
    for (user, i), count in user_entity.items():
        user_total[user] = user_total.get(user, 0) + count
        commenters[i].append(user)
    truth_entities: dict[str, EntityTruth] = {}
    for i in range(n_ent):
        entity = entities[i]
        engaged = sorted(u for u in commenters[i] if user_entity[(u, i)] > 0.95 * user_total[u])
        u_e = len(engaged) / len(commenters[i]) if commenters[i] else 0.0
        truth_entities[entity] = EntityTruth(
            entity=entity,
            disputed=i in disputed_idx,
            head=i in head_idx,
            profile=profiles[i],
            n_posts=post_counts[i],
            d_p=d_p[i],
            u_e=u_e,
            engaged_users=tuple(engaged),
            cohort=tuple(cohorts.get(i, ())),
            lag_hours=observed_lag.get(i),
        )
    truth = GroundTruth(
        entities=truth_entities,
        disputed=tuple(entities[i] for i in sorted_disputed),
        totals={
            "sources": len(official_ids) + len(fake_ids),
            "posts": len(primaries),
            "comments": comment_counter,
            "mentions": n_mentions,
            "users_active": len(user_total),
        },
        config=config,
    )
    with open(out / "truth.json", "w", encoding="utf-8") as fh:
        json.dump(truth.to_json_dict(), fh, indent=2, sort_keys=True)
    return truth


# One formatter per JSONL file, taking the row's values in the file's key
# order; each returns json.dumps(row, ensure_ascii=False) for the row: strings
# go through the encoder json.dumps uses, numbers through repr (finite floats
# and ints print as JSON does), None as null.


def _num(v) -> str:
    return "null" if v is None else repr(v)


def _source_line(source_id, name, category) -> str:
    return f'{{"id": {_str(source_id)}, "name": {_str(name)}, "category": {_str(category)}}}'


def _post_line(post_id, source_id, timestamp, text, sentiment, likes, shares) -> str:
    return (
        f'{{"id": {_str(post_id)}, "source_id": {_str(source_id)}, '
        f'"timestamp": {timestamp!r}, "text": {_str(text)}, '
        f'"sentiment": {_num(sentiment)}, "likes": {likes!r}, "shares": {shares!r}}}'
    )


def _comment_line(comment_id, post_id, user_id, timestamp, text, sentiment, likes, replies) -> str:
    return (
        f'{{"id": {_str(comment_id)}, "post_id": {_str(post_id)}, "user_id": {_str(user_id)}, '
        f'"timestamp": {timestamp!r}, "text": {_str(text)}, '
        f'"sentiment": {_num(sentiment)}, "likes": {likes!r}, "replies": {replies!r}}}'
    )


def _mention_line(entity, post_id, confidence) -> str:
    return f'{{"entity": {_str(entity)}, "post_id": {_str(post_id)}, "confidence": {confidence!r}}}'


def load_truth(path: str | Path) -> GroundTruth:
    with open(path, encoding="utf-8") as fh:
        return GroundTruth.from_json_dict(json.load(fh))
