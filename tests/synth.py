"""Synthetic TSV corpora for the tests.

Two profiles: a generic small-count fixture, and the smoke-training
profile whose label is round(exp(linear(3 numeric features))) plus a
bump when a planted keyword appears in the text.
"""

from datetime import datetime, timedelta, timezone

import numpy as np

from retweet_reg.data import (
    DEFAULT_COLUMNS,
    EMPTY_MARKER,
    TEXT_COLUMN,
    TZ_OFFSETS,
    TweetRecord,
    format_timestamp,
)

FILLER = (
    "virus covid lockdown vaccine mask news update city health stay "
    "home work school test case report week daily chart trend"
).split()
NAMES = "alice bob carol dave erin frank grace heidi ivan judy".split()
TZ_NAMES = ("UTC", "CEST", "CET", "EST", "PDT", "GMT")
KEYWORD = "breaking"


def _timestamp(rng) -> str:
    tz_name = TZ_NAMES[int(rng.integers(0, len(TZ_NAMES)))]
    ts = datetime(
        2019 + int(rng.integers(0, 2)),
        int(rng.integers(1, 13)),
        int(rng.integers(1, 29)),
        int(rng.integers(0, 24)),
        int(rng.integers(0, 60)),
        int(rng.integers(0, 60)),
        tzinfo=timezone(timedelta(hours=TZ_OFFSETS[tz_name]), tz_name),
    )
    return format_timestamp(ts)


def _mentions(rng) -> str:
    count = int(rng.integers(0, 4))
    if count == 0:
        return "null;"
    picks = rng.choice(len(NAMES), size=count, replace=False)
    return " ".join(NAMES[i] for i in picks)


def _text(rng, keyword: bool) -> str:
    words = [FILLER[int(i)] for i in rng.integers(0, len(FILLER), size=int(rng.integers(6, 13)))]
    if keyword:
        words.insert(int(rng.integers(0, len(words) + 1)), KEYWORD)
    if rng.random() < 0.1:
        words.append("https://t.co/x1y2z3")
    return " ".join(words)


def _row(rng, index: int, followers: int, friends: int, favorites: int,
         label: int, text: str) -> str:
    fields = [
        f"tweet{index:05d}",
        f"user{int(rng.integers(0, 40)):03d}",
        _timestamp(rng),
        str(followers),
        str(friends),
        str(favorites),
        "null;" if rng.random() < 0.7 else "Entity:1;",
        f"{int(rng.integers(1, 6))} {int(rng.integers(-5, 0))}",
        _mentions(rng),
        "null;" if rng.random() < 0.8 else "#covid",
        "null;" if rng.random() < 0.8 else "https://example.org",
        str(label),
        text if text else "null;",
    ]
    return "\t".join(fields)


def fixture_rows(n: int = 120, seed: int = 20240501) -> list:
    """Generic corpus: small counts, mild structure, two empty-text rows."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        followers = int(rng.integers(0, 2000))
        friends = int(rng.integers(0, 800))
        favorites = int(rng.integers(0, 50))
        keyword = bool(rng.random() < 0.4)
        base = np.exp(0.8 + 1.2 * followers / 2000 + 0.9 * friends / 800)
        label = int(round(base)) + (5 if keyword else 0)
        text = "" if i in (37, 81) else _text(rng, keyword)
        rows.append(_row(rng, i, followers, friends, favorites, label, text))
    return rows


def smoke_rows(n: int = 600, seed: int = 11):
    """Planted-signal corpus: label = round(exp(1.0 + 1.5*u1 + 1.0*u2
    + 0.5*u3)) + 20*keyword, with u_i the three count features scaled
    to [0, 1]."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        followers = int(rng.integers(0, 1000))
        friends = int(rng.integers(0, 500))
        favorites = int(rng.integers(0, 100))
        keyword = bool(rng.random() < 0.5)
        base = np.exp(
            1.0 + 1.5 * followers / 1000 + 1.0 * friends / 500 + 0.5 * favorites / 100
        )
        label = int(round(base)) + (20 if keyword else 0)
        rows.append(_row(rng, i, followers, friends, favorites, label, _text(rng, keyword)))
    return rows


def write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def record_to_tsv_line(record: TweetRecord, schema=DEFAULT_COLUMNS) -> str:
    """Inverse of data.parse_tsv_line; empty optional fields are written back
    as the empty marker."""
    values = {
        "tweet_id": record.tweet_id,
        "username": record.username,
        "timestamp": format_timestamp(record.timestamp),
        "followers": str(record.followers),
        "friends": str(record.friends),
        "favorites": str(record.favorites),
        "entities": record.entities or EMPTY_MARKER,
        "sentiment": "%d %d" % record.sentiment,
        "mentions": record.mentions_raw or EMPTY_MARKER,
        "hashtags": record.hashtags_raw or EMPTY_MARKER,
        "urls": record.urls_raw or EMPTY_MARKER,
        "retweets": str(record.retweets),
        TEXT_COLUMN: record.text or EMPTY_MARKER,
    }
    return "\t".join(values[name] for name in schema)
