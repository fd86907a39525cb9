"""Seeded synthetic TSV corpora for the benchmark workloads.

Rows follow the planted-signal profile: the label is
round(exp(1.0 + 1.5*u1 + 1.0*u2 + 0.5*u3)) + 20*keyword, with u1..u3
the follower, friend and favorite counts scaled to [0, 1] and keyword
set when the word "breaking" occurs in the text. A model that learns the
signal beats the predict-the-training-mean baseline, so validation MAE
is a meaningful quality check.

`with_malformed` replaces a fixed share of rows with lines that
`load_tsv` drops. The same seed always gives the same bytes.
"""

from datetime import datetime, timedelta, timezone

import numpy as np

from retweet_reg.data import TZ_OFFSETS, format_timestamp

FILLER = (
    "virus covid lockdown vaccine mask news update city health stay "
    "home work school test case report week daily chart trend"
).split()
NAMES = "alice bob carol dave erin frank grace heidi ivan judy".split()
TZ_NAMES = ("UTC", "CEST", "CET", "EST", "PDT", "GMT")
KEYWORD = "breaking"
URL = "https://t.co/x1y2z3"

# Each kind is a defect `load_tsv` drops without a traceback. Timestamps
# that overflow or fall outside the datetime range are left out: they
# abort `prepare` instead (a known defect, see NOTES.md).
MALFORMED_KINDS = ("field_count", "integer", "sentiment", "timezone")


def planted_rows(n: int, seed: int, first_id: int = 0) -> list:
    """`n` well-formed 13-column rows, every one with text."""
    rng = np.random.default_rng(seed)
    followers = rng.integers(0, 1000, n)
    friends = rng.integers(0, 500, n)
    favorites = rng.integers(0, 100, n)
    keyword = rng.random(n) < 0.5
    base = np.exp(1.0 + 1.5 * followers / 1000 + 1.0 * friends / 500 + 0.5 * favorites / 100)
    labels = np.rint(base).astype(np.int64) + 20 * keyword

    clock = np.stack([
        rng.integers(2019, 2021, n), rng.integers(1, 13, n), rng.integers(1, 29, n),
        rng.integers(0, 24, n), rng.integers(0, 60, n), rng.integers(0, 60, n),
    ], axis=1)
    zones = rng.integers(0, len(TZ_NAMES), n)
    users = rng.integers(0, 40, n)
    entity = rng.random(n) < 0.3
    sentiment = np.stack([rng.integers(1, 6, n), rng.integers(-5, 0, n)], axis=1)
    mention_count = rng.integers(0, 4, n)
    mention_order = rng.random((n, len(NAMES))).argsort(axis=1)
    hashtag = rng.random(n) < 0.2
    url_field = rng.random(n) < 0.2
    word_count = rng.integers(6, 13, n)
    words = rng.integers(0, len(FILLER), (n, 12))
    keyword_at = rng.random(n)
    url_in_text = rng.random(n) < 0.1

    rows = []
    for i in range(n):
        tz_name = TZ_NAMES[zones[i]]
        stamp = datetime(
            *(int(v) for v in clock[i]),
            tzinfo=timezone(timedelta(hours=TZ_OFFSETS[tz_name]), tz_name),
        )
        text = [FILLER[w] for w in words[i, : word_count[i]]]
        if keyword[i]:
            text.insert(int(keyword_at[i] * (len(text) + 1)), KEYWORD)
        if url_in_text[i]:
            text.append(URL)
        mentions = " ".join(NAMES[j] for j in mention_order[i, : mention_count[i]])
        rows.append("\t".join((
            f"tweet{first_id + i:06d}",
            f"user{users[i]:03d}",
            format_timestamp(stamp),
            str(followers[i]),
            str(friends[i]),
            str(favorites[i]),
            "Entity:1;" if entity[i] else "null;",
            f"{sentiment[i, 0]} {sentiment[i, 1]}",
            mentions or "null;",
            "#covid" if hashtag[i] else "null;",
            "https://example.org" if url_field[i] else "null;",
            str(labels[i]),
            " ".join(text),
        )))
    return rows


def break_row(row: str, kind: str) -> str:
    """`row` made malformed in the way `kind` names."""
    fields = row.split("\t")
    if kind == "field_count":
        fields.pop()
    elif kind == "integer":
        fields[3] += "k"
    elif kind == "sentiment":
        fields[7] = "7 -2"  # positive score outside [1, 5]
    elif kind == "timezone":
        stamp = fields[2].split()
        stamp[4] = "IST"  # a real abbreviation the parser does not know
        fields[2] = " ".join(stamp)
    else:
        raise ValueError(f"unknown malformed kind {kind!r}")
    return "\t".join(fields)


def with_malformed(rows: list, share: float, seed: int):
    """Replace round(share * len(rows)) rows, never the first (the schema
    is sniffed from it), with malformed lines, cycling through
    MALFORMED_KINDS. Returns (rows, planted count per kind)."""
    count = round(share * len(rows))
    rng = np.random.default_rng(seed)
    positions = np.sort(rng.choice(np.arange(1, len(rows)), size=count, replace=False))
    out = list(rows)
    planted = dict.fromkeys(MALFORMED_KINDS, 0)
    for j, pos in enumerate(positions):
        kind = MALFORMED_KINDS[j % len(MALFORMED_KINDS)]
        out[pos] = break_row(out[pos], kind)
        planted[kind] += 1
    return out, planted


def write_tsv(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(row + "\n" for row in rows)
