"""Dataset ingestion and feature engineering.

Input is a UTF-8 TSV with one tweet per line. The default column order is

    tweet_id, username, timestamp, followers, friends, favorites,
    entities, sentiment, mentions, hashtags, urls, retweets [, text]

A sidecar file ``<data>.schema.json`` with ``{"columns": [...]}`` may
override the order. ``null;`` marks an empty field.

Timestamps take only the textual form ``EEE MMM dd HH:mm:ss zzz yyyy``
of TweetsCOV19 (e.g. ``Thu Oct 03 21:12:56 CEST 2019``); a line with any
other form is rejected like any other malformed line.

Each record yields 12 numeric features in a fixed order (six timestamp
components, three count features, two sentiment scores, mention count),
plus a fixed-length token-id sequence for the tweet text; the model's
``seq_len`` sets that length.
"""

import string
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DataFormatError, ValidationError
from .jsonio import read_json, write_json

# a leading UTF-8 byte-order mark is not part of the first field
ENCODING = "utf-8-sig"
EMPTY_MARKER = "null;"
URL_TOKEN = "<url>"
# train : validation : test
SPLIT_RATIOS = (4, 1, 1)
# counts beyond int64 overflow the float64 feature and scaler arithmetic
MAX_COUNT = 2**63 - 1
# Every feature is an integer in [-5, MAX_COUNT], so a fitted mean and std
# are at most MAX_COUNT in size. A population std of N integers that are
# not all equal is at least 1/sqrt(2N), so no fit over fewer than 2**63
# rows gives a std below 2**-32; a smaller one overflows the standardized
# features or the layers that read them.
MIN_STD = 2.0**-32

DEFAULT_COLUMNS = (
    "tweet_id",
    "username",
    "timestamp",
    "followers",
    "friends",
    "favorites",
    "entities",
    "sentiment",
    "mentions",
    "hashtags",
    "urls",
    "retweets",
)
TEXT_COLUMN = "text"

FEATURE_NAMES = (
    "month",
    "iso_week",
    "day",
    "hour",
    "minute",
    "day_of_week",
    "followers",
    "friends",
    "favorites",
    "sentiment_pos",
    "sentiment_neg",
    "mention_count",
)

# Fixed-offset abbreviations accepted in the textual timestamp form.
# Ambiguous abbreviations resolve to the most common reading; anything
# not listed here is rejected.
TZ_OFFSETS = {
    "UTC": 0.0,
    "GMT": 0.0,
    "CET": 1.0,
    "CEST": 2.0,
    "BST": 1.0,
    "EST": -5.0,
    "EDT": -4.0,
    "CST": -6.0,
    "CDT": -5.0,
    "MST": -7.0,
    "MDT": -6.0,
    "PST": -8.0,
    "PDT": -7.0,
}
# one shared tzinfo per abbreviation, not one per parsed line
_TZINFOS = {name: timezone(timedelta(hours=h), name) for name, h in TZ_OFFSETS.items()}

_MONTHS = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}
_MONTH_NAMES = {v: k for k, v in _MONTHS.items()}
_WEEKDAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


@dataclass(slots=True)
class TweetRecord:
    """One parsed TSV row. Entities/hashtags/urls are retained opaquely."""

    tweet_id: str
    username: str
    timestamp: datetime
    followers: int
    friends: int
    favorites: int
    entities: str
    sentiment: tuple  # (positive, negative) scores, checked by parse_sentiment
    mentions_raw: str
    hashtags_raw: str
    urls_raw: str
    retweets: int
    text: Optional[str] = None


class Vocabulary:
    """Token/id bijection with id 0 reserved for padding and 1 for
    out-of-vocabulary tokens."""

    PAD_ID = 0
    OOV_ID = 1
    PAD_TOKEN = "<pad>"
    OOV_TOKEN = "<unk>"

    def __init__(self, tokens: Sequence[str] = ()):
        self.id_to_token = [self.PAD_TOKEN, self.OOV_TOKEN, *tokens]
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValidationError("vocabulary tokens are not unique")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, self.OOV_ID)


@dataclass
class Scaler:
    """Per-feature mean and population standard deviation fitted on the
    training split. Constant columns keep std 1.0 so scaling never divides
    by zero."""

    mean: np.ndarray
    std: np.ndarray


# ---------------------------------------------------------------------------
# timestamps

def parse_timestamp(value: str) -> datetime:
    """Parse the textual form ``EEE MMM dd HH:mm:ss zzz yyyy`` (e.g.
    ``Thu Oct 03 21:12:56 CEST 2019``); anything else is rejected."""
    value = value.strip()
    parts = value.split()
    if len(parts) != 6:
        raise DataFormatError(f"unrecognized timestamp format: {value!r}")
    _, month_name, day_s, clock, tz_name, year_s = parts
    if month_name not in _MONTHS:
        raise DataFormatError(f"unknown month name {month_name!r} in timestamp")
    if tz_name not in _TZINFOS:
        raise DataFormatError(f"unknown timezone abbreviation {tz_name!r} in timestamp")
    clock_parts = clock.split(":")
    if len(clock_parts) != 3:
        raise DataFormatError(f"bad clock field {clock!r} in timestamp")
    try:
        day, year = int(day_s), int(year_s)
        hour, minute, second = (int(p) for p in clock_parts)
        return datetime(year, _MONTHS[month_name], day, hour, minute, second,
                        tzinfo=_TZINFOS[tz_name])
    except (OverflowError, ValueError) as exc:
        raise DataFormatError(f"invalid timestamp {value!r}: {exc}") from exc


def format_timestamp(ts: datetime) -> str:
    """Render the textual timestamp form parse_timestamp accepts."""
    tz_name = ts.tzname() or "UTC"
    return (
        f"{_WEEKDAY_NAMES[ts.weekday()]} {_MONTH_NAMES[ts.month]} "
        f"{ts.day:02d} {ts.hour:02d}:{ts.minute:02d}:{ts.second:02d} "
        f"{tz_name} {ts.year}"
    )


def decompose_timestamp(ts: datetime):
    """Split an instant into (month, iso_week, day, hour, minute,
    day_of_week), with ISO-8601 week numbers and Monday = 0."""
    return (ts.month, ts.isocalendar()[1], ts.day, ts.hour, ts.minute, ts.weekday())


# ---------------------------------------------------------------------------
# TSV parsing

def resolve_schema(path) -> tuple:
    """Column order for a TSV file: the sidecar ``<path>.schema.json``,
    else sniffed from the first line with 12 or 13 fields (12 -> no
    text, 13 -> text last), so one malformed line is dropped by load_tsv
    instead of failing the file."""
    sidecar = Path(str(path) + ".schema.json")
    if sidecar.exists():
        columns = read_json(sidecar).get("columns")
        if not _is_list_of(columns, str):
            raise DataFormatError(f'{sidecar} must hold {{"columns": [names]}}')
        missing = [c for c in DEFAULT_COLUMNS if c not in columns]
        if missing:
            raise DataFormatError(f"{sidecar}: schema is missing required columns: {missing}")
        unknown = [c for c in columns if c not in DEFAULT_COLUMNS + (TEXT_COLUMN,)]
        if unknown:
            raise DataFormatError(f"{sidecar}: schema names unknown columns: {unknown}")
        if len(set(columns)) != len(columns):
            raise DataFormatError(f"{sidecar}: schema repeats a column name")
        return tuple(columns)
    first = None
    with open(path, encoding=ENCODING, errors="surrogateescape") as fh:
        for line in fh:
            if not line.strip():
                continue
            n = len(line.rstrip("\n").split("\t"))
            if n == len(DEFAULT_COLUMNS):
                return DEFAULT_COLUMNS
            if n == len(DEFAULT_COLUMNS) + 1:
                return DEFAULT_COLUMNS + (TEXT_COLUMN,)
            first = first or n
    if first is None:
        raise DataFormatError(f"{path}: file is empty")
    raise DataFormatError(
        f"{path}: cannot infer schema from a {first}-column file; "
        f"expected {len(DEFAULT_COLUMNS)} or {len(DEFAULT_COLUMNS) + 1} columns"
    )


def parse_tsv_line(
    line: str,
    schema: Sequence[str] = DEFAULT_COLUMNS,
    line_number: Optional[int] = None,
    allow_missing_label: bool = False,
) -> TweetRecord:
    """Parse one tab-separated record.

    Empty-marker fields ("null;") become empty values. With
    allow_missing_label, an empty retweets field parses as 0 (used by
    predict, where labels are optional).
    """
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        # undecodable input bytes arrive as lone surrogates (surrogateescape)
        raise DataFormatError("line is not valid UTF-8", line_number=line_number) from None
    fields = line.rstrip("\n").split("\t")
    if len(fields) != len(schema):
        raise DataFormatError(
            f"expected {len(schema)} tab-separated fields, got {len(fields)}",
            line_number=line_number,
        )
    row = dict(zip(schema, fields))

    def _clean(name):
        value = row[name].strip()
        return "" if value == EMPTY_MARKER else value

    def _count(name):
        value = _clean(name)
        if value == "" and name == "retweets" and allow_missing_label:
            return 0
        try:
            parsed = int(value)
        except ValueError:
            raise DataFormatError(
                f"unparseable integer {value!r}",
                line_number=line_number,
                column=name,
            ) from None
        if not 0 <= parsed <= MAX_COUNT:
            raise ValidationError(f"column '{name}' must lie in [0, {MAX_COUNT}], got {parsed}")
        return parsed

    text = _clean(TEXT_COLUMN) if TEXT_COLUMN in row else None
    return TweetRecord(
        tweet_id=_clean("tweet_id"),
        username=_clean("username"),
        timestamp=parse_timestamp(row["timestamp"]),
        followers=_count("followers"),
        friends=_count("friends"),
        favorites=_count("favorites"),
        entities=_clean("entities"),
        sentiment=parse_sentiment(_clean("sentiment")),
        mentions_raw=_clean("mentions"),
        hashtags_raw=_clean("hashtags"),
        urls_raw=_clean("urls"),
        retweets=_count("retweets"),
        text=text or None,
    )


def load_tsv(path, allow_missing_label: bool = False, strict: bool = False,
             keep: Callable = lambda record: record):
    """Read a TSV file, returning (rows, dropped_count): `keep(record)`
    for each valid record, in file order (the records themselves by
    default).

    A record counts as valid only if it parses, which also validates
    everything engineer_features reads; anything else is dropped (or,
    with strict, raised). Record ordinals used in split files index into
    the returned list.
    """
    schema = resolve_schema(path)
    rows = []
    dropped = 0
    with open(path, encoding=ENCODING, errors="surrogateescape") as fh:
        for line_number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = parse_tsv_line(
                    line, schema, line_number=line_number,
                    allow_missing_label=allow_missing_label,
                )
            except (DataFormatError, ValidationError) as exc:
                if strict:
                    if getattr(exc, "line_number", None) is not None:
                        raise
                    raise DataFormatError(str(exc), line_number=line_number) from exc
                dropped += 1
                continue
            rows.append(keep(record))
    return rows, dropped


# ---------------------------------------------------------------------------
# feature engineering

def parse_sentiment(s: str):
    """Split "pos neg" into two scores; pos must lie in [1, 5] and neg in
    [-5, -1]."""
    parts = s.split()
    if len(parts) != 2:
        raise DataFormatError(
            f"sentiment must hold two whitespace-separated integers, got {s!r}"
        )
    try:
        pos, neg = int(parts[0]), int(parts[1])
    except ValueError:
        raise DataFormatError(f"sentiment scores must be integers, got {s!r}") from None
    if not 1 <= pos <= 5:
        raise ValidationError(f"positive sentiment score {pos} outside [1, 5]")
    if not -5 <= neg <= -1:
        raise ValidationError(f"negative sentiment score {neg} outside [-5, -1]")
    return pos, neg


def count_mentions(s: str) -> int:
    """Number of whitespace-separated mentioned names; empty input or the
    empty marker count as zero."""
    s = s.strip()
    if not s or s == EMPTY_MARKER:
        return 0
    return len(s.split())


def engineer_features(record: TweetRecord) -> np.ndarray:
    """The 12 numeric features as a float64 array, in FEATURE_NAMES order."""
    return np.array(
        [
            *decompose_timestamp(record.timestamp),
            record.followers,
            record.friends,
            record.favorites,
            *record.sentiment,
            count_mentions(record.mentions_raw),
        ],
        dtype=np.float64,
    )


def fit_scaler(rows) -> Scaler:
    """Fit per-feature mean/std over feature rows. Call on the training
    split only."""
    matrix = np.asarray(rows, dtype=np.float64)
    if len(matrix) == 0:
        raise ValidationError("cannot fit a scaler on an empty feature set")
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)  # population std (divide by N)
    std = np.where(std > 0.0, std, 1.0)
    return Scaler(mean=mean, std=std)


def apply_scaler(scaler: Scaler, features: np.ndarray) -> np.ndarray:
    return (features - scaler.mean) / scaler.std


# ---------------------------------------------------------------------------
# text

def tokenize(text: str):
    """Lowercase, split on whitespace, strip leading/trailing punctuation,
    drop empties, and collapse anything starting with "http" to <url>."""
    tokens = []
    for raw in text.lower().split():
        token = raw.strip(string.punctuation)
        if not token:
            continue
        tokens.append(URL_TOKEN if token.startswith("http") else token)
    return tokens


def build_vocab(corpus) -> Vocabulary:
    """Assign ids in first-occurrence order starting at 2. Build from the
    training split only."""
    seen = {}
    for tokens in corpus:
        for token in tokens:
            if token not in seen:
                seen[token] = len(seen)
    return Vocabulary(list(seen))


def encode_text(tokens, vocab: Vocabulary, length: int) -> np.ndarray:
    """Fixed-length id sequence: keep the first `length` tokens, map
    unknowns to the OOV id, right-pad with the padding id."""
    ids = np.full(length, Vocabulary.PAD_ID, dtype=np.int64)
    for i, token in enumerate(tokens[:length]):
        ids[i] = vocab.id_of(token)
    return ids


# ---------------------------------------------------------------------------
# splits and encoding

def split_indices(n: int, seed: int):
    """Deterministic disjoint (train, validation, test) index arrays.
    Sizes follow SPLIT_RATIOS with any remainder going to train; each
    array comes back sorted ascending."""
    unit = n // sum(SPLIT_RATIOS)
    if unit == 0:
        raise ValidationError(
            f"{n} records leave the validation or test split empty; "
            f"ratios {SPLIT_RATIOS} need at least {sum(SPLIT_RATIOS)}"
        )
    valid_n = unit * SPLIT_RATIOS[1]
    test_n = unit * SPLIT_RATIOS[2]
    perm = np.random.default_rng(seed).permutation(n)
    train = np.sort(perm[: n - valid_n - test_n])
    valid = np.sort(perm[n - valid_n - test_n : n - test_n])
    test = np.sort(perm[n - test_n :])
    return train, valid, test


class EncodedDataset:
    """Model-ready arrays: standardized numeric features (n, 12), token
    ids (n, length) and retweet-count labels (n,)."""

    def __init__(self, numeric: np.ndarray, token_ids: np.ndarray, labels: np.ndarray):
        self.numeric = np.asarray(numeric, dtype=np.float64)
        self.token_ids = np.asarray(token_ids, dtype=np.int64)
        self.labels = np.asarray(labels, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.labels)

    def select(self, indices) -> "EncodedDataset":
        return EncodedDataset(
            self.numeric[indices], self.token_ids[indices], self.labels[indices]
        )


def encode_records(records, scaler, vocab, length: int) -> EncodedDataset:
    """Standardized numeric features, fixed-length token ids and labels
    for the records, in order."""
    numeric = np.empty((len(records), len(FEATURE_NAMES)))
    try:
        token_ids = np.empty((len(records), length), dtype=np.int64)
    except (MemoryError, ValueError, OverflowError):  # a length past numpy's range
        raise ValidationError(f"token ids of seq_len {length} are too large to allocate") from None
    for i, r in enumerate(records):
        numeric[i] = engineer_features(r)
        token_ids[i] = encode_text(tokenize(r.text) if r.text else [], vocab, length)
    labels = np.array([r.retweets for r in records], dtype=np.float64)
    return EncodedDataset(apply_scaler(scaler, numeric), token_ids, labels)


# ---------------------------------------------------------------------------
# artifact files

def _is_list_of(value, kind) -> bool:
    # bool is an int subclass, but never a valid index or count
    return isinstance(value, list) and all(
        isinstance(v, kind) and not isinstance(v, bool) for v in value
    )


def save_vocab(vocab: Vocabulary, path) -> None:
    write_json(path, {"version": 1, "tokens": vocab.id_to_token[2:]})


def load_vocab(path) -> Vocabulary:
    tokens = read_json(path, version=1).get("tokens")
    if not _is_list_of(tokens, str):
        raise DataFormatError(f"{path}: tokens must be a list of strings")
    try:
        return Vocabulary(tokens)
    except ValidationError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def save_scaler(scaler: Scaler, path) -> None:
    write_json(path, {
        "version": 1,
        "feature_names": list(FEATURE_NAMES),
        "mean": scaler.mean.tolist(),
        "std": scaler.std.tolist(),
    })


def load_scaler(path) -> Scaler:
    payload = read_json(path, version=1)
    mean, std = payload.get("mean"), payload.get("std")
    if not (_is_list_of(mean, (int, float)) and _is_list_of(std, (int, float))
            and len(mean) == len(std) == len(FEATURE_NAMES)):
        raise DataFormatError(
            f"{path}: mean and std must each hold {len(FEATURE_NAMES)} numbers"
        )
    try:
        mean, std = np.asarray(mean, dtype=np.float64), np.asarray(std, dtype=np.float64)
    except OverflowError:  # an int past float64's range
        mean = std = np.array([np.nan])
    # NaN fails every comparison
    if not ((np.abs(mean) <= MAX_COUNT).all() and (std >= MIN_STD).all()
            and (std <= MAX_COUNT).all()):
        raise DataFormatError(
            f"{path}: mean must be finite and std finite and positive, as a fit "
            f"gives them: |mean| and std at most {MAX_COUNT}, std at least 2**-32"
        )
    return Scaler(mean=mean, std=std)


def save_splits(path, seed, train_idx, valid_idx, test_idx) -> None:
    write_json(
        path,
        {
            "version": 1,
            "seed": seed,
            "ratios": list(SPLIT_RATIOS),
            "train": [int(i) for i in train_idx],
            "validation": [int(i) for i in valid_idx],
            "test": [int(i) for i in test_idx],
        },
    )


def load_splits(path) -> dict:
    """The split file's payload; its three index lists must partition
    0..n-1, so an index can never point past the records they cover."""
    payload = read_json(path, version=1)
    parts = [payload.get(name) for name in ("train", "validation", "test")]
    if not all(_is_list_of(p, int) for p in parts) or sorted(
        i for p in parts for i in p
    ) != list(range(sum(map(len, parts)))):
        raise DataFormatError(
            f"{path}: train, validation and test must partition the record indices 0..n-1"
        )
    for name, part in zip(("train", "validation", "test"), parts):
        if not part:
            raise DataFormatError(f"{name} set is empty in {path}; re-run prepare")
    return payload
