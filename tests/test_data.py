import json
import re
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from retweet_reg import data
from retweet_reg.errors import DataFormatError, ValidationError
from synth import record_to_tsv_line


def make_line(**overrides):
    fields = {
        "tweet_id": "900000000000000001",
        "username": "a1b2c3",
        "timestamp": "Thu Oct 03 21:12:56 CEST 2019",
        "followers": "120",
        "friends": "45",
        "favorites": "3",
        "entities": "null;",
        "sentiment": "2 -1",
        "mentions": "null;",
        "hashtags": "null;",
        "urls": "null;",
        "retweets": "7",
        "text": "Stay safe and wash your hands",
    }
    fields.update(overrides)
    schema = data.DEFAULT_COLUMNS + (data.TEXT_COLUMN,)
    return "\t".join(fields[name] for name in schema)


# --- timestamps ---


def test_parse_textual_timestamp():
    ts = data.parse_timestamp("Thu Oct 03 21:12:56 CEST 2019")
    assert (ts.year, ts.month, ts.day) == (2019, 10, 3)
    assert (ts.hour, ts.minute, ts.second) == (21, 12, 56)
    assert ts.utcoffset() == timedelta(hours=2)


def test_parse_timestamp_ignores_weekday_field():
    # the leading weekday token is redundant with the date and not checked
    a = data.parse_timestamp("Thu Oct 03 21:12:56 CEST 2019")
    b = data.parse_timestamp("Mon Oct 03 21:12:56 CEST 2019")
    assert a == b


@pytest.mark.parametrize(
    "value",
    [
        "Thu Oct 03 21:12:56 XYZ 2019",  # unknown timezone
        "Thu Foo 03 21:12:56 CEST 2019",  # unknown month
        "Thu Oct 03 21:12 CEST 2019",  # short clock
        "2019-10-03T21:12:56Z",  # ISO form is not accepted
        "not a time",
        "1570130000",  # epoch seconds
        "99999999999999999999",  # epoch-like, beyond a C long
        "²",  # str.isdigit accepts superscript digits
        "-99999999999",  # epoch-like and negative
        "Thu Oct 03 21:12:56 CEST 99999999999999999999",  # year overflows
    ],
)
def test_parse_timestamp_rejects(value):
    with pytest.raises(DataFormatError):
        data.parse_timestamp(value)


def test_timestamp_round_trip():
    rng = np.random.default_rng(7)
    names = list(data.TZ_OFFSETS)
    for _ in range(50):
        tz_name = names[rng.integers(len(names))]
        tz = timezone(timedelta(hours=data.TZ_OFFSETS[tz_name]), tz_name)
        ts = datetime(
            2020,
            int(rng.integers(1, 13)),
            int(rng.integers(1, 29)),
            int(rng.integers(0, 24)),
            int(rng.integers(0, 60)),
            int(rng.integers(0, 60)),
            tzinfo=tz,
        )
        assert data.parse_timestamp(data.format_timestamp(ts)) == ts


def test_timestamps_share_one_tzinfo_per_abbreviation():
    a = data.parse_timestamp("Thu Oct 03 21:12:56 CEST 2019")
    b = data.parse_timestamp("Fri Mar 27 08:00:00 CEST 2020")
    assert a.tzinfo is b.tzinfo


@pytest.mark.parametrize("tz_name", sorted(data.TZ_OFFSETS))
def test_shared_tzinfo_decomposes_as_a_fresh_one(tz_name):
    fresh = timezone(timedelta(hours=data.TZ_OFFSETS[tz_name]), tz_name)
    for stamp, fields in (("Mon Dec 31 23:59:59", (2018, 12, 31, 23, 59, 59)),
                          ("Sun Mar 29 02:30:00", (2020, 3, 29, 2, 30, 0))):
        parsed = data.parse_timestamp(f"{stamp} {tz_name} {fields[0]}")
        expected = datetime(*fields, tzinfo=fresh)
        assert data.decompose_timestamp(parsed) == data.decompose_timestamp(expected)
        assert (parsed.utcoffset(), parsed.tzname()) == (expected.utcoffset(), tz_name)


def test_decompose_timestamp():
    ts = datetime(2019, 10, 3, 21, 12, tzinfo=timezone.utc)
    # 2019-10-03 was a Thursday in ISO week 40
    assert data.decompose_timestamp(ts) == (10, 40, 3, 21, 12, 3)


def test_decompose_monday_is_zero():
    ts = datetime(2020, 3, 2, 0, 0, tzinfo=timezone.utc)
    assert data.decompose_timestamp(ts)[5] == 0


# --- sentiment / mentions ---


def test_parse_sentiment():
    assert data.parse_sentiment("3 -2") == (3, -2)
    assert data.parse_sentiment("1 -1") == (1, -1)
    assert data.parse_sentiment("5 -5") == (5, -5)


@pytest.mark.parametrize("value", ["6 -1", "0 -1", "1 0", "1 -6"])
def test_parse_sentiment_range(value):
    with pytest.raises(ValidationError):
        data.parse_sentiment(value)


@pytest.mark.parametrize("value", ["3", "3 -1 2", "a -1"])
def test_parse_sentiment_shape(value):
    with pytest.raises(DataFormatError):
        data.parse_sentiment(value)


def test_count_mentions():
    assert data.count_mentions("null;") == 0
    assert data.count_mentions("") == 0
    assert data.count_mentions("alice") == 1
    assert data.count_mentions("alice bob carol") == 3


# --- tokenization / vocab ---


def test_tokenize():
    assert data.tokenize("Hello, World!") == ["hello", "world"]
    assert data.tokenize("see https://t.co/abc now") == ["see", "<url>", "now"]
    assert data.tokenize("a  ...  b") == ["a", "b"]
    assert data.tokenize("") == []


def test_build_vocab_first_occurrence_order():
    vocab = data.build_vocab([["b", "a"], ["a", "c"]])
    assert vocab.id_of("b") == 2
    assert vocab.id_of("a") == 3
    assert vocab.id_of("c") == 4
    assert vocab.id_of("missing") == data.Vocabulary.OOV_ID
    assert len(vocab) == 5  # pad + oov + 3 tokens


def test_encode_text_pad_truncate_oov():
    vocab = data.build_vocab([["a", "b"]])
    ids = data.encode_text(["a", "zzz", "b"], vocab, length=5)
    assert ids.tolist() == [2, 1, 3, 0, 0]
    long = data.encode_text(["a"] * 40, vocab, length=30)
    assert long.shape == (30,)
    assert (long == 2).all()


def test_vocab_round_trip(tmp_path):
    vocab = data.build_vocab([["x", "y", "z"]])
    path = tmp_path / "vocab.json"
    data.save_vocab(vocab, path)
    loaded = data.load_vocab(path)
    assert loaded.id_to_token == vocab.id_to_token


# --- TSV parsing ---


def test_parse_tsv_line():
    record = data.parse_tsv_line(
        make_line(), schema=data.DEFAULT_COLUMNS + (data.TEXT_COLUMN,)
    )
    assert record.tweet_id == "900000000000000001"
    assert record.followers == 120
    assert record.retweets == 7
    assert record.entities == ""  # null; becomes empty
    assert record.text == "Stay safe and wash your hands"


def test_parse_tsv_line_null_text():
    record = data.parse_tsv_line(
        make_line(text="null;"), schema=data.DEFAULT_COLUMNS + (data.TEXT_COLUMN,)
    )
    assert record.text is None


def test_parse_tsv_line_field_count():
    with pytest.raises(DataFormatError) as err:
        data.parse_tsv_line("only\tthree\tfields", line_number=4)
    assert "line 4" in str(err.value)


def test_parse_tsv_line_bad_count_column():
    line = make_line(followers="many")
    with pytest.raises(DataFormatError) as err:
        data.parse_tsv_line(
            line, schema=data.DEFAULT_COLUMNS + (data.TEXT_COLUMN,), line_number=9
        )
    msg = str(err.value)
    assert "line 9" in msg and "followers" in msg


def test_parse_tsv_line_negative_count():
    line = make_line(favorites="-1")
    with pytest.raises(ValidationError):
        data.parse_tsv_line(line, schema=data.DEFAULT_COLUMNS + (data.TEXT_COLUMN,))


def test_parse_tsv_line_count_beyond_int64():
    line = make_line(followers=str(2**63))
    with pytest.raises(ValidationError):
        data.parse_tsv_line(line, schema=data.DEFAULT_COLUMNS + (data.TEXT_COLUMN,))


def test_parse_tsv_line_missing_label():
    schema = data.DEFAULT_COLUMNS + (data.TEXT_COLUMN,)
    line = make_line(retweets="null;")
    with pytest.raises(DataFormatError):
        data.parse_tsv_line(line, schema=schema)
    record = data.parse_tsv_line(line, schema=schema, allow_missing_label=True)
    assert record.retweets == 0


def test_parsed_record_has_no_instance_dict():
    record = data.parse_tsv_line(make_line(), schema=data.DEFAULT_COLUMNS + (data.TEXT_COLUMN,))
    assert not hasattr(record, "__dict__")


def test_record_round_trip():
    schema = data.DEFAULT_COLUMNS + (data.TEXT_COLUMN,)
    line = make_line()
    record = data.parse_tsv_line(line, schema=schema)
    assert record_to_tsv_line(record, schema) == line


def test_resolve_schema_sniffs_text_column(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text(make_line() + "\n", encoding="utf-8")
    assert data.resolve_schema(path) == data.DEFAULT_COLUMNS + (data.TEXT_COLUMN,)


def test_resolve_schema_sidecar(tmp_path):
    path = tmp_path / "rows.tsv"
    shuffled = (data.TEXT_COLUMN,) + data.DEFAULT_COLUMNS
    path.write_text("x\n", encoding="utf-8")
    (tmp_path / "rows.tsv.schema.json").write_text(
        '{"columns": %s}' % list(shuffled).__repr__().replace("'", '"'),
        encoding="utf-8",
    )
    assert data.resolve_schema(path) == shuffled


def test_resolve_schema_rejects_unknown_columns(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text("x\n", encoding="utf-8")
    (tmp_path / "rows.tsv.schema.json").write_text(
        '{"columns": ["tweet_id", "mystery"]}', encoding="utf-8"
    )
    with pytest.raises(DataFormatError):
        data.resolve_schema(path)


def test_resolve_schema_unknown_column_count_names_the_file(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text("a\tb\tc\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: cannot infer schema"):
        data.resolve_schema(path)


def test_resolve_schema_sniffs_past_a_malformed_first_line(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text(f"a\tb\tc\n\n{make_line()}\n", encoding="utf-8")
    assert data.resolve_schema(path) == data.DEFAULT_COLUMNS + (data.TEXT_COLUMN,)


def test_resolve_schema_names_the_first_lines_count(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text("a\tb\tc\nd\te\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="from a 3-column file"):
        data.resolve_schema(path)


def test_load_tsv_skips_a_byte_order_mark(fixture_tsv, tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_bytes(b"\xef\xbb\xbf" + fixture_tsv.read_bytes())
    records, dropped = data.load_tsv(path)
    assert (len(records), dropped) == (120, 0)
    assert records[0].tweet_id == "tweet00000"


def test_load_tsv_skips_a_byte_order_mark_before_a_sidecar_schema(fixture_tsv, tmp_path):
    # the first field is an integer column, which a BOM would make unparseable
    columns = ["followers"] + [c for c in data.DEFAULT_COLUMNS if c != "followers"]
    columns.append(data.TEXT_COLUMN)
    order = [(data.DEFAULT_COLUMNS + (data.TEXT_COLUMN,)).index(c) for c in columns]
    lines = []
    for line in fixture_tsv.read_text(encoding="utf-8").splitlines():
        fields = line.split("\t")
        lines.append("\t".join(fields[i] for i in order))
    path = tmp_path / "rows.tsv"
    path.write_bytes(b"\xef\xbb\xbf" + ("\n".join(lines) + "\n").encode("utf-8"))
    (tmp_path / "rows.tsv.schema.json").write_text(
        json.dumps({"columns": columns}), encoding="utf-8")
    records, dropped = data.load_tsv(path)
    assert (len(records), dropped) == (120, 0)
    assert (records[0].tweet_id, records[0].followers) == ("tweet00000", 1942)


def test_load_tsv_keeps_what_keep_returns(fixture_tsv):
    records, _ = data.load_tsv(fixture_tsv)
    ids, dropped = data.load_tsv(fixture_tsv, keep=lambda r: r.tweet_id)
    assert (ids, dropped) == ([r.tweet_id for r in records], 0)


def test_load_tsv_drops_bad_rows(tmp_path):
    path = tmp_path / "rows.tsv"
    rows = [make_line(), "garbage", make_line(sentiment="9 -1"), make_line()]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    # sniffing sees 13 columns on the first line
    records, dropped = data.load_tsv(path)
    assert len(records) == 2
    assert dropped == 2


def test_load_tsv_strict_reports_line(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text(make_line() + "\n" + make_line(sentiment="9 -1") + "\n", encoding="utf-8")
    with pytest.raises((DataFormatError, ValidationError)) as err:
        data.load_tsv(path, strict=True)
    assert "line 2" in str(err.value)


def test_load_tsv_drops_undecodable_line(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_bytes(f"{make_line()}\n\xff\xfe bad\n{make_line()}\n".encode("latin-1"))
    records, dropped = data.load_tsv(path)
    assert len(records) == 2
    assert dropped == 1


def test_load_tsv_strict_reports_undecodable_line(tmp_path):
    path = tmp_path / "rows.tsv"
    bad = make_line(username="\xff")  # latin-1 writes a lone 0xff byte
    path.write_bytes(f"{make_line()}\n{bad}\n".encode("latin-1"))
    with pytest.raises(DataFormatError, match="line 2"):
        data.load_tsv(path, strict=True)


def test_load_tsv_fixture(fixture_tsv):
    records, dropped = data.load_tsv(fixture_tsv)
    assert len(records) == 120
    assert dropped == 0
    assert sum(1 for r in records if r.text is None) == 2


def test_load_and_encode_engineer_each_row_once(fixture_tsv, monkeypatch):
    engineered = []
    real = data.engineer_features
    monkeypatch.setattr(data, "engineer_features", lambda r: engineered.append(r) or real(r))
    records, _ = data.load_tsv(fixture_tsv)
    scaler = data.Scaler(mean=np.zeros(12), std=np.ones(12))
    data.encode_records(records, scaler, data.build_vocab([]), length=30)
    assert len(engineered) == 120


# --- features / scaler ---


def test_engineer_features_order():
    record = data.parse_tsv_line(
        make_line(mentions="alice bob"),
        schema=data.DEFAULT_COLUMNS + (data.TEXT_COLUMN,),
    )
    arr = data.engineer_features(record)
    assert arr.shape == (12,)
    assert arr.dtype == np.float64
    # month, iso_week, day, hour, minute, day_of_week, followers, friends,
    # favorites, sentiment_pos, sentiment_neg, mention_count
    assert arr.tolist() == [10, 40, 3, 21, 12, 3, 120, 45, 3, 2, -1, 2]


def test_scaler_standardizes():
    rng = np.random.default_rng(3)
    feats = []
    for _ in range(200):
        values = rng.normal(10.0, 4.0, size=12)
        feats.append(values)
    scaler = data.fit_scaler(feats)
    scaled = np.stack([data.apply_scaler(scaler, f) for f in feats])
    assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(scaled.std(axis=0), 1.0, atol=1e-9)


def test_scaler_constant_feature():
    feats = [np.full(12, 5.0) for _ in range(4)]
    scaler = data.fit_scaler(feats)
    assert (scaler.std == 1.0).all()
    assert (data.apply_scaler(scaler, feats[0]) == 0.0).all()


def test_scaler_round_trip(tmp_path):
    scaler = data.Scaler(mean=np.arange(12.0), std=np.arange(1.0, 13.0))
    path = tmp_path / "scaler.json"
    data.save_scaler(scaler, path)
    loaded = data.load_scaler(path)
    assert np.array_equal(loaded.mean, scaler.mean)
    assert np.array_equal(loaded.std, scaler.std)


# --- splits ---


def test_split_sizes_120():
    train, valid, test = data.split_indices(120, seed=7)
    assert (len(train), len(valid), len(test)) == (80, 20, 20)


def test_split_remainder_goes_to_train():
    train, valid, test = data.split_indices(10, seed=0)
    assert (len(train), len(valid), len(test)) == (8, 1, 1)


def test_split_needs_a_row_per_ratio_unit():
    with pytest.raises(ValidationError, match="at least 6"):
        data.split_indices(5, seed=0)
    assert [len(part) for part in data.split_indices(6, seed=0)] == [4, 1, 1]


def test_split_properties():
    for seed in range(10):
        n = 30 + seed * 17
        train, valid, test = data.split_indices(n, seed=seed)
        merged = np.concatenate([train, valid, test])
        assert len(merged) == n
        assert len(np.unique(merged)) == n  # disjoint, complete
        for part in (train, valid, test):
            assert (np.diff(part) > 0).all()  # sorted ascending


def test_split_deterministic():
    a = data.split_indices(97, seed=123)
    b = data.split_indices(97, seed=123)
    c = data.split_indices(97, seed=124)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_splits_round_trip(tmp_path):
    train, valid, test = data.split_indices(50, seed=5)
    path = tmp_path / "splits.json"
    data.save_splits(path, 5, train, valid, test)
    payload = data.load_splits(path)
    assert payload["seed"] == 5
    assert payload["train"] == train.tolist()
    assert payload["test"] == test.tolist()


# --- encoding ---


def test_encode_record_and_dataset(fixture_tsv):
    records, _ = data.load_tsv(fixture_tsv)
    train = records[:40]
    scaler = data.fit_scaler([data.engineer_features(r) for r in train])
    vocab = data.build_vocab([data.tokenize(r.text) for r in train if r.text])
    ds = data.encode_records(records, scaler, vocab, length=30)
    assert ds.numeric.shape == (120, 12)
    assert ds.token_ids.shape == (120, 30)
    assert ds.labels.shape == (120,)
    assert ds.numeric.dtype == np.float64
    assert ds.token_ids.dtype == np.int64
    sub = ds.select(np.array([3, 5]))
    assert len(sub) == 2
    assert np.array_equal(sub.numeric, ds.numeric[[3, 5]])


def test_encode_record_empty_text_is_all_padding():
    record = data.parse_tsv_line(
        make_line(text="null;"), schema=data.DEFAULT_COLUMNS + (data.TEXT_COLUMN,)
    )
    scaler = data.Scaler(mean=np.zeros(12), std=np.ones(12))
    vocab = data.build_vocab([["a"]])
    encoded = data.encode_records([record], scaler, vocab, length=30)
    assert (encoded.token_ids == data.Vocabulary.PAD_ID).all()


def test_encode_records_empty():
    scaler = data.Scaler(mean=np.zeros(12), std=np.ones(12))
    ds = data.encode_records([], scaler, data.build_vocab([]), length=7)
    assert ds.numeric.shape == (0, 12)
    assert ds.token_ids.shape == (0, 7)
    assert ds.labels.shape == (0,)
