"""Property tests: parsing is total. Any line either parses into a record
that the rest of the pipeline can use, or is rejected with a toolkit
error; no input makes load_tsv raise."""

import tempfile
from datetime import timedelta, timezone
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from retweet_reg import data
from retweet_reg.errors import DataFormatError, ValidationError
from synth import record_to_tsv_line

SCHEMA = data.DEFAULT_COLUMNS + (data.TEXT_COLUMN,)
VALID_LINE = "\t".join([
    "1", "u", "Thu Oct 03 21:12:56 CEST 2019", "120", "45", "3", "null;",
    "2 -1", "null;", "null;", "null;", "7", "stay safe",
])
# values that str.isdigit, int() or the timestamp parser treat in
# surprising ways, including the three that once crashed prepare
ODD_VALUES = [
    "99999999999999999999", "-99999999999", "²", "٣", "1_0", " 7 ", "+3", "-0", "",
    "null;", str(2**63), str(10**400), "٣ -١", "1_0 -1", "Sun Jan 01 00:00:00 GMT 99999",
    "Mon Feb 29 00:00:00 UTC 2021", "Sat Jan 01 25:61:61 PST 2022",
]

free_text = st.text(st.characters(blacklist_characters="\t"), max_size=20)
counts = st.integers(0, 2**63 - 1).map(str)
VALID_FIELDS = {
    "tweet_id": free_text,
    "username": free_text,
    "timestamp": st.builds(
        lambda t, tz: data.format_timestamp(t.replace(tzinfo=tz)),
        st.datetimes(),
        st.sampled_from([
            timezone(timedelta(hours=h), name) for name, h in data.TZ_OFFSETS.items()
        ]),
    ),
    "followers": counts,
    "friends": counts,
    "favorites": counts,
    "entities": free_text,
    "sentiment": st.builds("{} {}".format, st.integers(1, 5), st.integers(-5, -1)),
    "mentions": free_text,
    "hashtags": free_text,
    "urls": free_text,
    "retweets": counts,
    "text": free_text,
}
odd_fields = st.dictionaries(
    st.sampled_from(SCHEMA),
    st.one_of(st.sampled_from(ODD_VALUES), st.text(max_size=12)),
    max_size=3,
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.fixed_dictionaries(VALID_FIELDS), odd_fields, st.booleans())
def test_line_parses_or_is_rejected(fields, odd, allow_missing_label):
    fields.update(odd)
    line = "\t".join(fields[name] for name in SCHEMA)
    try:
        record = data.parse_tsv_line(line, SCHEMA, allow_missing_label=allow_missing_label)
    except (DataFormatError, ValidationError):
        return
    assert data.engineer_features(record).shape == (len(data.FEATURE_NAMES),)
    record_to_tsv_line(record, SCHEMA)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.binary(max_size=200))
def test_load_tsv_never_raises(tail):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.tsv"
        path.write_bytes(VALID_LINE.encode("utf-8") + b"\n" + tail)
        records, dropped = data.load_tsv(path)
    assert len(records) >= 1 and dropped >= 0
