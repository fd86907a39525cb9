"""Property tests: parsing is total. Any line either parses into a record
that the rest of the pipeline can use, or is rejected with a toolkit
error; no input makes load_tsv raise. Reading is total too: an artifact
with one odd value either works or is rejected by name."""

import contextlib
import dataclasses
import io
import json
import shutil
import tempfile
from datetime import timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retweet_reg import cli, data
from retweet_reg.config import RunConfig
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


# --- every artifact reader ---

FIXTURE = Path(__file__).parent / "fixtures" / "tweets_120.tsv"
SIDECAR = "tweets.tsv.schema.json"
# the commands that read each artifact; run.json is a --config file
READERS = {
    "vocab.json": ("train", "evaluate", "predict", "plot"),
    "scaler.json": ("train", "evaluate", "predict", "plot"),
    "splits.json": ("train", "evaluate", "plot"),
    "checkpoint_cnn_combined.json": ("evaluate", "predict", "plot"),
    "checkpoint_rnn_combined.json": ("evaluate", "predict", "plot"),
    SIDECAR: ("prepare", "train", "evaluate", "predict", "plot"),
    "run.json": ("prepare", "train", "evaluate", "predict", "plot", "gradcheck"),
}
# sizes up to 10**3 build and run in well under a second; from 10**5 to
# 10**12 they would allocate for real, and from 10**12 numpy refuses them
# at once, as it does anything past its index range or float64's
odd_json = st.one_of(
    st.integers(-10**3, 10**3),
    st.sampled_from([10**12, 2**63, 10**30, -10**30, 10**400]),
    st.integers(-10**3, 10**3).map(float),
    st.sampled_from([1e30, -0.5]),
    st.booleans(),
    st.none(),
    st.lists(st.lists(st.integers(0, 3), max_size=2), min_size=1, max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), min_size=1, max_size=2),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)


def _paths(value, path=()):
    """The path to every value in a JSON document: all object members,
    and a list's first and last entries."""
    yield path
    if isinstance(value, dict):
        for key, member in value.items():
            yield from _paths(member, (*path, key))
    elif isinstance(value, list) and value:
        for i in sorted({0, len(value) - 1}):
            yield from _paths(value[i], (*path, i))


def _replaced(payload, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(payload))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Prepared artifacts, a cnn and an rnn checkpoint, a schema sidecar
    and a run configuration naming every settable key."""
    out = tmp_path_factory.mktemp("readers")
    shutil.copy(FIXTURE, out / "tweets.tsv")
    columns = [*data.DEFAULT_COLUMNS, data.TEXT_COLUMN]
    (out / SIDECAR).write_text(json.dumps({"columns": columns}))
    common = ["--data", str(out / "tweets.tsv"), "--out", str(out), "--seed", "7"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["prepare", *common]) == 0
        for arch in ("cnn", "rnn"):
            assert cli.main(["train", *common, "--arch", arch, "--epochs", "1"]) == 0
    defaults = RunConfig()
    config = {f.name: getattr(defaults, f.name) for f in dataclasses.fields(RunConfig) if f.init}
    (out / "run.json").write_text(json.dumps(config))
    return out


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_artifact_with_an_odd_value_works_or_is_rejected_by_name(artifacts, draw):
    name = draw.draw(st.sampled_from(sorted(READERS)), label="artifact")
    command = draw.draw(st.sampled_from(READERS[name]), label="command")
    payload = json.loads((artifacts / name).read_text())
    path = draw.draw(st.sampled_from(list(_paths(payload))), label="path")
    value = draw.draw(odd_json, label="value")
    if name == "run.json" and path in (("data",), ("out",)) and isinstance(value, str):
        value = None  # another path names another file
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for f in artifacts.iterdir():
            shutil.copy(f, tmp / f.name)
        if name == "run.json":
            payload = {**payload, "data": str(tmp / "tweets.tsv"), "out": str(tmp)}
        target = tmp / name
        target.write_text(json.dumps(_replaced(payload, path, value)))
        argv = [command, "--data", str(tmp / "tweets.tsv"), "--out", str(tmp)]
        if name == "run.json":
            argv = [command, "--config", str(target)]
        elif name.startswith("checkpoint_rnn"):
            argv.append("--arch=rnn")
        if command == "train":
            argv += ["--epochs", "1"]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    assert code in (0, 1, 2), stderr.getvalue()
    errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
    if code:
        assert len(errors) == 1 and str(target) in errors[0], stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
