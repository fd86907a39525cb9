import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from retweet_reg.config import RunConfig, load_run_config
from retweet_reg.errors import UsageError


def test_defaults_validate_with_data():
    cfg = RunConfig(data="rows.tsv")
    cfg.validate()
    assert cfg.epochs == 100
    assert cfg.batch_size == 64
    assert cfg.learning_rate == 0.001


def test_missing_data_only_matters_when_required():
    cfg = RunConfig()
    with pytest.raises(UsageError):
        cfg.validate()
    cfg.validate(require_data=False)


@pytest.mark.parametrize(
    "overrides",
    [
        {"arch": "gru"},
        {"mode": "both"},
        {"epochs": 0},
        {"batch_size": 0},
        {"learning_rate": 0.0},
        {"target_transform": "sqrt"},
        {"embed_dim": 0},
        {"filters_l2": 3},
        {"epochs": "10"},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
    ],
)
def test_validate_rejects(overrides):
    cfg = RunConfig(data="rows.tsv", **overrides)
    with pytest.raises(UsageError):
        cfg.validate()


def test_to_model_config_wires_fields():
    cfg = RunConfig(data="x", arch="rnn", mode="text_only", rnn_hidden=16, seq_len=10)
    mc = cfg.to_model_config(vocab_size=55)
    assert mc.arch == "rnn"
    assert mc.mode == "text_only"
    assert mc.vocab_size == 55
    assert mc.rnn_hidden == 16
    assert mc.seq_len == 10


def test_to_adam_state_wires_fields():
    cfg = RunConfig(data="x", learning_rate=0.01)
    state = cfg.to_adam_state()
    assert state.alpha == 0.01
    assert state.t == 0


def test_load_run_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"data": "rows.tsv", "seed": 3, "batch_size": 16}))
    cfg = load_run_config(path)
    assert cfg.seed == 3
    assert cfg.batch_size == 16
    assert cfg.epochs == 100  # untouched defaults survive


def test_load_run_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "run.json"
    # vocab_size and numeric_dim are model fields, but the prepared
    # vocabulary and the feature set decide them; the recurrence is
    # always tanh, so rnn_activation is no setting; the split is always
    # 4:1:1 and Adam keeps its default betas and epsilon
    removed = ("rnn_activation", "split_ratios", "beta1", "beta2", "epsilon")
    path.write_text(json.dumps({"data": "rows.tsv", "epcohs": 5, "vocab_size": 40,
                                "numeric_dim": 5, **dict.fromkeys(removed, 1)}))
    with pytest.raises(UsageError) as err:
        load_run_config(path)
    for key in ("epcohs", "vocab_size", "numeric_dim", *removed):
        assert key in str(err.value)


def test_load_run_config_rejects_non_object(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(UsageError):
        load_run_config(path)


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
    listed = re.search(r"any of\s+`([^`]*)`", section).group(1)
    assert {k.strip() for k in listed.split(",")} == {f.name for f in fields(RunConfig) if f.init}
