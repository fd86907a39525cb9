import json

import pytest

from retweet_reg.config import RunConfig, load_run_config
from retweet_reg.errors import UsageError


def test_defaults_validate_with_data():
    cfg = RunConfig(data="rows.tsv")
    cfg.validate()
    assert cfg.epochs == 100
    assert cfg.batch_size == 64
    assert cfg.learning_rate == 0.001
    assert cfg.split_ratios == (4, 1, 1)


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
        {"split_ratios": (4, 1)},
        {"split_ratios": (4, 0, 1)},
        {"split_ratios": (4.0, 1, 1)},
        {"epochs": 0},
        {"batch_size": 0},
        {"learning_rate": 0.0},
        {"target_transform": "sqrt"},
        {"embed_dim": 0},
        {"filters_l2": 3},
        {"epochs": "10"},
        {"split_ratios": 5},
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
    cfg = RunConfig(data="x", learning_rate=0.01, beta1=0.8, beta2=0.9, epsilon=1e-6)
    state = cfg.to_adam_state()
    assert state.alpha == 0.01
    assert state.beta1 == 0.8
    assert state.beta2 == 0.9
    assert state.epsilon == 1e-6
    assert state.t == 0


def test_load_run_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"data": "rows.tsv", "seed": 3, "split_ratios": [3, 1, 1]}))
    cfg = load_run_config(path)
    assert cfg.seed == 3
    assert cfg.split_ratios == (3, 1, 1)
    assert cfg.epochs == 100  # untouched defaults survive


def test_load_run_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "run.json"
    # vocab_size and numeric_dim are model fields, but the prepared
    # vocabulary and the feature set decide them; the recurrence is
    # always tanh, so rnn_activation is no setting
    path.write_text(json.dumps({"data": "rows.tsv", "epcohs": 5, "vocab_size": 40,
                                "numeric_dim": 5, "rnn_activation": "tanh"}))
    with pytest.raises(UsageError) as err:
        load_run_config(path)
    for key in ("epcohs", "vocab_size", "numeric_dim", "rnn_activation"):
        assert key in str(err.value)


def test_load_run_config_rejects_non_object(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(UsageError):
        load_run_config(path)
