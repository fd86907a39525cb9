import base64
import gc
import json
import re
import sys
import threading
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from retweet_reg import models, nn, optim
from retweet_reg.errors import (
    BuildError,
    InferenceError,
    NumericError,
    ValidationError,
)


def build(arch="cnn", mode="combined", seed=0, **overrides):
    cfg = models.ModelConfig(arch=arch, mode=mode, vocab_size=40, **overrides)
    return models.build_model(cfg, np.random.default_rng(seed))


def batch(model, n, seed=1):
    rng = np.random.default_rng(seed)
    numeric = rng.normal(size=(n, model.config.numeric_dim))
    token_ids = rng.integers(0, model.config.vocab_size, size=(n, model.config.seq_len))
    return numeric, token_ids


# --- config validation ---


def test_default_config_validates():
    models.ModelConfig().validate()


@pytest.mark.parametrize(
    "overrides",
    [
        {"arch": "mlp"},
        {"mode": "text"},
        {"vocab_size": 1},
        {"embed_dim": 0},
        {"pad": -1},
        {"filters_l2": 63},
        {"seq_len": 1, "pad": 0, "filter_width": 3},
        {"cnn_activation": "sigmoid"},
        {"target_transform": "sqrt"},
    ],
)
def test_config_rejects(overrides):
    with pytest.raises(BuildError):
        models.ModelConfig(**overrides).validate()


# --- CNN shapes ---


def test_cnn_text_branch_shapes():
    model = build("cnn", "text_only")
    emb, conv1, pool1, act1, conv2, foldl, pool2, act2, flat = model.text_branch.layers

    ids = np.zeros((2, 30), dtype=np.int64)
    x = emb.forward(ids)
    assert x.shape == (2, 100, 30)

    # nominally padded 30 -> 128 positions, but the pool reaches only
    # (3 - 1) + 5 = 7 of the 49 pads on the left, and the 5 padding-only
    # windows there leave only the 2 pads on the right that windows
    # reading tokens need: 30 + 7 + 2 - 3 + 1 outputs
    x = conv1.forward(x)
    assert x.shape == (2, 64, 37)

    x = pool1.forward(x)
    assert x.shape == (2, 64, 5)

    x = act2.forward(act1.forward(x))  # shape preserved
    x = conv2.forward(x)
    assert x.shape == (2, 64, 7)

    x = foldl.forward(x)
    assert x.shape == (2, 32, 7)

    x = pool2.forward(x)
    assert x.shape == (2, 32, 5)

    x = flat.forward(x)
    assert x.shape == (2, 160)
    assert model.text_width == 160


def test_cnn_layer1_padding_reaches_128():
    model = build("cnn", "text_only")
    conv1 = model.text_branch.layers[1]
    assert conv1.pad == 49  # 30 + 2*49 = 128 padded positions
    # (3 - 1) + k_pool 5 on the left, all the pool can reach; the left's
    # 5 padding-only windows leave none to the right: 37 windows
    assert conv1.work_pad == (7, 2)


def test_cnn_numeric_branch_width():
    model = build("cnn", "numeric_only")
    numeric, _ = batch(model, 3)
    out = model.forward(numeric=numeric)
    assert out.shape == (3,)
    # 12 + 2*2 - 3 + 1 = 14 -> pool 5 -> conv 7 -> fold 32ch -> pool 5
    assert model.head.weight.value.shape == (1, 160)


def test_cnn_combined_head_width():
    model = build("cnn", "combined")
    assert model.head.weight.value.shape == (1, 320)
    assert model.text_width == 160


# --- RNN shapes ---


def test_rnn_text_branch_parameter_count():
    model = build("rnn", "text_only")
    rnn_params = [p for p in model.params() if p.name.startswith("text.rnn.")]
    total = sum(p.value.size for p in rnn_params)
    assert total == 100 * 32 + 32 * 32 + 32 == 4256


def test_rnn_widths():
    text = build("rnn", "text_only")
    assert text.head.weight.value.shape == (1, 960)
    numeric = build("rnn", "numeric_only")
    assert numeric.head.weight.value.shape == (1, 384)
    combined = build("rnn", "combined")
    assert combined.head.weight.value.shape == (1, 1344)
    assert combined.text_width == 960


# --- forward ---


@pytest.mark.parametrize("arch", models.ARCHITECTURES)
def test_forward_batch_of_64(arch):
    model = build(arch, "combined")
    numeric, token_ids = batch(model, 64)
    out = model.forward(numeric=numeric, token_ids=token_ids)
    assert out.shape == (64,)
    assert np.isfinite(out).all()


@pytest.mark.parametrize("arch", models.ARCHITECTURES)
def test_discarded_model_is_freed_without_the_cycle_collector(arch):
    # a model rebuilt in a loop must release the last one's arrays at once
    model = build(arch, "combined")
    numeric, token_ids = batch(model, 4)
    model.backward(np.ones_like(model.forward(numeric=numeric, token_ids=token_ids)))
    embed = weakref.ref(model.text_branch.layers[0])
    gc.disable()
    try:
        del model
        assert embed() is None
    finally:
        gc.enable()


def test_forward_zero_params_equals_bias():
    model = build("cnn", "combined")
    model.store.values[...] = 0.0
    model.head.bias.value[...] = 3.5
    numeric, token_ids = batch(model, 4)
    out = model.forward(numeric=numeric, token_ids=token_ids)
    assert np.allclose(out, 3.5)


@pytest.mark.parametrize("arch", models.ARCHITECTURES)
def test_forward_permutation_equivariant(arch):
    model = build(arch, "combined")
    numeric, token_ids = batch(model, 8)
    out = model.forward(numeric=numeric, token_ids=token_ids)
    perm = np.random.default_rng(2).permutation(8)
    out_perm = model.forward(numeric=numeric[perm], token_ids=token_ids[perm])
    assert np.array_equal(out[perm], out_perm)


def test_forward_mode_gating():
    combined = build("cnn", "combined")
    numeric, token_ids = batch(combined, 2)
    with pytest.raises(InferenceError):
        combined.forward(numeric=numeric)
    with pytest.raises(InferenceError):
        combined.forward(token_ids=token_ids)
    text = build("cnn", "text_only")
    with pytest.raises(InferenceError):
        text.forward(numeric=numeric)


def test_forward_rejects_bad_numeric_shape():
    model = build("cnn", "numeric_only")
    with pytest.raises(InferenceError):
        model.forward(numeric=np.zeros((2, 5)))


@pytest.mark.parametrize("mode", models.MODES)
@pytest.mark.parametrize("arch", models.ARCHITECTURES)
def test_forward_empty_batch_is_inference_error(arch, mode):
    model = build(arch, mode)
    numeric, token_ids = batch(model, 0)
    with pytest.raises(InferenceError, match="empty batch"):
        model.forward(numeric=numeric, token_ids=token_ids)


@pytest.mark.parametrize("mode", models.MODES)
@pytest.mark.parametrize("arch", models.ARCHITECTURES)
def test_forward_rejects_misshapen_inputs(arch, mode):
    model = build(arch, mode)
    numeric, token_ids = batch(model, 3)
    cases = []
    if model.text_branch is not None:
        cases += [(numeric, token_ids[:, :0], "token ids must be (batch, 30), got (3, 0)"),
                  (numeric, token_ids[:, :-1], "token ids must be (batch, 30), got (3, 29)"),
                  (numeric, token_ids[0], "token ids must be (batch, 30), got (30,)")]
    if model.numeric_branch is not None:
        cases.append((numeric[:, :-1], token_ids, "numeric features must be (batch, 12)"))
    if mode == "combined":
        cases.append((numeric, token_ids[:2], "token ids have 2 rows, numeric features 3"))
    for numeric_in, ids_in, message in cases:
        with pytest.raises(InferenceError, match=re.escape(message)):
            model.forward(numeric=numeric_in, token_ids=ids_in)


def test_combined_with_zeroed_text_matches_numeric_branch():
    # the head acts blockwise on [text features, numeric features]
    for arch in models.ARCHITECTURES:
        combined = build(arch, "combined", seed=3)
        for slot in combined.store:
            if slot.name.startswith("text."):
                slot.value[...] = 0.0

        numeric_model = build(arch, "numeric_only", seed=4)
        values = {slot.name: slot.value for slot in combined.store}
        values["head.out.weight"] = values["head.out.weight"][:, combined.text_width :]
        for slot in numeric_model.store:
            slot.value[...] = values[slot.name]

        numeric, token_ids = batch(combined, 6, seed=5)
        full = combined.forward(numeric=numeric, token_ids=token_ids)
        part = numeric_model.forward(numeric=numeric)
        assert np.allclose(full, part, atol=1e-12)


def test_forward_nonfinite_is_hard_error():
    model = build("cnn", "numeric_only")
    model.head.bias.value[...] = np.inf
    numeric, _ = batch(model, 2)
    with pytest.raises(NumericError):
        model.forward(numeric=numeric)


# --- loss ---


def test_loss_zero_when_equal():
    loss, grad = models.loss_mse(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert loss == 0.0
    assert (grad == 0.0).all()


def test_loss_worked_example():
    loss, grad = models.loss_mse(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
    assert loss == 1.0
    assert grad.tolist() == [-1.0, 1.0]


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(16)
    pred = rng.normal(size=8)
    target = rng.normal(size=8)
    _, grad = models.loss_mse(pred, target)
    step = 1e-6
    for i in range(8):
        bumped = pred.copy()
        bumped[i] += step
        plus, _ = models.loss_mse(bumped, target)
        bumped[i] -= 2 * step
        minus, _ = models.loss_mse(bumped, target)
        fd = (plus - minus) / (2 * step)
        assert abs(grad[i] - fd) < 1e-8


def test_loss_errors():
    with pytest.raises(ValidationError):
        models.loss_mse(np.zeros(0), np.zeros(0))
    with pytest.raises(ValidationError):
        models.loss_mse(np.zeros(3), np.zeros(2))
    with pytest.raises(NumericError):
        models.loss_mse(np.array([np.inf]), np.array([0.0]))


# --- datasets / checkpoints ---


def make_dataset(model, n, seed=6):
    numeric, token_ids = batch(model, n, seed=seed)
    labels = np.random.default_rng(seed + 1).normal(size=n)
    from retweet_reg.data import EncodedDataset

    return EncodedDataset(numeric, token_ids, labels)


def test_predict_dataset_matches_single_batch():
    model = build("rnn", "combined")
    ds = make_dataset(model, 10)
    whole = model.forward(numeric=ds.numeric, token_ids=ds.token_ids)
    chunked = models.predict_dataset(model, ds, batch_size=3)
    assert np.allclose(whole, chunked, atol=1e-12)


def test_predict_dataset_count_overflow_is_numeric_error():
    # finite on the model's log scale, but expm1(1000) is past float64
    model = build("rnn", "numeric_only", rnn_hidden=2, target_transform="log1p")
    model.head.bias.value[...] = 1000.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy warning on the way
        with pytest.raises(NumericError, match="non-finite predicted count"):
            models.predict_dataset(model, make_dataset(model, 3))


@pytest.mark.parametrize("arch", models.ARCHITECTURES)
def test_checkpoint_round_trip(tmp_path, arch):
    model = build(arch, "combined", seed=7)
    numeric, token_ids = batch(model, 5)
    before = model.forward(numeric=numeric, token_ids=token_ids)
    path = tmp_path / "ckpt.json"
    models.save_checkpoint(model, path)
    loaded = models.load_checkpoint(path)
    after = loaded.forward(numeric=numeric, token_ids=token_ids)
    assert np.array_equal(before, after)  # bit-identical
    assert loaded.config == model.config


def test_checkpoint_round_trips_extreme_values(tmp_path):
    model = build("cnn", "numeric_only")
    extremes = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    model.store.values[: len(extremes)] = extremes
    path = tmp_path / "ckpt.json"
    models.save_checkpoint(model, path)
    loaded = models.load_checkpoint(path)
    assert np.array_equal(loaded.store.values, model.store.values)
    assert np.array_equal(np.signbit(loaded.store.values), np.signbit(model.store.values))


def _values(payload):
    return np.frombuffer(base64.b64decode(payload["values"]), "<f8")


def _encoded(values):
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def test_checkpoint_rejects_bad_payload(tmp_path):
    model = build("cnn", "numeric_only")
    path = tmp_path / "ckpt.json"
    models.save_checkpoint(model, path)
    payload = json.loads(path.read_text())
    payload["values"] = _encoded(_values(payload)[:-1])
    path.write_text(json.dumps(payload))
    with pytest.raises(BuildError):
        models.load_checkpoint(path)


def assert_views_bound(model):
    store = model.store
    for slot in store:
        assert np.shares_memory(slot.value, store.values), slot.name
        assert np.shares_memory(slot.grad, store.grads), slot.name
    numeric, token_ids = batch(model, 3)
    before = model.forward(numeric=numeric, token_ids=token_ids)
    saved = store.values.copy()
    store.values[...] = 0.0
    zeroed = model.forward(numeric=numeric, token_ids=token_ids)
    store.values[...] = saved
    assert (zeroed == 0.0).all() and not (before == 0.0).all()
    assert np.array_equal(model.forward(numeric=numeric, token_ids=token_ids), before)


def test_parameter_writes_keep_store_views_bound(tmp_path):
    # a slot rebound to a copy would silently stop training
    model = build("cnn", "combined", seed=2)
    assert_views_bound(model)
    model.store.values[...] = build("cnn", "combined", seed=3).store.values
    assert_views_bound(model)
    path = tmp_path / "ckpt.json"
    models.save_checkpoint(model, path)
    loaded = models.load_checkpoint(path)
    assert_views_bound(loaded)
    numeric, token_ids = batch(loaded, 4)
    pred = loaded.forward(numeric=numeric, token_ids=token_ids)
    loaded.backward(models.loss_mse(pred, np.zeros(4))[1])
    optim.adam_step(optim.AdamState(), loaded.store)
    assert_views_bound(loaded)


@pytest.mark.parametrize("case", ["extra_name", "wrong_shape"])
def test_checkpoint_rejects_layout_mismatch(tmp_path, case):
    model = build("cnn", "numeric_only")
    path = tmp_path / "ckpt.json"
    models.save_checkpoint(model, path)
    payload = json.loads(path.read_text())
    if case == "extra_name":
        payload["layout"].append(["bogus", [1]])
        named = "bogus"
    else:
        payload["layout"][-1] = ["head.out.bias", [2]]
        named = "head.out.bias"
    payload["values"] = _encoded([*_values(payload), 0.0])
    path.write_text(json.dumps(payload))
    with pytest.raises(BuildError, match=named):
        models.load_checkpoint(path)


def test_readme_states_checkpoint_version():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"checkpoint \(version (\d+)\)", readme)
    assert stated and all(int(v) == models.CHECKPOINT_VERSION for v in stated), stated


def test_param_names_unique():
    for arch in models.ARCHITECTURES:
        for mode in models.MODES:
            model = build(arch, mode)
            names = [p.name for p in model.params()]
            assert len(names) == len(set(names))


def test_build_unallocatable_model_is_build_error():
    # about 1.4 PiB for text.conv1's filters: refused at once, never allocated
    with pytest.raises(BuildError, match="too large to allocate"):
        build("cnn", "combined", embed_dim=10**12)


def test_build_dispatch():
    cfg = models.ModelConfig(arch="mlp", mode="combined", vocab_size=10)
    with pytest.raises(BuildError):
        models.build_model(cfg, np.random.default_rng(0))


# --- two lanes ---


@pytest.fixture
def submits(monkeypatch):
    """Work handed to the worker lane, counted: one entry per call."""
    seen = []
    real = models._lane

    def counting():
        seen.append(1)
        return real()

    monkeypatch.setattr(models, "_lane", counting)
    return seen


@pytest.fixture
def two_cpus(monkeypatch):
    """A second usable CPU, whatever the host has."""
    monkeypatch.setattr(models, "usable_cpus", lambda: 2)


def train_steps(model, steps=3, n=16):
    """Every step's outputs and gradient vector, and the final values."""
    state = optim.AdamState()
    seen = []
    for step in range(steps):
        numeric, token_ids = batch(model, n, seed=step)
        seen.append(model.forward(numeric=numeric, token_ids=token_ids))
        model.backward(np.linspace(-1.0, 1.0, n))
        seen.append(model.store.grads.copy())
        optim.adam_step(state, model.store)
    return seen + [model.store.values]


@pytest.mark.parametrize("mode", models.MODES)
@pytest.mark.parametrize("arch", models.ARCHITECTURES)
def test_lanes_give_the_sequential_bits(monkeypatch, submits, arch, mode):
    monkeypatch.setattr(models, "usable_cpus", lambda: 1)
    sequential = build(arch, mode)
    seq_out = train_steps(sequential)
    assert not submits
    monkeypatch.setattr(models, "usable_cpus", lambda: 2)
    lanes = build(arch, mode)
    # switch threads as often as possible, so a lost gradient update shows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        lane_out = train_steps(lanes)
    finally:
        sys.setswitchinterval(interval)
    # a forward and a backward a step, and only for two conv towers
    assert len(submits) == (6 if (arch, mode) == ("cnn", "combined") else 0)
    for seq_array, lane_array in zip(seq_out, lane_out, strict=True):
        assert np.array_equal(seq_array, lane_array)


def test_many_models_share_one_worker_thread(two_cpus, submits):
    before = threading.active_count()
    for seed in range(5):
        model = build("cnn", "combined", seed=seed)
        ds = make_dataset(model, 10)
        for _ in range(3):
            models.predict_dataset(model, ds, batch_size=4)
    assert len(submits) == 5 * 3 * 3
    assert threading.active_count() - before <= 1
    lanes = [t for t in threading.enumerate() if t.name.startswith("numeric-lane")]
    assert len(lanes) == 1


def test_worker_lane_raises_no_numpy_warning(two_cpus, submits):
    model = build("cnn", "combined")
    numeric, token_ids = batch(model, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model.forward(numeric=numeric, token_ids=token_ids)
        model.backward(np.full(4, 1e308))  # overflows in the numeric branch
        # conv1's products overflow, conv2's sums of them are NaN
        model.numeric_branch.layers[0].filters.value[...] = 1e300
        with pytest.raises(NumericError, match="NaN in k-max pooling input"):
            model.forward(numeric=np.full((4, 12), 1e10), token_ids=token_ids)
    assert len(submits) == 3


@pytest.mark.parametrize("method", ["forward", "backward"])
@pytest.mark.parametrize("failing", [("text", "numeric"), ("numeric",)])
def test_lane_errors_raise_as_in_order(two_cpus, submits, monkeypatch, method, failing):
    model = build("cnn", "combined")
    numeric, token_ids = batch(model, 4)
    model.forward(numeric=numeric, token_ids=token_ids)
    finished = []

    def failer(name):
        def fail(_):
            if name == "numeric":
                time.sleep(0.05)  # still running when the text branch fails
                finished.append(name)
            raise ValueError(f"{name} branch failed")
        return fail

    for name in failing:
        monkeypatch.setattr(getattr(model, f"{name}_branch"), method, failer(name))
    with pytest.raises(ValueError, match=f"^{failing[0]} branch failed$"):
        if method == "forward":
            model.forward(numeric=numeric, token_ids=token_ids)
        else:
            model.backward(np.ones(4))
    assert finished == ["numeric"]  # the worker was waited for
    assert len(submits) == 2
