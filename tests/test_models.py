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

    x = conv1.forward(x)  # padded 30 -> 128 positions, so 126 outputs
    assert x.shape == (2, 64, 126)

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


def test_forward_zero_params_equals_bias():
    model = build("cnn", "combined")
    zeros = {name: np.zeros_like(v) for name, v in model.param_values().items()}
    zeros["head.out.bias"] = np.array([3.5])
    model.set_param_values(zeros)
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


def test_combined_with_zeroed_text_matches_numeric_branch():
    # the head acts blockwise on [text features, numeric features]
    for arch in models.ARCHITECTURES:
        combined = build(arch, "combined", seed=3)
        values = combined.param_values()
        for name in values:
            if name.startswith("text."):
                values[name] = np.zeros_like(values[name])
        combined.set_param_values(values)

        numeric_model = build(arch, "numeric_only", seed=4)
        sub = {
            name: value
            for name, value in values.items()
            if name.startswith("numeric.")
        }
        sub["head.out.weight"] = values["head.out.weight"][:, combined.text_width :]
        sub["head.out.bias"] = values["head.out.bias"]
        numeric_model.set_param_values(sub)

        numeric, token_ids = batch(combined, 6, seed=5)
        full = combined.forward(numeric=numeric, token_ids=token_ids)
        part = numeric_model.forward(numeric=numeric)
        assert np.allclose(full, part, atol=1e-12)


def test_forward_nonfinite_is_hard_error():
    model = build("cnn", "numeric_only")
    values = model.param_values()
    values["head.out.bias"] = np.array([np.inf])
    model.set_param_values(values)
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


def test_checkpoint_rejects_bad_payload(tmp_path):
    model = build("cnn", "numeric_only")
    path = tmp_path / "ckpt.json"
    models.save_checkpoint(model, path)
    import json

    payload = json.loads(path.read_text())
    payload["params"][0]["data"] = payload["params"][0]["data"][:-1]
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
    model.set_param_values(build("cnn", "combined", seed=3).param_values())
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


def test_set_param_values_validates_names_and_shapes():
    model = build("cnn", "numeric_only")
    values = model.param_values()
    extra = dict(values)
    extra["bogus"] = np.zeros(1)
    with pytest.raises(BuildError):
        model.set_param_values(extra)
    wrong = dict(values)
    wrong["head.out.bias"] = np.zeros(2)
    with pytest.raises(BuildError):
        model.set_param_values(wrong)


def test_param_names_unique():
    for arch in models.ARCHITECTURES:
        for mode in models.MODES:
            model = build(arch, mode)
            names = [p.name for p in model.params()]
            assert len(names) == len(set(names))


def test_build_dispatch():
    cfg = models.ModelConfig(arch="mlp", mode="combined", vocab_size=10)
    with pytest.raises(BuildError):
        models.build_model(cfg, np.random.default_rng(0))
