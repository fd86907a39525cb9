import ctypes
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import retweet_reg
from retweet_reg import nn, optim
from retweet_reg.data import EncodedDataset
from retweet_reg.errors import NumericError, ValidationError
from retweet_reg.models import ModelConfig, build_model


def stored(value, name="w"):
    """A slot and the one-slot store that Adam updates."""
    p = nn.ParamSlot(name, np.asarray(value, dtype=np.float64))
    return p, nn.ParamStore([p])


def reference_adam(theta, grads, alpha=0.001, beta1=0.9, beta2=0.999, eps=1e-7):
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta = theta - alpha * m_hat / (math.sqrt(v_hat) + eps)
    return theta


# --- adam_step ---


def test_adam_single_step_closed_form():
    p, store = stored([0.0])
    state = optim.AdamState()
    p.accumulate(np.array([1.0]))
    optim.adam_step(state, store)
    # m_hat = v_hat = 1 at t=1, so the step is -alpha / (1 + eps)
    expected = -0.001 / (1.0 + 1e-7)
    assert abs(p.value[0] - expected) < 1e-9
    assert abs(p.value[0] - (-0.0009999999)) < 1e-9
    assert state.t == 1
    assert abs(state.m[0] - 0.1) < 1e-15
    assert abs(state.v[0] - 0.001) < 1e-15


def test_adam_zero_gradient_leaves_parameter_fixed():
    p, store = stored([2.5])
    state = optim.AdamState()
    for _ in range(10):
        p.accumulate(np.array([0.0]))
        optim.adam_step(state, store)
    assert p.value[0] == 2.5


def test_adam_step_magnitude_bounded():
    p, store = stored([0.0])
    state = optim.AdamState()
    previous = p.value[0]
    for _ in range(2):
        p.accumulate(np.array([1.0]))
        optim.adam_step(state, store)
        assert abs(p.value[0] - previous) <= 0.001 * (1.0 + 1e-6)
        previous = p.value[0]


def test_adam_update_bound_random_gradients():
    rng = np.random.default_rng(30)
    p, store = stored(rng.normal(size=8))
    state = optim.AdamState()
    for _ in range(50):
        before = p.value.copy()
        p.accumulate(rng.normal(size=8) * 10.0)
        optim.adam_step(state, store)
        assert np.abs(p.value - before).max() <= 2 * 0.001
        assert np.isfinite(p.value).all()
        assert (state.v >= 0.0).all()


def test_adam_matches_reference_sequence():
    rng = np.random.default_rng(31)
    grads = rng.normal(size=25).tolist()
    p, store = stored([0.7])
    state = optim.AdamState()
    for g in grads:
        p.accumulate(np.array([g]))
        optim.adam_step(state, store)
    assert abs(p.value[0] - reference_adam(0.7, grads)) < 1e-15


def test_adam_nonfinite_gradient():
    ok, bad = nn.ParamSlot("a", np.zeros(2)), nn.ParamSlot("head.out.bias", np.zeros(3))
    store = nn.ParamStore([ok, bad])
    bad.accumulate(np.array([0.0, np.nan, 0.0]))
    with pytest.raises(NumericError) as err:
        optim.adam_step(optim.AdamState(), store)
    assert "'head.out.bias'" in str(err.value)


def test_adam_diverging_step_names_parameter_and_stores_nothing():
    ok, big = nn.ParamSlot("a", np.ones(1)), nn.ParamSlot("b", np.ones(1))
    store = nn.ParamStore([ok, big])
    ok.accumulate(np.array([1.0]))
    big.accumulate(np.array([10.0]))
    state = optim.AdamState(alpha=1e308)
    with pytest.raises(NumericError) as err:
        optim.adam_step(state, store)
    assert "'b'" in str(err.value)
    assert ok.value[0] == 1.0 and big.value[0] == 1.0
    assert state.t == 0 and state.m == 0.0 and state.v == 0.0


def test_adam_clears_gradients():
    a, b = nn.ParamSlot("a", np.zeros(1)), nn.ParamSlot("b", np.zeros((2, 2)))
    store = nn.ParamStore([a, b])
    a.accumulate(np.ones(1))
    b.accumulate(np.ones((2, 2)))
    optim.adam_step(optim.AdamState(), store)
    assert (store.grads == 0.0).all()
    assert (a.grad == 0.0).all() and (b.grad == 0.0).all()
    assert a.value[0] != 0.0 and (b.value != 0.0).all()  # both stepped


# --- fit: loop mechanics via a probe model ---


class ProbeModel:
    """Duck-typed stand-in recording which example ids each forward saw.
    Ids ride in numeric column 0; predictions are all zero."""

    config = ModelConfig()

    def __init__(self):
        self.slot = nn.ParamSlot("probe.w", np.zeros(1))
        self.store = nn.ParamStore([self.slot])
        self.calls = []

    def forward(self, numeric=None, token_ids=None):
        self.calls.append(numeric[:, 0].astype(int).tolist())
        return np.zeros(numeric.shape[0])

    def backward(self, grad_pred):
        self.slot.accumulate(np.array([float(np.sum(grad_pred))]))

    def params(self):
        return self.store


def probe_dataset(n, id_offset=0, label_seed=1):
    rng = np.random.default_rng(label_seed)
    numeric = np.zeros((n, 2))
    numeric[:, 0] = id_offset + np.arange(n)
    return EncodedDataset(numeric, np.zeros((n, 3), dtype=np.int64), rng.normal(size=n))


def test_fit_batch_sizes_100_examples_batch_64():
    model = ProbeModel()
    train = probe_dataset(100)
    valid = probe_dataset(10, id_offset=1000)
    optim.fit(model, train, valid, epochs=3, batch_size=64, seed=0)
    train_calls = [c for c in model.calls if c[0] < 1000]
    sizes = [len(c) for c in train_calls]
    assert sizes == [64, 36] * 3  # last partial batch kept


def test_fit_visits_every_example_once_per_epoch():
    model = ProbeModel()
    train = probe_dataset(37)
    valid = probe_dataset(5, id_offset=1000)
    optim.fit(model, train, valid, epochs=4, batch_size=8, seed=9)
    train_calls = [c for c in model.calls if c[0] < 1000]
    per_epoch = 5  # ceil(37 / 8)
    orders = []
    for e in range(4):
        seen = [i for call in train_calls[e * per_epoch : (e + 1) * per_epoch] for i in call]
        assert sorted(seen) == list(range(37))  # exactly once each
        orders.append(seen)
    assert any(orders[0] != o for o in orders[1:])  # reshuffled between epochs


def test_fit_constant_validation_keeps_earliest_best():
    model = ProbeModel()
    log, best = optim.fit(
        model, probe_dataset(12), probe_dataset(6, id_offset=1000), epochs=5, batch_size=4
    )
    maes = [entry["validation"]["mae"] for entry in log]
    assert len(set(maes)) == 1  # zero predictions never change
    assert best["epoch"] == 1


def test_fit_validation_errors():
    model = ProbeModel()
    ds = probe_dataset(4)
    with pytest.raises(ValidationError):
        optim.fit(model, probe_dataset(0), ds)
    with pytest.raises(ValidationError):
        optim.fit(model, ds, probe_dataset(0))
    with pytest.raises(ValidationError):
        optim.fit(model, ds, ds, epochs=0)
    with pytest.raises(ValidationError):
        optim.fit(model, ds, ds, batch_size=0)


# --- fit: real models ---

TINY = dict(
    arch="rnn",
    mode="numeric_only",
    vocab_size=2,
    embed_dim=4,
    seq_len=4,
    pad=0,
    rnn_hidden=3,
    numeric_dim=3,
)


def tiny_data(n, seed, label_scale=1.0):
    rng = np.random.default_rng(seed)
    numeric = rng.normal(size=(n, 3))
    labels = label_scale * (2.0 + numeric @ np.array([1.0, -0.5, 0.25]))
    return EncodedDataset(numeric, np.zeros((n, 4), dtype=np.int64), labels)


def test_fit_deterministic_log():
    train = tiny_data(20, seed=40)
    valid = tiny_data(8, seed=41)
    logs = []
    for _ in range(2):
        model = build_model(ModelConfig(**TINY), np.random.default_rng(5))
        log, best = optim.fit(model, train, valid, epochs=3, batch_size=5, seed=2)
        logs.append(json.dumps(log, sort_keys=True))
    assert logs[0] == logs[1]


def test_fit_log_structure_and_loss_decreases():
    train = tiny_data(24, seed=42)
    valid = tiny_data(8, seed=43)
    model = build_model(ModelConfig(**TINY), np.random.default_rng(6))
    log, best = optim.fit(model, train, valid, epochs=40, batch_size=8, seed=3)
    assert [entry["epoch"] for entry in log] == list(range(1, 41))
    for entry in log:
        assert set(entry) == {"epoch", "train_loss", "validation"}
        assert entry["train_loss"] >= 0.0
        assert entry["validation"]["n"] == 8
    assert log[-1]["train_loss"] < log[0]["train_loss"]
    maes = [entry["validation"]["mae"] for entry in log]
    assert best["mae"] == min(maes)
    assert best["epoch"] == maes.index(min(maes)) + 1


def test_fit_best_params_are_from_best_epoch():
    train = tiny_data(16, seed=44)
    valid = tiny_data(8, seed=45)
    model = build_model(ModelConfig(**TINY), np.random.default_rng(7))
    log, best = optim.fit(model, train, valid, epochs=10, batch_size=4, seed=4)

    replay = build_model(ModelConfig(**TINY), np.random.default_rng(7))
    optim.fit(replay, train, valid, epochs=best["epoch"], batch_size=4, seed=4)
    assert np.array_equal(replay.store.values, best["params"])


def test_fit_log1p_transform_trains_on_log_scale():
    train = tiny_data(24, seed=46, label_scale=400.0)
    valid = tiny_data(8, seed=47, label_scale=400.0)

    raw_model = build_model(ModelConfig(**TINY), np.random.default_rng(8))
    raw_log, _ = optim.fit(raw_model, train, valid, epochs=2, batch_size=8, seed=5)

    log_model = build_model(ModelConfig(**TINY, target_transform="log1p"),
                            np.random.default_rng(8))
    log_log, _ = optim.fit(log_model, train, valid, epochs=2, batch_size=8, seed=5)
    # squared-error scale shrinks drastically under the transform
    assert log_log[0]["train_loss"] < raw_log[0]["train_loss"] / 100.0
    # but validation metrics stay on the raw count scale
    assert log_log[-1]["validation"]["mae"] > 1.0


def test_bench_tracer_counts_every_parameter_element(monkeypatch):
    # bench/tracing.py wraps adam_step and iterates its second argument;
    # this guards that contract without the slow bench suite
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import tracing

    cfg = ModelConfig(arch="cnn", mode="combined", vocab_size=6, embed_dim=3, seq_len=4,
                      pad=2, filters_l1=2, filters_l2=2, k_pool=2, numeric_dim=3)
    model = build_model(cfg, np.random.default_rng(9))
    rng = np.random.default_rng(10)
    train, valid = (
        EncodedDataset(rng.normal(size=(n, 3)), rng.integers(0, 6, size=(n, 4)),
                       rng.normal(size=n))
        for n in (8, 4)
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.watch_model(model)
        tracer.active = True
        optim.fit(model, train, valid, epochs=1, batch_size=4)
    finally:
        tracer.uninstall()
    assert tracer.per_layer()["optim.adam_step.calls"] == 2
    assert tracer.shape_counts["optim.adam_step.param_elems"] == model.store.values.size


# --- freed memory stays in the process ---

# Run in a fresh interpreter: glibc raises its own thresholds whenever it
# frees a large block, so after other tests have run in this process the
# steps would take no faults whatever the import set.
STEADY_STEPS = """
import resource, sys
from pathlib import Path
import numpy as np
from retweet_reg import models, optim
from retweet_reg.models import ModelConfig, build_model

def faults_and_resident_pages():
    resident = int(Path("/proc/self/statm").read_text(encoding="ascii").split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt, resident

arch, cpus = sys.argv[1], int(sys.argv[2])
models.usable_cpus = lambda: cpus
model = build_model(ModelConfig(arch=arch, mode="combined", vocab_size=24),
                    np.random.default_rng(0))
rng = np.random.default_rng(1)

def rows(n):
    return dict(numeric=rng.normal(size=(n, 12)), token_ids=rng.integers(0, 24, size=(n, 30)))

train, scored = rows(64), rows(100)
labels = rng.normal(size=64)
state = optim.AdamState()

def step():
    _, grad = models.loss_mse(model.forward(**train), labels)
    model.backward(grad)
    optim.adam_step(state, model.store)

for _ in range(3):
    step()
model.forward(**scored)
faults, resident = faults_and_resident_pages()
for _ in range(20):
    step()
model.forward(**scored)
faults_after, resident_after = faults_and_resident_pages()
# The heap may still grow into pages it never had, one fault each.
print(faults_after - faults - max(0, resident_after - resident))
"""


@pytest.mark.skipif(not (retweet_reg.glibc() and Path("/proc/self/statm").exists()),
                    reason="the heap thresholds are set on glibc only")
@pytest.mark.parametrize(("arch", "cpus"), [("cnn", 1), ("cnn", 2), ("rnn", 2)])
def test_steady_training_step_takes_no_page_faults(arch, cpus):
    # The benchmark's shapes: batches of 64 rows of 30 token ids. Without
    # the thresholds every step hands its freed pages back to the kernel
    # and faults them in again: about 15,000 faults here for the cnn and
    # 1,300 for the rnn.
    done = subprocess.run([sys.executable, "-c", STEADY_STEPS, arch, str(cpus)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) <= 20


@pytest.mark.parametrize("confstr", ["missing", "unknown_name", "empty", "refused"])
def test_keep_freed_memory_does_nothing_without_glibc(monkeypatch, confstr):
    if confstr == "missing":
        monkeypatch.delattr(os, "confstr")
    else:
        def fake(name):
            if confstr == "unknown_name":
                raise ValueError("unrecognized configuration name")
            if confstr == "refused":
                raise OSError(22, "Invalid argument")
            return None

        monkeypatch.setattr(os, "confstr", fake)

    def no_library(*args, **kwargs):
        raise AssertionError("loaded a C library without glibc")

    monkeypatch.setattr(ctypes, "CDLL", no_library)
    assert retweet_reg.keep_freed_memory() is False
