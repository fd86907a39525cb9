"""Finite-difference verification of every analytic gradient.

The error reported per check is max|analytic - numeric| divided by the
largest gradient magnitude in the tensor (floored at 1e-8). Normalizing
by the tensor scale instead of per element keeps finite-difference
round-off on near-zero entries from drowning out real disagreement.

Checks at non-smooth points would be meaningless, so inputs are
resampled (deterministically) until every relu pre-activation and every
pooling selection gap clears a safety margin much larger than the
probe step.
"""

from itertools import count

import numpy as np

from .errors import NumericError
from .models import MODES, ModelConfig, build_model, loss_mse
from .nn import (
    Activation,
    Conv1d,
    Dense,
    Embedding,
    Fold,
    KMaxPool,
    Sequential,
    SimpleRnn,
)
from .seeding import derive_seed

STEP = 1e-6
TOLERANCE = 1e-4
MARGIN = 1e-4

# small enough that a full finite-difference sweep over every parameter
# stays fast, large enough that every layer is exercised
MINI_CONFIG = dict(
    vocab_size=20,
    embed_dim=8,
    seq_len=6,
    pad=2,
    filters_l1=4,
    filters_l2=4,
    filter_width=3,
    k_pool=2,
    rnn_hidden=4,
    numeric_dim=12,
)


def numeric_grad(f, x, step: float = STEP) -> np.ndarray:
    """Central finite differences of the scalar-valued f with respect to
    x, probing x in place (each entry is restored exactly)."""
    grad = np.zeros(x.shape, dtype=np.float64)
    for i in range(x.size):
        orig = x.flat[i]
        x.flat[i] = orig + step
        hi = f()
        x.flat[i] = orig - step
        lo = f()
        x.flat[i] = orig
        grad.flat[i] = (hi - lo) / (2.0 * step)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(numeric))), 1e-8)
    return float(np.max(np.abs(analytic - numeric))) / scale


def _pool_gap(x: np.ndarray, k: int, exact_ties_move_together: bool = False) -> float:
    """Smallest margin between the k-th and (k+1)-th largest value over
    all rows; inf when nothing is excluded.

    With exact_ties_move_together, values exactly equal to a row's k-th
    largest are skipped and the margin is to the nearest other value
    on either side. That holds for the windows of a convolution that see
    only padding: each equals its channel's bias under every probe."""
    rows = x.reshape(-1, x.shape[-1])
    if rows.shape[-1] <= k:
        return np.inf
    ordered = np.sort(rows, axis=-1)[:, ::-1]
    if not exact_ties_move_together:
        return float(np.min(ordered[:, k - 1] - ordered[:, k]))
    dist = np.abs(ordered - ordered[:, k - 1 : k])
    return float(np.min(dist, initial=np.inf, where=dist > 0))


def _layer_errors(layer, x, projection):
    """Check one layer against finite differences of the projected output
    sum(forward(x) * projection). Returns the worst error over all
    parameters and the input."""
    layer.forward(x)
    grad_x = layer.backward(projection)

    def f():
        return float(np.sum(layer.forward(x) * projection))

    # forward leaves the gradients backward accumulated untouched
    errs = [relative_error(p.grad, numeric_grad(f, p.value)) for p in layer.params()]
    if grad_x is not None:
        errs.append(relative_error(grad_x, numeric_grad(f, x)))
    return max(errs)


def _check_conv(rng):
    layer = Conv1d(3, 4, 3, 2, rng, name="g.conv")
    x = rng.normal(size=(2, 3, 7))
    return _layer_errors(layer, x, rng.normal(size=(2, 4, 9)))


def _check_conv_kmax(rng):
    # pad 6 > (3 - 1) + 2, so the conv pads only 4 a side; resample until
    # some row pools a window that sees only padding, which equals the bias
    conv = Conv1d(2, 3, 3, 6, rng, name="g.conv", pool_k=2)
    conv.bias.value[...] = rng.normal(size=3)
    layers = Sequential([conv, KMaxPool(2)])
    while True:
        x = rng.normal(size=(2, 2, 3))
        gap = _pool_gap(conv.forward(x), 2, exact_ties_move_together=True)
        if gap > MARGIN and np.any(layers.forward(x) == conv.bias.value[:, None]):
            break
    return _layer_errors(layers, x, rng.normal(size=(2, 3, 2)))


def _check_lookup(rng, make_layer):
    """An embedding read by `make_layer(rng)` (4 outputs, random bias),
    which works per distinct id and adds the table gradient itself."""
    embed = Embedding(10, 3, rng, name="g.embed")
    layer = make_layer(rng)
    layer.bias.value[...] = rng.normal(size=4)
    layers = Sequential([embed, layer])
    ids = rng.integers(0, 10, size=(2, 5))
    ids[1, 3] = ids[0, 0]  # a repeated id must accumulate both positions
    return _layer_errors(layers, ids, rng.normal(size=layers.forward(ids).shape))


def _check_conv_lookup(rng):
    # pad 6 > (3 - 1) + 2, so the conv pads only 4 a side
    return _check_lookup(rng, lambda r: Conv1d(3, 4, 3, 6, r, name="g.conv", pool_k=2))


def _check_kmax(rng):
    layer = KMaxPool(3)
    while True:
        x = rng.normal(size=(3, 4, 9))
        if _pool_gap(x, 3) > MARGIN:
            break
    return _layer_errors(layer, x, rng.normal(size=(3, 4, 3)))


def _check_fold(rng):
    return _layer_errors(Fold(), rng.normal(size=(2, 4, 5)), rng.normal(size=(2, 2, 5)))


def _check_relu(rng):
    while True:
        x = rng.normal(size=(5, 6))
        if np.min(np.abs(x)) > MARGIN:
            break
    return _layer_errors(Activation("relu"), x, rng.normal(size=(5, 6)))


def _check_tanh(rng):
    return _layer_errors(Activation("tanh"), rng.normal(size=(5, 6)), rng.normal(size=(5, 6)))


def _check_dense(rng):
    return _layer_errors(Dense(6, 3, rng, name="g.dense"), rng.normal(size=(4, 6)),
                         rng.normal(size=(4, 3)))


def _check_rnn(rng):
    return _layer_errors(SimpleRnn(3, 4, rng, name="g.rnn"), rng.normal(size=(2, 3, 5)),
                         rng.normal(size=(2, 4, 5)))


def _check_rnn_lookup(rng):
    return _check_lookup(rng, lambda r: SimpleRnn(3, 4, r, name="g.rnn"))


def _check_loss(rng):
    pred = rng.normal(size=6)
    target = rng.normal(size=6)
    _, analytic = loss_mse(pred, target)

    def f():
        return loss_mse(pred, target)[0]

    return relative_error(analytic, numeric_grad(f, pred))


def check_layer_gradients(seed: int = 0) -> dict:
    """Max relative gradient error per layer type."""
    checks = {
        "conv1d": _check_conv,
        "kmax_pool": _check_kmax,
        "conv_kmax_working_pad": _check_conv_kmax,
        "conv_lookup": _check_conv_lookup,
        "fold": _check_fold,
        "relu": _check_relu,
        "tanh": _check_tanh,
        "dense": _check_dense,
        "rnn": _check_rnn,
        "rnn_lookup": _check_rnn_lookup,
        "loss_mse": _check_loss,
    }
    return {
        name: fn(np.random.default_rng(derive_seed(seed, f"gradcheck:{name}")))
        for name, fn in checks.items()
    }


def _margins_ok(model, numeric, token_ids) -> bool:
    """Walk both branches and demand every relu input and pooling gap be
    comfortably larger than the finite-difference step."""
    branches = []
    if model.text_branch is not None:
        branches.append((model.text_branch, np.asarray(token_ids)))
    if model.numeric_branch is not None:
        branches.append((model.numeric_branch, numeric[:, None, :]))
    margin = np.inf
    for seq, x in branches:
        for layer in seq.layers:
            if isinstance(layer, Activation) and layer.kind == "relu":
                margin = min(margin, float(np.min(np.abs(x))))
            if isinstance(layer, KMaxPool):
                margin = min(margin, _pool_gap(x, layer.k))
            x = layer.forward(x)
    return margin > MARGIN


def check_end_to_end(arch: str, mode: str, seed: int = 0) -> float:
    """Finite-difference check of d(loss)/d(parameter) for every
    parameter of a miniature model."""
    for attempt in count():
        if attempt == 25:
            raise NumericError(
                f"no smooth point found for {arch}/{mode} gradient checking"
            )
        rng = np.random.default_rng(
            derive_seed(seed, f"gradcheck:e2e:{arch}:{mode}:{attempt}")
        )
        cfg = ModelConfig(arch=arch, mode=mode, **MINI_CONFIG)
        model = build_model(cfg, rng)
        token_ids = rng.integers(0, cfg.vocab_size, size=(3, cfg.seq_len))
        numeric = rng.normal(size=(3, cfg.numeric_dim))
        target = rng.normal(size=3)
        if arch == "cnn" and not _margins_ok(model, numeric, token_ids):
            continue

        def f():
            pred = model.forward(numeric=numeric, token_ids=token_ids)
            return loss_mse(pred, target)[0]

        pred = model.forward(numeric=numeric, token_ids=token_ids)
        _, grad_pred = loss_mse(pred, target)
        model.backward(grad_pred)
        return max(relative_error(p.grad, numeric_grad(f, p.value)) for p in model.store)


def run_all(seed: int = 0) -> dict:
    layers = check_layer_gradients(seed)
    end_to_end = {
        f"{arch}/{mode}": check_end_to_end(arch, mode, seed)
        for arch in ("cnn", "rnn")
        for mode in MODES
    }
    worst = max(max(layers.values()), max(end_to_end.values()))
    return {
        "layers": layers,
        "end_to_end": end_to_end,
        "max_error": worst,
        "tolerance": TOLERANCE,
        "passed": bool(worst < TOLERANCE),
    }
