"""Adam optimizer and the mini-batch training loop."""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .metrics import compute_report
from .models import TARGET_TRANSFORMS, loss_mse, predict_dataset


@dataclass
class AdamState:
    alpha: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-7
    t: int = 0
    # flat moment vectors over a model's ParamStore; 0.0 before the first step
    m: np.ndarray | float = 0.0
    v: np.ndarray | float = 0.0


def adam_step(state: AdamState, store) -> None:
    """One bias-corrected Adam update, elementwise over the store's flat
    value vector; the gradient vector is zeroed after it. A non-finite
    gradient, or a step that would make a parameter non-finite, raises
    NumericError naming the first such parameter and stores nothing."""
    g = store.grads
    name = store.first_nonfinite(g)
    if name is not None:
        raise NumericError(f"non-finite gradient for parameter '{name}'")
    t = state.t + 1
    bias1 = 1.0 - state.beta1 ** t
    bias2 = 1.0 - state.beta2 ** t
    # a diverging step is reported by name below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        m = state.beta1 * state.m + (1.0 - state.beta1) * g
        v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
        value = store.values - state.alpha * (m / bias1) / (np.sqrt(v / bias2) + state.epsilon)
    name = store.first_nonfinite(value)
    if name is not None:
        raise NumericError(f"Adam step made parameter '{name}' non-finite")
    state.t, state.m, state.v = t, m, v
    store.values[...] = value
    g[...] = 0.0


def fit(model, train, valid, epochs: int = 100, batch_size: int = 64,
        seed: int = 0, adam: AdamState = None):
    """Train with seeded per-epoch shuffling and sequential mini-batches
    (the last partial batch is kept).

    Returns (log, best): log is one dict per epoch with the mean train
    loss over that epoch's pass and a validation metrics report; best
    holds a copy of the model's flat parameter vector (`store.values`)
    from the epoch with the lowest validation MAE (earliest epoch wins
    ties). The loss is on the scale of the model's target transform;
    validation metrics are on the raw count scale.
    """
    if len(train) == 0:
        raise ValidationError("training set is empty")
    if len(valid) == 0:
        raise ValidationError("validation set is empty")
    if epochs < 1:
        raise ValidationError(f"epochs must be positive, got {epochs}")
    if batch_size < 1:
        raise ValidationError(f"batch size must be positive, got {batch_size}")
    forward_t, _ = TARGET_TRANSFORMS[model.config.target_transform]
    state = adam if adam is not None else AdamState()
    rng = np.random.default_rng(seed)
    n = len(train)
    log = []
    best = None
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        sse = 0.0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            batch = train.select(idx)
            pred = model.forward(numeric=batch.numeric, token_ids=batch.token_ids)
            loss, grad_pred = loss_mse(pred, forward_t(batch.labels))
            sse += loss * len(idx)
            model.backward(grad_pred)
            adam_step(state, model.params())
        report = compute_report(valid.labels, predict_dataset(model, valid))
        log.append({"epoch": epoch, "train_loss": sse / n, "validation": report})
        if best is None or report["mae"] < best["mae"]:
            best = {"epoch": epoch, "mae": report["mae"], "params": model.store.values.copy()}
    return log, best
