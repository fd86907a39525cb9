"""Network building blocks on float64 numpy arrays.

Every layer follows one convention: forward caches whatever its backward
pass needs, backward consumes that cache, adds parameter gradients into
ParamSlots, and returns the gradient with respect to its input. Sequence
tensors are channels-first, shaped (batch, channels, length).
"""

import numpy as np

from .errors import (
    BuildError,
    EmbeddingError,
    FoldError,
    PoolingError,
    ShapeError,
    ValidationError,
)


def glorot_uniform(rng, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class ParamSlot:
    """A named parameter array plus its gradient, which starts at zero and
    accumulates in place until the optimizer zeroes it."""

    # read only by bench/tracing.py, which counts Adam's elements with it
    trainable = True

    def __init__(self, name: str, value):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def accumulate(self, grad: np.ndarray) -> None:
        if grad.shape != self.value.shape:
            raise ShapeError(
                f"gradient for '{self.name}' has shape {grad.shape}, "
                f"parameter has {self.value.shape}"
            )
        self.grad += grad


class ParamStore:
    """Every parameter of a model in one float64 value vector and one
    gradient vector. Each slot's value and grad are rebound as views into
    them, so a write to a parameter must assign in place
    (`value[...] = ...`). Iterates over its slots."""

    def __init__(self, slots):
        self.slots = list(slots)
        names = [s.name for s in self.slots]
        if len(set(names)) != len(names):
            raise BuildError("parameter names are not unique")
        self.offsets = np.cumsum([0] + [s.value.size for s in self.slots])
        self.values = np.empty(self.offsets[-1])
        self.grads = np.zeros(self.offsets[-1])
        for slot, start, stop in zip(self.slots, self.offsets, self.offsets[1:]):
            self.values[start:stop] = slot.value.reshape(-1)
            slot.value = self.values[start:stop].reshape(slot.value.shape)
            slot.grad = self.grads[start:stop].reshape(slot.value.shape)

    def __iter__(self):
        return iter(self.slots)

    def first_nonfinite(self, flat: np.ndarray):
        """Name of the parameter owning the first non-finite entry of a
        vector laid out like `values`, or None when all are finite."""
        bad = ~np.isfinite(flat)
        if not bad.any():
            return None
        return self.slots[np.searchsorted(self.offsets, bad.argmax(), side="right") - 1].name


class Layer:
    def params(self) -> list:
        return []

    def forward(self, x):
        raise NotImplementedError

    def backward(self, upstream):
        raise NotImplementedError


def kmax_indices(x: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k largest values along the last axis, returned in
    original order. Ties go to the smaller index (stable sort on the
    negated values)."""
    top = np.argsort(-x, axis=-1, kind="stable")[..., :k]
    return np.sort(top, axis=-1)


def fold(x) -> np.ndarray:
    """Sum adjacent channel pairs: rows (0,1), (2,3), ... collapse to one
    row each, halving the channel count."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-2] % 2:
        raise FoldError(f"folding needs an even channel count, got {x.shape[-2]}")
    return x[..., 0::2, :] + x[..., 1::2, :]


# ---------------------------------------------------------------------------
# layers

class Embedding(Layer):
    """Token-id lookup table. Input (B, L) integer ids, output (B, d, L).
    Ids have no gradient, so backward returns None."""

    def __init__(self, vocab_size: int, dim: int, rng, name: str = "embed"):
        if vocab_size < 2:
            raise EmbeddingError("vocabulary needs at least the pad and oov ids")
        self.vocab_size = vocab_size
        table = rng.uniform(-0.05, 0.05, size=(vocab_size, dim))
        self.table = ParamSlot(f"{name}.table", table)
        self._ids = None

    def params(self):
        return [self.table]

    def forward(self, ids):
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ShapeError(f"embedding expects (batch, length) ids, got shape {ids.shape}")
        if ids.min() < 0 or ids.max() >= self.vocab_size:
            raise EmbeddingError(
                f"token id outside [0, {self.vocab_size}): "
                f"min {int(ids.min())}, max {int(ids.max())}"
            )
        self._ids = ids
        return self.table.value[ids].transpose(0, 2, 1)

    def backward(self, upstream):
        # repeated ids must sum, so scatter with unbuffered add
        np.add.at(self.table.grad, self._ids, upstream.transpose(0, 2, 1))
        return None


class Conv1d(Layer):
    """Wide 1-d convolution (cross-correlation over a zero-padded input).
    Input (B, C, L), filters (O, C, W), output (B, O, L + 2*pad - W + 1)."""

    def __init__(self, in_channels: int, out_channels: int, width: int, pad: int,
                 rng, name: str = "conv"):
        fan_in = in_channels * width
        fan_out = out_channels * width
        filters = glorot_uniform(rng, (out_channels, in_channels, width), fan_in, fan_out)
        self.filters = ParamSlot(f"{name}.filters", filters)
        self.bias = ParamSlot(f"{name}.bias", np.zeros(out_channels))
        self.pad = pad
        self._cache = None

    def params(self):
        return [self.filters, self.bias]

    def forward(self, x):
        b, c, length = x.shape
        _, cf, w = self.filters.value.shape
        if c != cf:
            raise ShapeError(f"convolution expects {cf} input channels, got {c}")
        l_out = length + 2 * self.pad - w + 1
        if l_out < 1:
            raise ShapeError(
                f"convolution output length {l_out} is not positive "
                f"(input length {length}, width {w}, pad {self.pad})"
            )
        # positions-major (B, L + 2*pad, C): each filter tap is one matmul
        xp = np.zeros((b, length + 2 * self.pad, c))
        xp[:, self.pad : self.pad + length] = x.transpose(0, 2, 1)
        out = sum(xp[:, i : i + l_out] @ self.filters.value[:, :, i].T for i in range(w))
        self._cache = xp
        return (out + self.bias.value).transpose(0, 2, 1)

    def backward(self, upstream):
        xp = self._cache
        b, padded, c = xp.shape
        o, _, w = self.filters.value.shape
        l_out = padded - w + 1
        up = np.ascontiguousarray(upstream.transpose(0, 2, 1)).reshape(b * l_out, o)
        self.bias.accumulate(up.sum(axis=0))
        gf = np.empty_like(self.filters.value)
        gxp = np.zeros_like(xp)
        for i in range(w):  # the same taps as forward, each on a shifted slice
            gf[:, :, i] = up.T @ xp[:, i : i + l_out].reshape(b * l_out, c)
            gxp[:, i : i + l_out] += (up @ self.filters.value[:, :, i]).reshape(b, l_out, c)
        self.filters.accumulate(gf)
        return gxp[:, self.pad : padded - self.pad].transpose(0, 2, 1)


class KMaxPool(Layer):
    """Keep the k largest values per (batch, channel) row, in original
    order; ties resolve to the smaller index."""

    def __init__(self, k: int):
        if k < 1:
            raise PoolingError(f"k must be positive, got {k}")
        self.k = k
        self._cache = None

    def forward(self, x):
        length = x.shape[-1]
        if length < 1:
            raise PoolingError("cannot pool an empty sequence")
        idx = kmax_indices(x, min(self.k, length))
        self._cache = (idx, x.shape)
        return np.take_along_axis(x, idx, axis=-1)

    def backward(self, upstream):
        idx, shape = self._cache
        grad = np.zeros(shape)
        # indices within a row are distinct, so assignment == scatter-add
        np.put_along_axis(grad, idx, upstream, axis=-1)
        return grad


class Fold(Layer):
    """Sum adjacent channel pairs, halving the channel count."""

    def forward(self, x):
        return fold(x)

    def backward(self, upstream):
        return np.repeat(upstream, 2, axis=-2)


class Activation(Layer):
    def __init__(self, kind: str):
        if kind not in ("relu", "tanh"):
            raise ValidationError(f"unknown activation {kind!r}")
        self.kind = kind
        self._cache = None

    def forward(self, x):
        if self.kind == "relu":
            mask = x > 0.0  # subgradient at exactly zero is taken as zero
            self._cache = mask
            return np.where(mask, x, 0.0)
        out = np.tanh(x)
        self._cache = out
        return out

    def backward(self, upstream):
        if self.kind == "relu":
            return upstream * self._cache
        return upstream * (1.0 - self._cache ** 2)


class Dense(Layer):
    """Affine map. Input (B, D_in), weight (D_out, D_in), output (B, D_out)."""

    def __init__(self, in_dim: int, out_dim: int, rng, name: str = "dense"):
        weight = glorot_uniform(rng, (out_dim, in_dim), in_dim, out_dim)
        self.weight = ParamSlot(f"{name}.weight", weight)
        self.bias = ParamSlot(f"{name}.bias", np.zeros(out_dim))
        self._x = None

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x):
        if x.shape[-1] != self.weight.value.shape[1]:
            raise ShapeError(
                f"dense layer expects {self.weight.value.shape[1]} inputs, "
                f"got {x.shape[-1]}"
            )
        self._x = x
        return x @ self.weight.value.T + self.bias.value

    def backward(self, upstream):
        self.weight.accumulate(upstream.T @ self._x)
        self.bias.accumulate(upstream.sum(axis=0))
        return upstream @ self.weight.value


class SimpleRnn(Layer):
    """Elman recurrence h_t = tanh(W_xh x_t + W_hh h_{t-1} + b) with
    h_0 = 0. Input (B, D, T); output every hidden state, (B, H, T).
    Backward runs truncation-free backpropagation through time."""

    def __init__(self, in_dim: int, hidden: int, rng, name: str = "rnn"):
        self.w_xh = ParamSlot(f"{name}.w_xh", glorot_uniform(rng, (hidden, in_dim), in_dim, hidden))
        self.w_hh = ParamSlot(f"{name}.w_hh", glorot_uniform(rng, (hidden, hidden), hidden, hidden))
        self.bias = ParamSlot(f"{name}.bias", np.zeros(hidden))
        self._cache = None

    def params(self):
        return [self.w_xh, self.w_hh, self.bias]

    def forward(self, x):
        b, d, steps = x.shape
        if d != self.w_xh.value.shape[1]:
            raise ShapeError(
                f"recurrent layer expects {self.w_xh.value.shape[1]}-dim inputs, got {d}"
            )
        hidden = self.bias.value.shape[0]
        hs = np.empty((b, hidden, steps))
        h = np.zeros((b, hidden))
        for t in range(steps):
            h = np.tanh(
                x[:, :, t] @ self.w_xh.value.T + h @ self.w_hh.value.T + self.bias.value
            )
            hs[:, :, t] = h
        self._cache = (x, hs)
        return hs

    def backward(self, upstream):
        x, hs = self._cache
        b, _, steps = x.shape
        gw_xh = np.zeros_like(self.w_xh.value)
        gw_hh = np.zeros_like(self.w_hh.value)
        gb = np.zeros_like(self.bias.value)
        gx = np.zeros_like(x)
        carry = np.zeros((b, hs.shape[1]))
        for t in reversed(range(steps)):
            gh = upstream[:, :, t] + carry
            ga = gh * (1.0 - hs[:, :, t] ** 2)  # through tanh
            h_prev = hs[:, :, t - 1] if t > 0 else np.zeros_like(carry)
            gw_xh += ga.T @ x[:, :, t]
            gw_hh += ga.T @ h_prev
            gb += ga.sum(axis=0)
            gx[:, :, t] = ga @ self.w_xh.value
            carry = ga @ self.w_hh.value
        self.w_xh.accumulate(gw_xh)
        self.w_hh.accumulate(gw_hh)
        self.bias.accumulate(gb)
        return gx


class Flatten(Layer):
    """(B, C, L) -> (B, C*L), row-major so channel blocks stay contiguous."""

    def __init__(self):
        self._shape = None

    def forward(self, x):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, upstream):
        return upstream.reshape(self._shape)


class Sequential(Layer):
    def __init__(self, layers):
        self.layers = list(layers)

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, upstream):
        for layer in reversed(self.layers):
            upstream = layer.backward(upstream)
        return upstream
