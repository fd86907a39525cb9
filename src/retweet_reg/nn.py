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


def scatter_rows(keys: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """Sum the rows of (N, D) `rows` that share a key in [0, n), giving an
    (n, D) array. One bincount over (key, column) bins, which adds each
    bin's rows in row order, as np.add.at does."""
    d = rows.shape[1]
    bins = (keys.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
    return np.bincount(bins, weights=rows.reshape(-1), minlength=n * d).reshape(n, d)


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
    Ids have no gradient, so backward returns None.

    Forward keeps the batch's distinct ids `u` with each position's index
    into them, and the array it returned, for a `Conv1d` whose `lookup`
    is this layer. Such a convolution adds the table gradient itself and
    hands backward None, which adds nothing."""

    def __init__(self, vocab_size: int, dim: int, rng, name: str = "embed"):
        if vocab_size < 2:
            raise EmbeddingError("vocabulary needs at least the pad and oov ids")
        self.vocab_size = vocab_size
        table = rng.uniform(-0.05, 0.05, size=(vocab_size, dim))
        self.table = ParamSlot(f"{name}.table", table)
        self._unique = None
        self._out = None

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
        u, inv = np.unique(ids, return_inverse=True)
        self._unique = (u, inv.reshape(ids.shape))
        self._out = self.table.value[ids].transpose(0, 2, 1)
        return self._out

    def backward(self, upstream):
        if upstream is not None:
            # repeated ids must sum; the distinct ids are distinct rows
            u, inv = self._unique
            rows = upstream.transpose(0, 2, 1).reshape(inv.size, -1)
            self.table.grad[u] += scatter_rows(inv, rows, u.size)
        return None


class Conv1d(Layer):
    """Wide 1-d convolution (cross-correlation over a zero-padded input).
    Input (B, C, L), filters (O, C, W), output
    (B, O, L + 2*work_pad - W + 1).

    `pad` is the nominal padding on each side. When the layer feeds a
    k-max pool of size `pool_k`, it pads by the working padding
    min(pad, (W-1) + pool_k) instead. A window that sees only padding
    outputs exactly the bias, so each side of the nominal output starts
    or ends with a run of pad - W + 1 equal values. The pool breaks ties
    to the left, so it takes at most pool_k values from either run, and
    always the leftmost ones. Keeping pool_k of each run therefore pools
    to the same values in the same order, and backward gives the same
    input and bias gradients; the filter gradient sums fewer zero rows,
    so only its rounding can differ.

    With `lookup` set to the Embedding that feeds it, the input must be
    the array that layer's last forward returned, and the convolution
    works once per distinct token id: each tap's product with every
    distinct embedding row is one GEMM, and the output gathers those
    products (a zero row stands for padding). The sums run in the same
    order as the dense path, so the output is the same bit for bit.
    Backward sums the upstream per (tap, token) and adds the table
    gradient straight into the embedding's, returning None.
    """

    def __init__(self, in_channels: int, out_channels: int, width: int, pad: int,
                 rng, name: str = "conv", pool_k=None):
        fan_in = in_channels * width
        fan_out = out_channels * width
        filters = glorot_uniform(rng, (out_channels, in_channels, width), fan_in, fan_out)
        self.filters = ParamSlot(f"{name}.filters", filters)
        self.bias = ParamSlot(f"{name}.bias", np.zeros(out_channels))
        self.pad = pad
        self.work_pad = pad if pool_k is None else min(pad, width - 1 + pool_k)
        self.lookup = None
        self._cache = None

    def params(self):
        return [self.filters, self.bias]

    def forward(self, x):
        b, c, length = x.shape
        _, cf, w = self.filters.value.shape
        pad = self.work_pad
        if c != cf:
            raise ShapeError(f"convolution expects {cf} input channels, got {c}")
        l_out = length + 2 * pad - w + 1
        if l_out < 1:
            raise ShapeError(
                f"convolution output length {l_out} is not positive "
                f"(input length {length}, width {w}, pad {pad})"
            )
        if self.lookup is not None:
            return self._forward_lookup(x, l_out)
        # positions-major (B, L + 2*pad, C): each filter tap is one matmul
        xp = np.zeros((b, length + 2 * pad, c))
        xp[:, pad : pad + length] = x.transpose(0, 2, 1)
        out = sum(xp[:, i : i + l_out] @ self.filters.value[:, :, i].T for i in range(w))
        self._cache = xp
        return (out + self.bias.value).transpose(0, 2, 1)

    def _stacked(self) -> np.ndarray:
        """(C, W*O): tap i's transposed filters in columns i*O to (i+1)*O."""
        o, c, w = self.filters.value.shape
        return self.filters.value.transpose(1, 2, 0).reshape(c, w * o)

    def _forward_lookup(self, x, l_out):
        if x is not self.lookup._out:
            raise ShapeError(
                "a lookup convolution takes the array its embedding's last forward returned"
            )
        u, inv = self.lookup._unique
        o, _, w = self.filters.value.shape
        pad = self.work_pad
        b, length = inv.shape
        # key u.size picks the zero row that stands for padding
        keys = np.full((b, length + 2 * pad), u.size)
        keys[:, pad : pad + length] = inv
        eu = self.lookup.table.value[u]
        taps = np.zeros((w, u.size + 1, o))
        taps[:, : u.size] = (eu @ self._stacked()).reshape(u.size, w, o).transpose(1, 0, 2)
        out = sum(taps[i][keys[:, i : i + l_out]] for i in range(w))
        self._cache = (u, inv, eu)
        return (out + self.bias.value).transpose(0, 2, 1)

    def _backward_lookup(self, upstream):
        u, inv, eu = self._cache
        o, c, w = self.filters.value.shape
        b, length = inv.shape
        pad = self.work_pad
        l_out = upstream.shape[-1]
        up3 = np.ascontiguousarray(upstream.transpose(0, 2, 1))
        self.bias.accumulate(up3.reshape(b * l_out, o).sum(axis=0))
        g = np.zeros((u.size, w, o))  # upstream summed per (token, tap)
        for i in range(w):
            # output rows lo..hi read input rows lo+i-pad..hi+i-pad through tap i
            lo, hi = max(0, pad - i), min(l_out, pad - i + length)
            if lo < hi:
                keys = inv[:, lo + i - pad : hi + i - pad]
                rows = np.ascontiguousarray(up3[:, lo:hi]).reshape(-1, o)
                g[:, i] = scatter_rows(keys, rows, u.size)
        g = g.reshape(u.size, w * o)
        self.filters.accumulate((g.T @ eu).reshape(w, o, c).transpose(1, 2, 0))
        self.lookup.table.grad[u] += g @ self._stacked().T
        return None

    def backward(self, upstream):
        if self.lookup is not None:
            return self._backward_lookup(upstream)
        xp = self._cache
        b, padded, c = xp.shape
        o, _, w = self.filters.value.shape
        pad = self.work_pad
        l_out, length = padded - w + 1, padded - 2 * pad
        up3 = np.ascontiguousarray(upstream.transpose(0, 2, 1))
        up = up3.reshape(b * l_out, o)
        self.bias.accumulate(up.sum(axis=0))
        gf = np.empty_like(self.filters.value)
        gx = np.zeros((b, length, c))
        for i in range(w):  # the same taps as forward, each on a shifted slice
            gf[:, :, i] = up.T @ xp[:, i : i + l_out].reshape(b * l_out, c)
            # only output rows lo..hi read input rows through this tap; the
            # rest see padding, which has no gradient to receive
            lo, hi = max(0, pad - i), min(l_out, pad - i + length)
            if lo < hi:
                rows = np.ascontiguousarray(up3[:, lo:hi]).reshape(-1, o)
                gx[:, lo + i - pad : hi + i - pad] += (
                    rows @ self.filters.value[:, :, i]).reshape(b, hi - lo, c)
        self.filters.accumulate(gf)
        return gx.transpose(0, 2, 1)


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
