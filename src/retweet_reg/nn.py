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
    NumericError,
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

class TokenRows:
    """What `Embedding.forward` returns for (B, L) ids: the batch's sorted
    distinct ids `u`, each position's (B, L) index `inv` into them, their
    table rows `rows` (U, d), and the table slot they came from. It
    stands for the (B, d, L) input `table[ids]`, whose `shape` it has;
    `Conv1d` and `SimpleRnn` read it once per distinct id."""

    def __init__(self, u, inv, table):
        self.u = u
        self.inv = inv
        self.rows = table.value[u]
        self.table = table
        self.shape = (inv.shape[0], self.rows.shape[1], inv.shape[1])
        # read only by bench/tracing.py, which counts column bytes with it
        self.itemsize = self.rows.itemsize

    def add_grad(self, grad_rows: np.ndarray) -> None:
        """Add the (U, d) gradient of `rows` into the table's; the
        distinct ids are distinct table rows."""
        self.table.grad[self.u] += grad_rows


class Embedding(Layer):
    """Token-id lookup table. Input (B, L) integer ids, output a
    `TokenRows` of the batch's distinct ids and their rows. The layer
    that reads it adds the table gradient (`TokenRows.add_grad`); ids
    have no gradient, so backward returns None."""

    def __init__(self, vocab_size: int, dim: int, rng, name: str = "embed"):
        if vocab_size < 2:
            raise EmbeddingError("vocabulary needs at least the pad and oov ids")
        self.vocab_size = vocab_size
        table = rng.uniform(-0.05, 0.05, size=(vocab_size, dim))
        self.table = ParamSlot(f"{name}.table", table)

    def params(self):
        return [self.table]

    def forward(self, ids):
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ShapeError(f"embedding expects (batch, length) ids, got shape {ids.shape}")
        if ids.dtype.kind not in "iu":
            raise EmbeddingError(f"token ids must be integers, got dtype {ids.dtype}")
        u, inv = np.unique(ids, return_inverse=True)
        # u is sorted, so its ends are the smallest and largest id
        if u[0] < 0 or u[-1] >= self.vocab_size:
            raise EmbeddingError(
                f"token id outside [0, {self.vocab_size}): "
                f"min {int(u[0])}, max {int(u[-1])}"
            )
        return TokenRows(u, inv.reshape(ids.shape), self.table)

    def backward(self, upstream):
        return None


class Conv1d(Layer):
    """Wide 1-d convolution (cross-correlation over a zero-padded input).
    Input (B, C, L), filters (O, C, W), output
    (B, O, L + 2*work_pad - W + 1).

    `pad` is the nominal padding on each side. When a k-max pool of size
    `pool_k` reads the output, the layer pads by the working padding
    min(pad, (W-1) + pool_k) instead. A window that sees only padding
    outputs exactly the bias, so each side of the nominal output starts
    or ends with a run of pad - W + 1 equal values. The pool breaks ties
    to the left, so it takes at most pool_k values from either run, and
    always the leftmost ones. Keeping pool_k of each run therefore pools
    to the same values in the same order, and backward gives the same
    input and bias gradients; the filter gradient sums fewer zero rows,
    so only its rounding can differ.

    Forward multiplies every padded position by every tap's filters in
    one GEMM over the batch, then sums the W shifted tap slices in tap
    order and adds the bias. BLAS picks its kernel by the size of the
    product, so an output's last bits can depend on the batch size.

    Given a `TokenRows` (an Embedding's output), the convolution works
    once per distinct token id: each tap's product with every distinct
    embedding row is one GEMM, and the output gathers those products (a
    zero row stands for padding). The sums run in the same order as the
    dense path, so the output is the same bit for bit. Backward sums the
    upstream per (tap, token), adds the table gradient through
    `TokenRows.add_grad` and returns None.
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
        if isinstance(x, TokenRows):
            return self._forward_lookup(x, l_out)
        # positions-major (B, L + 2*pad, C), so every tap's product with
        # every padded position is one (B*(L + 2*pad), C)@(C, W*O) GEMM
        xp = np.zeros((b, length + 2 * pad, c))
        xp[:, pad : pad + length] = x.transpose(0, 2, 1)
        prod = (xp.reshape(-1, c) @ self._stacked()).reshape(b, length + 2 * pad, w, -1)
        self._cache = xp
        return self._sum_taps(prod[:, i : i + l_out, i] for i in range(w))

    def _stacked(self) -> np.ndarray:
        """(C, W*O): tap i's transposed filters in columns i*O to (i+1)*O."""
        o, c, w = self.filters.value.shape
        return self.filters.value.transpose(1, 2, 0).reshape(c, w * o)

    def _sum_taps(self, taps) -> np.ndarray:
        """The (B, l_out, O) products of each tap in turn, summed in tap
        order, plus the bias: the output as (B, O, l_out)."""
        out = sum(taps) + self.bias.value
        return out.transpose(0, 2, 1)

    def _forward_lookup(self, x, l_out):
        u, inv, eu = x.u, x.inv, x.rows
        o, _, w = self.filters.value.shape
        pad = self.work_pad
        b, length = inv.shape
        # key u.size picks the zero row that stands for padding
        keys = np.full((b, length + 2 * pad), u.size)
        keys[:, pad : pad + length] = inv
        taps = np.zeros((w, u.size + 1, o))
        taps[:, : u.size] = (eu @ self._stacked()).reshape(u.size, w, o).transpose(1, 0, 2)
        self._cache = x
        return self._sum_taps(taps[i][keys[:, i : i + l_out]] for i in range(w))

    def _backward_lookup(self, upstream):
        x = self._cache
        u, inv, eu = x.u, x.inv, x.rows
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
        x.add_grad(g @ self._stacked().T)
        return None

    def backward(self, upstream):
        if isinstance(self._cache, TokenRows):
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
    order; ties resolve to the smaller index.

    Selection is by threshold, not by sort: t is each row's k-th largest
    value counted with multiplicity (one np.partition). Every value above
    t is kept, and there are fewer than k of them; the rest of the k are
    the leftmost values equal to t. That is the first k of the stable
    descending order, so the positions are exactly a stable argsort's.
    A NaN anywhere in the input is a NumericError."""

    def __init__(self, k: int):
        if k < 1:
            raise PoolingError(f"k must be positive, got {k}")
        self.k = k
        self._cache = None

    def forward(self, x):
        length = x.shape[-1]
        if length < 1:
            raise PoolingError("cannot pool an empty sequence")
        k = min(self.k, length)
        part = np.partition(x, length - k, axis=-1)
        # NaN sorts last, so a row holding one has it in its last k columns
        if np.isnan(part[..., length - k :]).any():
            raise NumericError("NaN in k-max pooling input")
        t = part[..., length - k, None]
        # counts never exceed the row length; a narrow type keeps them cheap
        narrow = np.min_scalar_type(length)
        keep = x >= t
        if (keep.sum(axis=-1, dtype=narrow) != k).any():
            above = x > t
            ties = keep ^ above
            need = k - above.sum(axis=-1, dtype=narrow)
            keep = above | (ties & (np.cumsum(ties, axis=-1, dtype=narrow) <= need[..., None]))
        # flat positions in row-major order: row by row, each in original order
        idx = np.flatnonzero(np.ascontiguousarray(keep))
        self._cache = (idx, x.shape)
        return np.take(x, idx).reshape(*x.shape[:-1], k)

    def backward(self, upstream):
        idx, shape = self._cache
        grad = np.zeros(shape)
        # the positions are distinct, so assignment == scatter-add
        grad.reshape(-1)[idx] = upstream.reshape(-1)
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
    Backward runs truncation-free backpropagation through time.

    The input projection of every step is computed in one call before
    the time loop, and the W_xh, W_hh and bias gradients are one
    reduction each after it, so the loop does only the products that
    need the previous step. States are kept time-major, (T+1, B, H) with
    h_0 in row 0, and each step adds projection, recurrence and bias in
    that order, as a per-step loop does, so the states are the same bit
    for bit; the gradients sum over steps in another order, so only
    their last bits can differ.

    Given a `TokenRows` (an Embedding's output), the projection is
    computed once per distinct token id and gathered per position.
    Backward sums the step gradients per id, adds the W_xh gradient from
    those sums and the table gradient through `TokenRows.add_grad`, and
    returns None.
    """

    def __init__(self, in_dim: int, hidden: int, rng, name: str = "rnn"):
        self.w_xh = ParamSlot(f"{name}.w_xh", glorot_uniform(rng, (hidden, in_dim), in_dim, hidden))
        self.w_hh = ParamSlot(f"{name}.w_hh", glorot_uniform(rng, (hidden, hidden), hidden, hidden))
        self.bias = ParamSlot(f"{name}.bias", np.zeros(hidden))
        self._cache = None

    def params(self):
        return [self.w_xh, self.w_hh, self.bias]

    def forward(self, x):
        b, d, steps = x.shape
        hidden, d_in = self.w_xh.value.shape
        if d != d_in:
            raise ShapeError(f"recurrent layer expects {d_in}-dim inputs, got {d}")
        if isinstance(x, TokenRows):
            keys = x.inv.T.reshape(-1)  # time-major, like the step rows below
            proj = self._project(x.rows, b)[keys].reshape(steps, b, hidden)
            inputs = x
        else:
            inputs = x.transpose(2, 0, 1).reshape(steps * b, d)
            proj = self._project(inputs, b).reshape(steps, b, hidden)
        hs = np.zeros((steps + 1, b, hidden))
        for t in range(steps):
            hs[t + 1] = np.tanh(proj[t] + hs[t] @ self.w_hh.value.T + self.bias.value)
        self._cache = (inputs, hs)
        return hs[1:].transpose(1, 2, 0)

    def _project(self, rows, b):
        """rows @ W_xhᵀ for (N, D) rows, as GEMMs of b rows each, the last
        one padded with zero rows. BLAS picks its kernel, and with it the
        rounding of each row, by the size of the product, so these are
        the values a per-step loop over b rows gets, bit for bit."""
        n, d = rows.shape
        if n % b:
            rows = np.concatenate([rows, np.zeros((b - n % b, d))])
        return (rows.reshape(-1, b, d) @ self.w_xh.value.T).reshape(-1, self.bias.value.size)[:n]

    def backward(self, upstream):
        inputs, hs = self._cache
        up = upstream.transpose(2, 0, 1)  # time-major, like the states
        steps, b, hidden = up.shape
        ga = np.empty((steps, b, hidden))  # gradient at each step's tanh input
        carry = np.zeros((b, hidden))
        for t in reversed(range(steps)):
            ga[t] = (up[t] + carry) * (1.0 - hs[t + 1] ** 2)
            carry = ga[t] @ self.w_hh.value
        ga = ga.reshape(steps * b, hidden)
        self.w_hh.accumulate(ga.T @ hs[:-1].reshape(steps * b, hidden))
        self.bias.accumulate(ga.sum(axis=0))
        if isinstance(inputs, TokenRows):
            # step gradients summed per id, keyed time-major like ga
            g = scatter_rows(inputs.inv.T.reshape(-1), ga, inputs.u.size)
            self.w_xh.accumulate(g.T @ inputs.rows)
            inputs.add_grad(g @ self.w_xh.value)
            return None
        self.w_xh.accumulate(ga.T @ inputs)
        return (ga @ self.w_xh.value).reshape(steps, b, -1).transpose(1, 2, 0)


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
