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
    """Sum the D-wide rows of `rows`, one per key, that share a key in
    [0, n), giving an (n, D) array. One bincount over (key, column) bins,
    which adds each bin's rows in row order, as np.add.at does."""
    d = rows.shape[-1]
    bins = (keys.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
    return np.bincount(bins, weights=rows.reshape(-1), minlength=n * d).reshape(n, d)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b. With inner dimension 1 each entry is a single product, so a
    broadcast multiply gives it with BLAS's bits, in about half BLAS's
    time there. BLAS accumulates from +0.0, so a zero product comes out
    +0.0; adding 0.0 does the same to the multiply's -0.0."""
    if a.shape[-1] != 1 or b.shape[-2] != 1:
        return a @ b
    out = a * b
    out += 0.0
    return out


def fold(x) -> np.ndarray:
    """Sum adjacent channel pairs: rows (0,1), (2,3), ... collapse to one
    row each, halving the channel count."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-2] % 2:
        raise FoldError(f"folding needs an even channel count, got {x.shape[-2]}")
    return x[..., 0::2, :] + x[..., 1::2, :]


# ---------------------------------------------------------------------------
# layers

def _taps(width: int, left: int, l_out: int, length: int):
    """(i, windows, positions) for each tap i of a convolution, `left`
    padded, that reads the input: the output windows whose tap i reads
    an input position, and those positions. The other windows see
    padding through tap i."""
    for i in range(width):
        lo, hi = max(0, left - i), min(l_out, left - i + length)
        if lo < hi:
            yield i, slice(lo, hi), slice(lo + i - left, hi + i - left)


class Rows:
    """A (B, d, L) sequence input as rows plus a position index: the
    (U, d) `rows`, a (B, L) index `inv` from each position into them, and
    the `shape` of the input it stands for. `Conv1d` and `SimpleRnn`
    read every input this way, so each works once per row."""

    def __init__(self, rows, inv, shape):
        self.rows = rows
        self.inv = inv
        self.shape = shape

    @classmethod
    def of(cls, x):
        """`x` itself if it is rows already, else one row per position of
        the (B, d, L) array, time-major: position (b, t) is row t*B + b."""
        if isinstance(x, Rows):
            return x
        b, d, steps = x.shape
        rows = x.transpose(2, 0, 1).reshape(steps * b, d)
        return cls(rows, np.arange(steps * b).reshape(steps, b).T, x.shape)

    def sum_rows(self, keys, values, out) -> None:
        """Sum `values`, one D-wide row per entry of `keys`, by key into
        the zeroed (U, D) `out`. An array's rows are distinct positions,
        and the keys of one tap or step never repeat, so this is an
        assignment."""
        out[keys] = values

    def by_step(self, values: np.ndarray) -> np.ndarray:
        """`values`, one per row, at every position, time-major. An
        array's rows are those positions, so `values` itself."""
        return values

    def sum_steps(self, grads: np.ndarray) -> np.ndarray:
        """The (T, B, D) gradients at every position summed per row. An
        array's rows are those positions, so a view of `grads`."""
        return grads.reshape(-1, grads.shape[-1])

    def tap_sums(self, upstream, width: int, left: int):
        """A convolution's dense (B, O, L_out) upstream summed per (row,
        tap), (U, W, O), and per channel, the bias gradient. Each tap's
        windows hand their upstream to the rows they read; the bias sums
        over every window in (b, window) order."""
        b, o, l_out = upstream.shape
        up3 = np.ascontiguousarray(upstream.transpose(0, 2, 1))
        g = np.zeros((len(self.rows), width, o))
        for i, windows, positions in _taps(width, left, l_out, self.shape[2]):
            self.sum_rows(self.inv[:, positions], up3[:, windows], g[:, i])
        return g, up3.reshape(b * l_out, o).sum(axis=0)

    def backward(self, grad_rows: np.ndarray):
        """The (B, d, L) input gradient from the (U, d) gradient of `rows`."""
        b, d, steps = self.shape
        return grad_rows.reshape(steps, b, d).transpose(1, 2, 0)


class TokenRows(Rows):
    """What `Embedding.forward` returns for (B, L) ids: the batch's sorted
    distinct ids `u`, their table rows, each position's index into them,
    and the table slot they came from. A repeated id is one row, so its
    keys repeat and its gradients are summed per id; backward adds into
    the table and returns None.

    A convolution that reads token rows takes its upstream as `Picks`,
    and sums only the picked windows (`tap_sums`)."""

    def __init__(self, u, inv, table):
        rows = table.value[u]
        super().__init__(rows, inv, (inv.shape[0], rows.shape[1], inv.shape[1]))
        self.u = u
        self.table = table
        # read only by bench/tracing.py, which counts column bytes with it
        self.itemsize = rows.itemsize

    def sum_rows(self, keys, values, out) -> None:
        out[...] = scatter_rows(keys, values, len(out))

    def by_step(self, values: np.ndarray) -> np.ndarray:
        return values[self.inv.T.reshape(-1)]

    def sum_steps(self, grads: np.ndarray) -> np.ndarray:
        out = np.zeros((len(self.rows), grads.shape[-1]))
        self.sum_rows(self.inv.T, grads, out)
        return out

    def tap_sums(self, upstream, width: int, left: int):
        """As `Rows.tap_sums`, from the picks of the pool that reads the
        convolution (a dense upstream picks every window). Per tap, one
        bincount over the picks sums them per (token id, channel). A tap
        that reads padding adds into one extra id, which is dropped. The
        picks reach each (id, channel) and each channel in the (b,
        window) order of a dense sum, and the windows left out add exact
        zeros to a sum that started at +0.0, so the sums are the same bit
        for bit."""
        picks = Picks.of(upstream)
        b, o, l_out = picks.shape
        k = picks.values.shape[-1]
        u, length = len(self.rows), self.inv.shape[1]
        # each position of the padded input as its row's first bin; row u
        # stands for the padding
        padded = l_out + width - 1
        row_bins = np.full((b, padded), u * o)
        row_bins[:, left : left + length] = self.inv * o
        row_bins = row_bins.reshape(-1)
        # pick r*L_out + p of row r = i*O + c reads position p + t of
        # example i through tap t: at i*padded + p + t of `row_bins`
        at = picks.idx + (np.arange(b)[:, None] * (padded - o * l_out)
                          - np.arange(o) * l_out).repeat(k)
        channel = np.tile(np.arange(o).repeat(k), b)
        values = picks.values.reshape(-1)
        g = np.empty((u, width, o))
        for i in range(width):
            bins = np.take(row_bins[i:], at)
            bins += channel
            g[:, i] = np.bincount(bins, values, (u + 1) * o)[: u * o].reshape(u, o)
        return g, np.bincount(channel, values, o)

    def backward(self, grad_rows: np.ndarray) -> None:
        # the distinct ids are distinct table rows
        self.table.grad[self.u] += grad_rows


class Picks:
    """A k-max pool's gradient as its picks: for each (b, c) row of the
    pool's (B, C, L) input, in (b, c) order, the k positions it kept in
    ascending order, as flat indices `idx` into the (B*C, L) rows, and
    their (B, C, k) upstream `values`. Every other entry is zero."""

    def __init__(self, idx, values, shape):
        self.idx = idx
        self.values = values
        self.shape = shape

    @classmethod
    def of(cls, upstream):
        """`upstream` itself if it is picks already, else every entry of
        the (B, C, L) array as a pick."""
        if isinstance(upstream, Picks):
            return upstream
        return cls(np.arange(upstream.size), upstream, upstream.shape)

    def dense(self) -> np.ndarray:
        """The (B, C, L) gradient, built in (B, L, C) memory, the layout
        of a convolution's output: its (B, C, L) view is returned, so
        the convolution reads it without a copy."""
        b, c, length = self.shape
        k = self.values.shape[-1]
        # Row r = i*C + j keeps position p at r*L + p of the rows, and it
        # sits at i*L*C + p*C + j here: C times the former, plus a shift
        # of (i*L*C + j) - r*L*C. Every row keeps exactly k.
        lc = length * c
        shift = (np.arange(b)[:, None] * (lc - c * lc) + np.arange(c) * (1 - lc)).repeat(k)
        grad = np.zeros((b, length, c))
        # the positions are distinct, so assignment == scatter-add
        grad.reshape(-1)[self.idx * c + shift] = self.values.reshape(-1)
        return grad.transpose(0, 2, 1)


class Embedding(Layer):
    """Token-id lookup table. Input (B, L) integer ids, output a
    `TokenRows` of the batch's distinct ids and their rows. The layer
    that reads it adds the table gradient (`TokenRows.backward`); ids
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
        if not ids.size:
            raise ShapeError(f"embedding needs at least one id, got shape {ids.shape}")
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
    (B, O, L + left + right - W + 1), where `work_pad` = (left, right).

    `pad` is the nominal padding on each side. When a k-max pool of size
    `pool_k` reads the output, the layer pads only as far as the pool can
    reach. A window that sees only padding outputs exactly the bias, and
    the pool breaks ties to the left: it takes at most pool_k such windows
    from the left side, and one from the right side only after all of
    those on the left. So the left side pads min(pad, (W-1) + pool_k), and
    the right side keeps pool_k minus the left's padding-only windows:
    none, W-1 pads, once the left has pool_k. The dropped windows are
    never picked and read no input, so the pooled values and every
    gradient are the same bit for bit.

    The layer reads its input as `Rows` and works once per row: every
    row's product with every tap's filters is one GEMM, and each tap's
    output gathers those products at the positions its windows read.
    Padding is the zero row, so it is neither multiplied nor added. The
    taps sum in tap order from zero, then the bias is added. With one
    input channel the GEMM is `matmul`'s broadcast multiply. BLAS picks
    its kernel by the size of a product, so an output's last bits can
    depend on the number of rows. Backward sums the upstream per (row,
    tap) as its input kind does it (`tap_sums`): an array's rows take the
    dense gradient, token rows the picks of the k-max pool that reads the
    layer, so only the windows it kept. The filter gradient and the rows'
    gradient are then one GEMM each, and `Rows.backward` turns the latter
    into the input gradient.
    """

    def __init__(self, in_channels: int, out_channels: int, width: int, pad: int,
                 rng, name: str = "conv", pool_k=None):
        fan_in = in_channels * width
        fan_out = out_channels * width
        filters = glorot_uniform(rng, (out_channels, in_channels, width), fan_in, fan_out)
        self.filters = ParamSlot(f"{name}.filters", filters)
        self.bias = ParamSlot(f"{name}.bias", np.zeros(out_channels))
        self.pad = pad
        if pool_k is None:
            self.work_pad = (pad, pad)
        else:
            left = min(pad, width - 1 + pool_k)
            run = max(0, left - width + 1)  # padding-only windows on the left
            self.work_pad = (left, min(pad, width - 1 + pool_k - run))
        self._cache = None

    def params(self):
        return [self.filters, self.bias]

    def forward(self, x):
        b, c, length = x.shape
        o, cf, w = self.filters.value.shape
        left, right = self.work_pad
        if c != cf:
            raise ShapeError(f"convolution expects {cf} input channels, got {c}")
        l_out = length + left + right - w + 1
        if l_out < 1:
            raise ShapeError(
                f"convolution output length {l_out} is not positive "
                f"(input length {length}, width {w}, pad {left} + {right})"
            )
        x = Rows.of(x)
        prod = matmul(x.rows, self._stacked()).reshape(-1, w, o)
        out = np.zeros((b, l_out, o))
        for i, windows, positions in _taps(w, left, l_out, length):
            out[:, windows] += prod[x.inv[:, positions], i]
        out += self.bias.value
        self._cache = x
        return out.transpose(0, 2, 1)

    def _stacked(self) -> np.ndarray:
        """(C, W*O): tap i's transposed filters in columns i*O to (i+1)*O."""
        o, c, w = self.filters.value.shape
        return self.filters.value.transpose(1, 2, 0).reshape(c, w * o)

    def backward(self, upstream):
        x = self._cache
        o, c, w = self.filters.value.shape
        g, bias_grad = x.tap_sums(upstream, w, self.work_pad[0])
        self.bias.accumulate(bias_grad)
        g = g.reshape(-1, w * o)
        self.filters.accumulate((g.T @ x.rows).reshape(w, o, c).transpose(1, 2, 0))
        return x.backward(g @ self._stacked().T)


class KMaxPool(Layer):
    """Keep the k largest values per (batch, channel) row, in original
    order; ties resolve to the smaller index.

    Selection is by threshold from one sorted copy of the rows: t is
    each row's k-th largest value counted with multiplicity. Every value
    above t is kept, and there are fewer than k of them; the rest of the
    k are the leftmost values equal to t. That is the first k of the
    stable descending order, so the positions are exactly a stable
    argsort's. The sorted copy also tells which rows hold more than k
    values >= t (those where the next value down equals t) and how many
    of their ties are picked, and a NaN sorts last in it: a NaN anywhere
    in the input is a NumericError.

    Backward hands on the forward's positions with the upstream as
    `Picks`. With `hands_picks`, which model assembly sets where the
    convolution before reads token rows, it returns them as they are, so
    no dense gradient is built. Otherwise it returns `Picks.dense()`: the
    input gradient in (B, L, C) memory, the layout of a convolution's
    output, as its (B, C, L) view, which the convolution or a `Fold`
    reads without a copy."""

    def __init__(self, k: int):
        if k < 1:
            raise PoolingError(f"k must be positive, got {k}")
        self.k = k
        self.hands_picks = False  # set by model assembly
        self._cache = None

    def forward(self, x):
        b, c, length = x.shape
        if length < 1:
            raise PoolingError("cannot pool an empty sequence")
        k = min(self.k, length)
        rows = x.reshape(-1, length)  # a copy when x is a convolution's view
        ordered = np.sort(rows, axis=-1)
        if np.isnan(ordered[:, -1]).any():
            raise NumericError("NaN in k-max pooling input")
        t = ordered[:, length - k, None]
        keep = rows >= t
        if k < length and (ordered[:, length - k - 1] == t[:, 0]).any():
            # some row holds more than k values >= t: of each row's ties,
            # keep the leftmost `need`, its ties among the top k. Ties are
            # counted a column at a time across all rows, as a cumulative
            # sum or a sum over k columns would make a call per row
            narrow = np.min_scalar_type(length)  # counts never exceed it
            need = (ordered[:, length - k :] == t).astype(narrow) @ np.ones(k, dtype=narrow)
            ties = rows == t
            count = ties.astype(narrow)
            for j in range(1, length):
                count[:, j] += count[:, j - 1]
            keep &= ~ties | (count <= need[:, None])
        # flat positions in row-major order: row by row, each in original order
        idx = np.flatnonzero(keep)
        self._cache = (idx, x.shape)
        return np.take(rows, idx).reshape(b, c, k)

    def backward(self, upstream):
        idx, shape = self._cache
        picks = Picks(idx, upstream, shape)
        return picks if self.hands_picks else picks.dense()


class Fold(Layer):
    """Sum adjacent channel pairs, halving the channel count.

    Backward repeats along the channel axis of the upstream's (B, L, C)
    memory, the layout `KMaxPool.backward` builds, and returns the
    (B, C, L) view of the result, so the convolution before it reads the
    gradient without a copy."""

    def forward(self, x):
        return fold(x)

    def backward(self, upstream):
        return np.repeat(upstream.transpose(0, 2, 1), 2, axis=-1).transpose(0, 2, 1)


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
        return matmul(upstream, self.weight.value)


class SimpleRnn(Layer):
    """Elman recurrence h_t = tanh(W_xh x_t + W_hh h_{t-1} + b) with
    h_0 = 0. Input (B, D, T); output every hidden state, (B, H, T).
    Backward runs truncation-free backpropagation through time.

    The input projection of every step is computed in one call before
    the time loop, and the W_xh, W_hh and bias gradients are one
    reduction each after it, so the loop does only the products that
    need the previous step. States are kept time-major, (T+1, B, H) with
    h_0 in row 0. Each step writes its recurrent product straight into
    its state row, then adds the projection and the bias and applies
    tanh in place: the sums of a per-step loop, in its order (one
    addition commutes exactly), so the states are the same bit for bit
    and the loop allocates nothing. Backward takes every step's tanh
    derivative in one array op and turns it in place into the step
    gradients, with one add, one multiply and one matmul a step. The
    gradients sum over steps in another order, so only their last bits
    can differ.

    The input is read as `Rows`: the projection is computed once per row
    and placed at every position (`by_step`), and backward sums the step
    gradients per row (`sum_steps`) before the W_xh and input gradients.
    An array's rows are its positions in time-major order, so for an
    array both are the arrays themselves, with no copy.
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
        x = Rows.of(x)
        proj = x.by_step(self._project(x.rows, b)).reshape(steps, b, hidden)
        w_hh_t = self.w_hh.value.T
        # a row per example, so each step's bias add needs no broadcast
        bias = np.broadcast_to(self.bias.value, (b, hidden)).copy()
        hs = np.empty((steps + 1, b, hidden))
        hs[0] = 0.0
        for t in range(steps):
            h = hs[t + 1]
            np.matmul(hs[t], w_hh_t, out=h)
            h += proj[t]
            h += bias
            np.tanh(h, out=h)
        self._cache = (x, hs)
        return hs[1:].transpose(1, 2, 0)

    def _project(self, rows, b):
        """rows @ W_xhᵀ for (N, D) rows, as GEMMs of b rows each, the last
        one padded with zero rows. BLAS picks its kernel, and with it the
        rounding of each row, by the size of the product, so these are
        the values a per-step loop over b rows gets, bit for bit. A 1-dim
        input (the numeric RNN) takes `matmul`'s broadcast multiply."""
        n, d = rows.shape
        if n % b:
            rows = np.concatenate([rows, np.zeros((b - n % b, d))])
        proj = matmul(rows.reshape(-1, b, d), self.w_xh.value.T)
        return proj.reshape(-1, self.bias.value.size)[:n]

    def backward(self, upstream):
        x, hs = self._cache
        up = upstream.transpose(2, 0, 1)  # time-major, like the states
        steps, b, hidden = up.shape
        w_hh = self.w_hh.value
        # every step's tanh derivative, turned in place into the gradient
        # at that step's tanh input; the cached states stay as they are
        ga = hs[1:] ** 2
        np.subtract(1.0, ga, out=ga)
        carry = np.zeros((b, hidden))
        for t in reversed(range(steps)):
            carry += up[t]
            ga[t] *= carry
            np.matmul(ga[t], w_hh, out=carry)
        g = x.sum_steps(ga)  # per row
        ga = ga.reshape(steps * b, hidden)
        self.w_hh.accumulate(ga.T @ hs[:-1].reshape(steps * b, hidden))
        self.bias.accumulate(ga.sum(axis=0))
        self.w_xh.accumulate(g.T @ x.rows)
        return x.backward(g @ self.w_xh.value)


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
