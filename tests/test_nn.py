import numpy as np
import pytest

from retweet_reg import nn
from retweet_reg.errors import (
    EmbeddingError,
    FoldError,
    NumericError,
    PoolingError,
    ShapeError,
)
from retweet_reg.gradcheck import numeric_grad


def set_params(layer, *values):
    """Overwrite a layer's parameters, in params() order."""
    for slot, value in zip(layer.params(), values, strict=True):
        slot.value = np.asarray(value, dtype=np.float64)
    return layer


def conv_layer(filters, bias, pad=0):
    o, c, w = np.shape(filters)
    return set_params(nn.Conv1d(c, o, w, pad, np.random.default_rng(0)), filters, bias)


def rnn_layer(w_xh, w_hh, b):
    hidden, d_in = np.shape(w_xh)
    return set_params(nn.SimpleRnn(d_in, hidden, np.random.default_rng(0)), w_xh, w_hh, b)


def dense_layer(weight, bias):
    out_dim, in_dim = np.shape(weight)
    return set_params(nn.Dense(in_dim, out_dim, np.random.default_rng(0)), weight, bias)


def embedding_layer(table):
    vocab_size, dim = np.shape(table)
    return set_params(nn.Embedding(vocab_size, dim, np.random.default_rng(0)), table)


def kmax_row(row, k):
    """KMaxPool on one row: (pooled values, selected positions). The
    positions are read back from the backward scatter of ones."""
    layer = nn.KMaxPool(k)
    pooled = layer.forward(np.asarray(row, dtype=np.float64)[None, None, :])
    grad = layer.backward(np.ones_like(pooled))
    return pooled[0, 0].tolist(), np.flatnonzero(grad[0, 0]).tolist()


# --- conv1d ---


def test_conv1d_worked_example():
    out = conv_layer([[[1.0, 1.0]]], [0.0], pad=1).forward(np.array([[[1.0, 2.0, 3.0]]]))
    assert out.tolist() == [[[1.0, 3.0, 5.0, 3.0]]]


def test_conv1d_identity_kernel():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 3, 9))
    filters = np.zeros((3, 3, 1))
    for c in range(3):
        filters[c, c, 0] = 1.0
    out = conv_layer(filters, np.zeros(3)).forward(x)
    assert np.array_equal(out, x)


def test_conv1d_zero_filter():
    x = np.ones((1, 2, 5))
    out = conv_layer(np.zeros((4, 2, 3)), np.zeros(4), pad=1).forward(x)
    assert (out == 0.0).all()


def test_conv1d_linearity():
    rng = np.random.default_rng(1)
    layer = conv_layer(rng.normal(size=(4, 2, 3)), np.zeros(4), pad=2)
    for _ in range(20):
        x = rng.normal(size=(1, 2, 8))
        y = rng.normal(size=(1, 2, 8))
        a, b = rng.normal(size=2)
        lhs = layer.forward(a * x + b * y)
        rhs = a * layer.forward(x) + b * layer.forward(y)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_conv1d_channel_mismatch():
    with pytest.raises(ShapeError):
        conv_layer(np.ones((2, 2, 3)), np.zeros(2)).forward(np.ones((1, 3, 5)))


def test_conv1d_output_length_positive():
    with pytest.raises(ShapeError):
        conv_layer(np.ones((1, 1, 5)), np.zeros(1)).forward(np.ones((1, 1, 2)))


def test_conv1d_backward_identity_adjoint():
    x = np.arange(6.0).reshape(1, 1, 6)
    layer = conv_layer(np.ones((1, 1, 1)), np.zeros(1))
    layer.forward(x)
    grad_x = layer.backward(np.ones((1, 1, 6)))
    assert (grad_x == 1.0).all()
    assert layer.filters.grad.shape == layer.filters.value.shape


def test_conv1d_backward_zero_upstream():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 2, 7))
    layer = conv_layer(rng.normal(size=(3, 2, 3)), np.zeros(3), pad=1)
    layer.forward(x)
    grad_x = layer.backward(np.zeros((1, 3, 7)))
    assert (grad_x == 0.0).all()
    assert all((slot.grad == 0.0).all() for slot in layer.params())


def test_conv1d_backward_filter_grad_is_correlation():
    # single channel in and out: dL/dw[k] = sum_t upstream[t] * padded_x[t+k]
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 1, 6))
    pad, width = 2, 3
    upstream = rng.normal(size=(1, 1, 6 + 2 * pad - width + 1))
    layer = conv_layer(rng.normal(size=(1, 1, width)), np.zeros(1), pad)
    layer.forward(x)
    layer.backward(upstream)
    padded = np.pad(x[0, 0], pad)
    expect = np.array(
        [np.dot(upstream[0, 0], padded[k : k + upstream.shape[2]]) for k in range(width)]
    )
    assert np.allclose(layer.filters.grad[0, 0], expect, atol=1e-12)


@pytest.mark.parametrize(
    "batch, length, pad",
    # the second case pads past width - 1, so the outer windows see only
    # padding, as the text branch's first convolution does; the third pads
    # nothing, so the output is shorter than the input
    [(1, 6, 2), (3, 4, 5), (2, 5, 0)],
    ids=["one_example", "pad_past_width", "pad_below_width"],
)
def test_conv1d_backward_matches_finite_differences(batch, length, pad):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(batch, 2, length))
    layer = conv_layer(rng.normal(size=(3, 2, 3)), rng.normal(size=3), pad=pad)
    proj = rng.normal(size=(batch, 3, length + 2 * pad - 3 + 1))

    def run():
        return float((layer.forward(x) * proj).sum())

    layer.forward(x)
    grad_x = layer.backward(proj)
    assert np.abs(grad_x - numeric_grad(run, x)).max() < 1e-8
    for slot in (layer.filters, layer.bias):
        assert np.abs(slot.grad - numeric_grad(run, slot.value)).max() < 1e-8, slot.name


def _conv_per_tap(x, filters, bias, pad):
    """Reference forward: one batched matmul per filter tap over the
    padded, positions-major input, summed in tap order, plus the bias."""
    b, c, length = x.shape
    w = filters.shape[2]
    l_out = length + 2 * pad - w + 1
    xp = np.zeros((b, length + 2 * pad, c))
    xp[:, pad : pad + length] = x.transpose(0, 2, 1)
    out = sum(xp[:, i : i + l_out] @ filters[:, :, i].T for i in range(w))
    return (out + bias).transpose(0, 2, 1)


@pytest.mark.parametrize(
    "batch, channels, length",
    [(64, 64, 5), (64, 1, 12), (1, 64, 5)],
    ids=["conv2", "numeric_conv1", "batch1"],
)
def test_conv1d_matches_per_tap_reference(batch, channels, length):
    rng = np.random.default_rng(13)
    x = rng.normal(size=(batch, channels, length))
    filters = rng.normal(scale=0.1, size=(64, channels, 3))
    bias = rng.normal(size=64)
    out = conv_layer(filters, bias, pad=2).forward(x)
    assert np.allclose(out, _conv_per_tap(x, filters, bias, 2), rtol=0.0, atol=1e-12)


def _conv_then_pool(x, filters, bias, pad, pool_k):
    """Conv1d (width 3) -> KMaxPool(5), forward then backward with a fixed
    upstream. Returns the conv layer, the pooled output and the input
    gradient."""
    conv = nn.Conv1d(x.shape[1], len(bias), 3, pad, np.random.default_rng(0), pool_k=pool_k)
    conv.filters.value[...] = filters
    conv.bias.value[...] = bias
    layers = nn.Sequential([conv, nn.KMaxPool(5)])
    out = layers.forward(x)
    grad_x = layers.backward(np.random.default_rng(1).normal(size=out.shape))
    return conv, out, grad_x


@pytest.mark.parametrize("pad", [49, 8])
@pytest.mark.parametrize("setting", ["random", "padding_wins", "padding_fills", "zero_input"])
def test_conv1d_working_padding_matches_full_padding(pad, setting):
    rng = np.random.default_rng(9)
    x = rng.normal(size=(64, 100, 30))
    filters = rng.normal(scale=0.1, size=(64, 100, 3))
    bias = rng.normal(size=64)
    # a bias shifts every window of its channel alike, so it cannot move a
    # window that sees input below the padding-only windows; signs can
    if setting != "random":
        x, filters = np.abs(x), -np.abs(filters)
    if setting == "padding_fills":
        # only the last token's windows may rise above the bias
        x[:, :, -1] = rng.normal(scale=10.0, size=(64, 100))
    if setting == "zero_input":
        x[...] = 0.0  # every window ties
    full, out, grad_x = _conv_then_pool(x, filters, bias, pad, None)
    trimmed, out_t, grad_x_t = _conv_then_pool(x, filters, bias, pad, 5)
    assert (full.work_pad, trimmed.work_pad) == (pad, 7)
    assert np.array_equal(out_t, out)
    assert np.array_equal(grad_x_t, grad_x)
    assert np.array_equal(trimmed.bias.grad, full.bias.grad)
    # fewer zero rows in the filter-gradient sums change only the rounding
    assert np.allclose(trimmed.filters.grad, full.filters.grad, rtol=0.0, atol=1e-12)
    # the setting does select windows that see only padding
    padding_share = np.mean(out == bias[None, :, None])
    if setting in ("padding_wins", "zero_input"):
        assert padding_share == 1.0
    elif setting == "padding_fills":
        assert 0.0 < padding_share < 1.0


@pytest.mark.parametrize(
    "pad, pool_k, work_pad",
    # (3 - 1) + 5 = 7 is the farthest padding the pool can reach
    [(49, 5, 7), (8, 5, 7), (7, 5, 7), (4, 5, 4), (0, 5, 0), (49, None, 49), (49, 1, 3)],
)
def test_conv1d_working_padding(pad, pool_k, work_pad):
    conv = nn.Conv1d(2, 3, 3, pad, np.random.default_rng(0), pool_k=pool_k)
    assert (conv.pad, conv.work_pad) == (pad, work_pad)
    assert conv.forward(np.ones((1, 2, 4))).shape == (1, 3, 4 + 2 * work_pad - 3 + 1)


# --- k-max pooling ---


def test_kmax_identity_when_k_equals_length():
    assert kmax_row([1.0, 3.0, 2.0], 3) == ([1.0, 3.0, 2.0], [0, 1, 2])


def test_kmax_worked_example():
    assert kmax_row([5.0, 1.0, 4.0, 2.0, 3.0], 2) == ([5.0, 4.0], [0, 2])


def test_kmax_tie_break_smaller_index():
    assert kmax_row([2.0, 2.0, 1.0], 2) == ([2.0, 2.0], [0, 1])


def test_kmax_rejects_bad_k():
    with pytest.raises(PoolingError):
        nn.KMaxPool(0)
    with pytest.raises(PoolingError):
        nn.KMaxPool(2).forward(np.ones((1, 1, 0)))
    # a k longer than the row clamps to the row length
    assert kmax_row([1.0, 3.0, 2.0], 4) == ([1.0, 3.0, 2.0], [0, 1, 2])


def brute_force_kmax(row, k):
    order = sorted(range(len(row)), key=lambda i: (-row[i], i))[:k]
    keep = sorted(order)
    return [row[i] for i in keep], keep


def test_kmax_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(300):
        length = int(rng.integers(1, 12))
        k = int(rng.integers(1, length + 1))
        # small integer values force frequent ties
        row = rng.integers(0, 4, size=length).astype(np.float64)
        assert kmax_row(row, k) == brute_force_kmax(row.tolist(), k)


def test_kmax_backward_scatter():
    layer = nn.KMaxPool(2)
    layer.forward(np.array([[[5.0, 1.0, 4.0, 2.0, 3.0]]]))
    grad = layer.backward(np.array([[[10.0, 20.0]]]))
    assert grad.tolist() == [[[10.0, 0.0, 20.0, 0.0, 0.0]]]


def test_kmax_backward_identity_when_k_equals_length():
    layer = nn.KMaxPool(3)
    layer.forward(np.array([[[3.0, 1.0, 2.0]]]))
    upstream = np.array([[[7.0, 8.0, 9.0]]])
    assert layer.backward(upstream).tolist() == upstream.tolist()


def test_kmax_layer_finite_difference():
    rng = np.random.default_rng(6)
    layer = nn.KMaxPool(3)
    x = rng.permutation(10).astype(np.float64)[None, None, :]  # distinct values
    proj = rng.normal(size=(1, 1, 3))
    layer.forward(x)
    analytic = layer.backward(proj)
    fd = numeric_grad(lambda: float((layer.forward(x) * proj).sum()), x)
    assert np.abs(analytic - fd).max() < 1e-8


def _pool_input(values, length, rng):
    """(4, 6, length) as the transposed view of a contiguous (4, length, 6)
    array, the layout a convolution's output has. "distinct" rows never
    tie; "ties" rows draw from five values, and some rows hold only
    zeros, signed zeros against zeros, or ±inf."""
    if values == "distinct":
        base = rng.permutation(4 * length * 6).reshape(4, length, 6) / 7.0
        return base.transpose(0, 2, 1)
    base = rng.integers(-2, 3, size=(4, length, 6)).astype(np.float64)
    x = base.transpose(0, 2, 1)
    x[0, 0] = 0.0
    x[0, 1, ::2] = -0.0
    x[0, 2, ::3], x[0, 3, 1::3] = np.inf, -np.inf
    x[0, 4, ::2], x[0, 4, 1::2] = np.inf, -np.inf
    # more than 255 values tie at the threshold, past position 255
    x[1, 0] = 1.0
    x[1, 0, [3, length // 2]] = 2.0
    return x


@pytest.mark.parametrize("values", ["ties", "distinct"])
@pytest.mark.parametrize("length", [9, 300])
@pytest.mark.parametrize("k", [1, 5, 9, 400])  # 400 clamps to the length
def test_kmax_batched_matches_brute_force(values, length, k):
    rng = np.random.default_rng(12)
    x = _pool_input(values, length, rng)
    assert not x.flags.c_contiguous
    expect_values = np.zeros(x.shape[:-1] + (min(k, length),))
    expect_grad = np.zeros(x.shape)
    upstream = rng.normal(size=expect_values.shape)
    for b, c in np.ndindex(x.shape[:-1]):
        kept, positions = brute_force_kmax(x[b, c].tolist(), k)
        expect_values[b, c] = kept
        expect_grad[b, c, positions] = upstream[b, c]
    layer = nn.KMaxPool(k)
    assert np.array_equal(layer.forward(x), expect_values)
    assert np.array_equal(layer.backward(upstream), expect_grad)


def test_kmax_nan_row_is_numeric_error():
    # the NaN leaves the row one value short of its k
    x = np.zeros((2, 3, 4))
    x[1, 2] = [3.0, np.nan, 1.0, 2.0]
    with pytest.raises(NumericError):
        nn.KMaxPool(2).forward(x)
    # enough values tie at the threshold to fill the row's k without it
    with pytest.raises(NumericError):
        nn.KMaxPool(2).forward(np.array([[[1.0, 1.0, 1.0, np.nan]]]))


# --- fold ---


def test_fold_worked_example():
    out = nn.fold(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]))
    assert out.tolist() == [[4.0, 6.0], [12.0, 14.0]]


def test_fold_zero():
    assert (nn.fold(np.zeros((6, 3))) == 0.0).all()


def test_fold_odd_rows():
    with pytest.raises(FoldError):
        nn.fold(np.ones((3, 4)))


def test_fold_twice_and_row_sums():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.normal(size=(8, int(rng.integers(1, 6))))
        once = nn.fold(x)
        assert once.shape[0] == 4
        assert nn.fold(once).shape[0] == 2
        for i in range(4):
            assert np.array_equal(once[i], x[2 * i] + x[2 * i + 1])


def test_fold_batched():
    x = np.arange(24.0).reshape(2, 4, 3)
    out = nn.fold(x)
    assert out.shape == (2, 2, 3)
    assert np.array_equal(out[0], x[0, 0::2] + x[0, 1::2])


# --- activation ---


def test_activation_values():
    assert nn.Activation("tanh").forward(np.array([0.0]))[0] == 0.0
    out = nn.Activation("relu").forward(np.array([-2.0, 2.0]))
    assert out.tolist() == [0.0, 2.0]


def test_tanh_gradient_at_zero():
    layer = nn.Activation("tanh")
    x = np.zeros((1, 1))
    layer.forward(x)
    analytic = layer.backward(np.ones((1, 1)))
    assert abs(analytic[0, 0] - 1.0) < 1e-12
    fd = numeric_grad(lambda: float(layer.forward(x).sum()), x)
    assert abs(analytic[0, 0] - fd[0, 0]) < 1e-8


def test_relu_subgradient_zero_at_kink():
    layer = nn.Activation("relu")
    layer.forward(np.array([[0.0]]))
    assert layer.backward(np.array([[5.0]]))[0, 0] == 0.0


# --- dense ---


def test_dense_worked_example():
    out = dense_layer([[1.0, 2.0]], [3.0]).forward(np.array([[4.0, 5.0]]))
    assert out.tolist() == [[17.0]]


def test_dense_identity():
    x = np.array([[1.0, -2.0, 3.0]])
    assert np.array_equal(dense_layer(np.eye(3), np.zeros(3)).forward(x), x)


def test_dense_zero_weights():
    bias = np.array([4.0, -1.0])
    out = dense_layer(np.zeros((2, 3)), bias).forward(np.ones((1, 3)))
    assert np.array_equal(out[0], bias)


def test_dense_shape_mismatch():
    with pytest.raises(ShapeError):
        dense_layer(np.ones((2, 4)), np.zeros(2)).forward(np.ones((1, 3)))


def test_dense_layer_finite_difference():
    rng = np.random.default_rng(8)
    layer = nn.Dense(4, 2, rng, name="t")
    x = rng.normal(size=(3, 4))
    proj = rng.normal(size=(3, 2))

    def run():
        return float((layer.forward(x) * proj).sum())

    layer.forward(x)
    analytic_x = layer.backward(proj)
    fd_x = numeric_grad(run, x)
    assert np.abs(analytic_x - fd_x).max() < 1e-8
    for slot in layer.params():
        fd_p = numeric_grad(run, slot.value)
        assert np.abs(slot.grad - fd_p).max() < 1e-8


# --- embedding ---


def test_embedding_lookup_row():
    table = np.arange(12.0).reshape(4, 3)
    ids = np.array([[3, 0, 3]])
    rows = embedding_layer(table).forward(ids)
    assert rows.shape == (1, 3, 3)
    assert rows.u.tolist() == [0, 3] and rows.inv.tolist() == [[1, 0, 1]]
    assert np.array_equal(rows.rows, table[[0, 3]])
    assert np.array_equal(rows.rows[rows.inv], table[ids])


def test_embedding_shape():
    rows = embedding_layer(np.zeros((50, 100))).forward(np.zeros((1, 30), dtype=np.int64))
    assert rows.shape == (1, 100, 30) and rows.itemsize == 8
    assert rows.rows.shape == (1, 100)


def test_embedding_out_of_range():
    layer = embedding_layer(np.zeros((4, 2)))
    with pytest.raises(EmbeddingError):
        layer.forward(np.array([[4]]))
    with pytest.raises(EmbeddingError):
        layer.forward(np.array([[-1]]))
    with pytest.raises(EmbeddingError, match="min -1, max 9"):
        layer.forward(np.array([[2, 9], [-1, 3]]))
    for ids in (np.array([[1.5, 2.0]]), np.array([[True, False]])):
        with pytest.raises(EmbeddingError, match="must be integers"):
            layer.forward(ids)


def test_embedding_repeated_id_accumulates():
    # a width-1 identity conv hands each position's upstream to its row
    rng = np.random.default_rng(9)
    emb = nn.Embedding(5, 3, rng, name="emb")
    conv = conv_layer(np.eye(3)[:, :, None], np.zeros(3))
    out = conv.forward(emb.forward(np.array([[2, 2]])))
    assert np.array_equal(out[0], emb.table.value[[2, 2]].T)
    upstream = rng.normal(size=(1, 3, 2))
    assert conv.backward(upstream) is None and emb.backward(None) is None
    grad = emb.table.grad
    assert np.allclose(grad[2], upstream[0, :, 0] + upstream[0, :, 1])
    untouched = [i for i in range(5) if i != 2]
    assert (grad[untouched] == 0.0).all()


def test_scatter_rows_matches_add_at():
    rng = np.random.default_rng(10)
    keys = rng.integers(0, 7, size=(40, 3))  # 120 rows on 7 keys, each repeated
    rows = rng.normal(size=(120, 5))
    expect = np.zeros((9, 5))
    np.add.at(expect, keys.reshape(-1), rows)
    assert np.array_equal(nn.scatter_rows(keys, rows, 9), expect)


# --- lookup convolution ---


def _embed_then_conv(vocab, pad, pool_k):
    """Embedding (d=100) -> Conv1d (64 width-3 filters, random bias),
    seeded alike on every call."""
    rng = np.random.default_rng(21)
    conv = nn.Conv1d(100, 64, 3, pad, rng, name="conv", pool_k=pool_k)
    conv.bias.value[...] = rng.normal(size=64)
    emb = nn.Embedding(vocab, 100, rng, name="emb")
    return emb, conv


def _dense_reference(layer, table, ids):
    """`layer` fed the gathered (B, d, L) rows table[ids], and backward on
    a seeded upstream. Returns the output, the upstream, and the table
    gradient scattered from the input gradient by np.add.at."""
    out = layer.forward(table[ids].transpose(0, 2, 1))
    upstream = np.random.default_rng(23).normal(size=out.shape)
    grad_table = np.zeros_like(table)
    np.add.at(grad_table, ids, layer.backward(upstream).transpose(0, 2, 1))
    return out, upstream, grad_table


def _lookup_ids(kind, vocab):
    rng = np.random.default_rng(22)
    if kind == "zipf":
        return np.minimum(rng.zipf(1.3, size=(64, 30)), vocab - 1)
    ids = rng.integers(0, vocab, size=(64, 30))
    if kind == "padding_tail":
        ids[:, 12:] = 0
    if kind == "repeated":
        ids[...] = 7
        ids[::3, 5] = 11
    return ids


@pytest.mark.parametrize(
    "vocab, kind, pad, pool_k",
    # pool_k 5 pads 7 of the nominal 49, pool_k None all 49; pad 0 puts
    # the outer taps' first and last windows off the input
    [(40, "uniform", 49, None), (20000, "zipf", 49, 5), (40, "padding_tail", 49, 5),
     (40, "repeated", 49, 5), (40, "uniform", 0, None)],
    ids=["vocab40_uniform", "vocab20000_zipf", "padding_tail", "repeated_id",
         "pad_below_width"],
)
def test_lookup_conv_matches_dense(vocab, kind, pad, pool_k):
    ids = _lookup_ids(kind, vocab)
    _, conv = _embed_then_conv(vocab, pad, pool_k)
    emb, conv_l = _embed_then_conv(vocab, pad, pool_k)
    out, upstream, grad_table = _dense_reference(conv, emb.table.value, ids)
    layers = nn.Sequential([emb, conv_l])
    out_l = layers.forward(ids)
    assert layers.backward(upstream) is None
    assert np.array_equal(out_l, out)
    assert np.array_equal(conv_l.bias.grad, conv.bias.grad)
    # the sums per token id change only the rounding
    assert np.allclose(conv_l.filters.grad, conv.filters.grad, rtol=0.0, atol=1e-12)
    assert np.allclose(emb.table.grad, grad_table, rtol=0.0, atol=1e-12)
    assert np.abs(grad_table).max() > 0.0


# --- rnn ---


def test_rnn_zero_weights():
    layer = rnn_layer(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros(2))
    assert (layer.forward(np.ones((1, 3, 4))) == 0.0).all()


def test_rnn_single_step_collapses():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(1, 3, 1))
    w_xh = rng.normal(size=(2, 3))
    b = rng.normal(size=2)
    hs = rnn_layer(w_xh, rng.normal(size=(2, 2)), b).forward(x)
    assert np.allclose(hs[0, :, 0], np.tanh(w_xh @ x[0, :, 0] + b))


def test_rnn_scalar_recurrence():
    layer = rnn_layer([[1.0]], [[1.0]], [0.0])
    h1, h2 = layer.forward(np.array([[[1.0, 1.0]]]))[0, 0]
    assert abs(h1 - np.tanh(1.0)) < 1e-15
    assert abs(h2 - np.tanh(1.0 + np.tanh(1.0))) < 1e-15
    # quoted approximations
    assert abs(h1 - 0.76159) < 1e-5
    assert abs(h2 - 0.94324) < 1e-3


def test_rnn_hidden_strictly_inside_unit_interval():
    # strict inequality is checkable only below tanh's float64 saturation
    # point (|preactivation| < ~19, beyond which tanh rounds to 1.0)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.normal(size=(1, 4, 6)) * 2.0
        layer = rnn_layer(
            rng.normal(size=(3, 4)), rng.normal(size=(3, 3)), rng.normal(size=3)
        )
        assert (np.abs(layer.forward(x)) < 1.0).all()


def test_rnn_shape_mismatch():
    layer = rnn_layer(np.ones((2, 4)), np.ones((2, 2)), np.zeros(2))
    with pytest.raises(ShapeError):
        layer.forward(np.ones((1, 3, 2)))


def test_rnn_backward_zero_upstream():
    rng = np.random.default_rng(12)
    layer = nn.SimpleRnn(3, 2, rng, name="r")
    x = rng.normal(size=(1, 3, 4))
    layer.forward(x)
    grad_x = layer.backward(np.zeros((1, 2, 4)))
    assert (grad_x == 0.0).all()
    assert all((slot.grad == 0.0).all() for slot in layer.params())


def test_rnn_backward_matches_finite_differences():
    # T=5 scalar chain plus a vector case
    rng = np.random.default_rng(13)
    for d_in, hidden, steps in ((1, 1, 5), (3, 2, 4)):
        layer = nn.SimpleRnn(d_in, hidden, rng, name="r")
        x = rng.normal(size=(2, d_in, steps))
        proj = rng.normal(size=(2, hidden, steps))

        def run():
            return float((layer.forward(x) * proj).sum())

        layer.forward(x)
        analytic_x = layer.backward(proj)
        fd_x = numeric_grad(run, x)
        denom = max(np.abs(fd_x).max(), 1e-8)
        assert np.abs(analytic_x - fd_x).max() / denom < 1e-6
        for slot in layer.params():
            fd_p = numeric_grad(run, slot.value)
            denom = max(np.abs(fd_p).max(), 1e-8)
            assert np.abs(slot.grad - fd_p).max() / denom < 1e-6


def _rnn_per_step(layer, x, upstream):
    """The recurrence and its backpropagation through time with every
    product inside the time loop, one step at a time. Returns the states,
    the input gradient and the w_xh, w_hh and bias gradients."""
    w_xh, w_hh, bias = (slot.value for slot in layer.params())
    b, _, steps = x.shape
    hs = np.empty((b, bias.size, steps))
    h = np.zeros((b, bias.size))
    for t in range(steps):
        h = np.tanh(x[:, :, t] @ w_xh.T + h @ w_hh.T + bias)
        hs[:, :, t] = h
    grads = [np.zeros_like(x), np.zeros_like(w_xh), np.zeros_like(w_hh), np.zeros_like(bias)]
    carry = np.zeros((b, bias.size))
    for t in reversed(range(steps)):
        ga = (upstream[:, :, t] + carry) * (1.0 - hs[:, :, t] ** 2)
        h_prev = hs[:, :, t - 1] if t > 0 else np.zeros_like(carry)
        grads[0][:, :, t] = ga @ w_xh
        grads[1] += ga.T @ x[:, :, t]
        grads[2] += ga.T @ h_prev
        grads[3] += ga.sum(axis=0)
        carry = ga @ w_hh
    return hs, grads


@pytest.mark.parametrize(
    "layout, batch",
    # BLAS rounds a small product's rows differently from a large one's,
    # so batches of 20 and 1 must keep the per-step products' sizes
    [("contiguous", 64), ("transposed_view", 64), ("transposed_view", 20),
     ("transposed_view", 1)],
    ids=["contiguous", "transposed_view", "batch20", "batch1"],
)
def test_rnn_matches_per_step_reference(layout, batch):
    rng = np.random.default_rng(25)
    layer = nn.SimpleRnn(100, 32, rng, name="r")
    layer.bias.value[...] = rng.normal(size=32)
    x = rng.normal(size=(batch, 30, 100)).transpose(0, 2, 1)  # the embedding's layout
    if layout == "contiguous":
        x = np.ascontiguousarray(x)
    upstream = rng.normal(size=(batch, 32, 30))
    hs, (gx, *gparams) = _rnn_per_step(layer, x, upstream)
    assert np.array_equal(layer.forward(x), hs)
    # the hoisted reductions sum the steps in another order
    assert np.allclose(layer.backward(upstream), gx, rtol=0.0, atol=1e-12)
    for slot, expect in zip(layer.params(), gparams, strict=True):
        assert np.allclose(slot.grad, expect, rtol=0.0, atol=1e-12), slot.name


def _embed_then_rnn(vocab):
    """Embedding (d=100) -> SimpleRnn (32 hidden, random bias), seeded
    alike on every call."""
    rng = np.random.default_rng(24)
    emb = nn.Embedding(vocab, 100, rng, name="emb")
    rnn = nn.SimpleRnn(100, 32, rng, name="rnn")
    rnn.bias.value[...] = rng.normal(size=32)
    return emb, rnn


@pytest.mark.parametrize(
    "vocab, kind",
    [(40, "uniform"), (20000, "zipf"), (40, "padding_tail"), (40, "repeated")],
    ids=["vocab40_uniform", "vocab20000_zipf", "padding_tail", "repeated_id"],
)
def test_lookup_rnn_matches_dense(vocab, kind):
    ids = _lookup_ids(kind, vocab)
    _, rnn = _embed_then_rnn(vocab)
    emb, rnn_l = _embed_then_rnn(vocab)
    out, upstream, grad_table = _dense_reference(rnn, emb.table.value, ids)
    layers = nn.Sequential([emb, rnn_l])
    out_l = layers.forward(ids)
    assert layers.backward(upstream) is None
    assert np.array_equal(out_l, out)
    assert np.array_equal(rnn_l.bias.grad, rnn.bias.grad)
    # the sums per token id change only the rounding
    for got, expect in ((rnn_l.w_xh.grad, rnn.w_xh.grad), (rnn_l.w_hh.grad, rnn.w_hh.grad),
                        (emb.table.grad, grad_table)):
        assert np.allclose(got, expect, rtol=0.0, atol=1e-12)
    assert np.abs(grad_table).max() > 0.0


# --- plumbing ---


def test_param_slot_accumulates_and_clears():
    slot = nn.ParamSlot("w", np.zeros((2, 2)))
    store = nn.ParamStore([nn.ParamSlot("v", np.zeros(3)), slot])
    grad = slot.grad
    assert (grad == 0.0).all()
    slot.accumulate(np.ones((2, 2)))
    slot.accumulate(np.ones((2, 2)))
    assert slot.grad is grad  # in place, into the store's gradient vector
    assert store.grads.tolist() == [0.0] * 3 + [2.0] * 4
    store.grads[...] = 0.0  # what the optimizer does after its step
    assert (slot.grad == 0.0).all()
    with pytest.raises(ShapeError):
        slot.accumulate(np.ones(3))


def test_sequential_runs_layers_in_order():
    rng = np.random.default_rng(14)
    seq = nn.Sequential([nn.Dense(3, 2, rng, name="a"), nn.Activation("tanh")])
    x = rng.normal(size=(4, 3))
    out = seq.forward(x)
    assert out.shape == (4, 2)
    assert (np.abs(out) < 1.0).all()
    grad = seq.backward(np.ones((4, 2)))
    assert grad.shape == x.shape


def test_glorot_uniform_bounds():
    rng = np.random.default_rng(15)
    w = nn.glorot_uniform(rng, (64, 64), fan_in=64, fan_out=64)
    limit = np.sqrt(6.0 / 128.0)
    assert np.abs(w).max() <= limit
    assert w.std() > 0.0
