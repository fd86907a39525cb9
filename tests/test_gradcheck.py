import numpy as np

from retweet_reg import gradcheck


def test_numeric_grad_on_quadratic():
    # f(x) = sum(a * x^2) has gradient 2 a x
    rng = np.random.default_rng(50)
    a = rng.normal(size=(3, 4))
    x = rng.normal(size=(3, 4))
    grad = gradcheck.numeric_grad(lambda: float(np.sum(a * x * x)), x)
    assert np.abs(grad - 2.0 * a * x).max() < 1e-7


def test_numeric_grad_restores_input():
    x = np.array([1.0, 2.0, 3.0])
    before = x.copy()
    gradcheck.numeric_grad(lambda: float((x**2).sum()), x)
    assert np.array_equal(x, before)


def test_relative_error_normalization():
    a = np.array([1000.0, 0.0])
    assert gradcheck.relative_error(a, a) == 0.0
    # absolute gap 1 against magnitude 1000 is a 1e-3 relative error
    b = np.array([1001.0, 0.0])
    assert abs(gradcheck.relative_error(a, b) - 1.0 / 1001.0) < 1e-12
    # tiny tensors fall back to the absolute floor instead of blowing up
    assert gradcheck.relative_error(np.zeros(2), np.full(2, 1e-12)) < 1e-3


def test_pool_gap():
    x = np.array([[5.0, 3.0, 2.9]])
    assert abs(gradcheck._pool_gap(x, 2) - 0.1) < 1e-12
    assert gradcheck._pool_gap(x, 3) == np.inf
    # ties at the k-th value are skipped; the margin is to 3.5 above them
    ties = np.array([[5.0, 3.0, 3.0, 2.0], [3.5, 3.0, 3.0, 3.0]])
    assert gradcheck._pool_gap(ties, 2) == 0.0
    assert abs(gradcheck._pool_gap(ties, 2, exact_ties_move_together=True) - 0.5) < 1e-12


def test_layer_gradients_under_tolerance():
    errors = gradcheck.check_layer_gradients(seed=0)
    expected = {
        "conv1d", "kmax_pool", "conv_kmax_working_pad", "conv_lookup", "fold", "relu",
        "tanh", "dense", "rnn", "rnn_lookup", "loss_mse",
    }
    assert set(errors) == expected
    for name, err in errors.items():
        assert err < gradcheck.TOLERANCE, name


def test_end_to_end_single_mode():
    err = gradcheck.check_end_to_end("rnn", "numeric_only", seed=0)
    assert err < gradcheck.TOLERANCE


def test_end_to_end_deterministic():
    a = gradcheck.check_end_to_end("cnn", "text_only", seed=3)
    b = gradcheck.check_end_to_end("cnn", "text_only", seed=3)
    assert a == b
