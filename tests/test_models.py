import math

import numpy as np
import pytest

from dpconformal.models import (Dataset, ModelSpec, as_batch,
                                batch_loss_and_grads, clip_scale,
                                clipped_grad_sum, init_params, loss_and_grad,
                                param_count, predict_proba, predict_value)

RNG = np.random.default_rng(20260810)


def central_difference_grad(spec, params, example, h=1e-5):
    grad = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy()
        up[i] += h
        down = params.copy()
        down[i] -= h
        grad[i] = (loss_and_grad(spec, up, example)[0]
                   - loss_and_grad(spec, down, example)[0]) / (2 * h)
    return grad


def test_param_counts():
    assert param_count(ModelSpec("linear_regression", 7)) == 7
    assert param_count(ModelSpec("softmax_linear", 7, 3)) == 21
    assert param_count(ModelSpec("mlp", 10, 5, (16, 16))) == (
        10 * 16 + 16 + 16 * 16 + 16 + 16 * 5 + 5)


def test_linear_regression_at_zero_params():
    spec = ModelSpec("linear_regression", 4)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    y = 2.5
    loss, grad = loss_and_grad(spec, np.zeros(4), (x, y))
    assert loss == pytest.approx(y * y / 2)
    np.testing.assert_allclose(grad, -y * x)


def test_softmax_at_zero_params_is_uniform():
    spec = ModelSpec("softmax_linear", 6, 2)
    x = RNG.standard_normal(6)
    loss, _ = loss_and_grad(spec, np.zeros(12), (x, 1))
    assert loss == pytest.approx(math.log(2))
    probs = predict_proba(spec, np.zeros(12), x[None, :])[0]
    np.testing.assert_allclose(probs, 0.5)


@pytest.mark.parametrize("spec,label_kind", [
    (ModelSpec("linear_regression", 6), "real"),
    (ModelSpec("softmax_linear", 6, 4), "class"),
    (ModelSpec("mlp", 6, 3, (16, 16)), "class"),
    (ModelSpec("mlp", 6, 1, (8, 4)), "real"),
])
def test_gradients_match_central_differences(spec, label_kind):
    for _ in range(20):
        params = RNG.standard_normal(param_count(spec)) * 0.5
        x = RNG.standard_normal(spec.input_dim)
        y = RNG.standard_normal() if label_kind == "real" else int(
            RNG.integers(spec.output_dim))
        _, grad = loss_and_grad(spec, params, (x, y))
        fd = central_difference_grad(spec, params, (x, y))
        denom = max(np.linalg.norm(fd), 1e-8)
        assert np.linalg.norm(grad - fd) / denom < 1e-5


def test_batched_grads_match_per_example_loop():
    spec = ModelSpec("mlp", 5, 3, (8,))
    params = RNG.standard_normal(param_count(spec)) * 0.3
    x = RNG.standard_normal((9, 5))
    y = RNG.integers(3, size=9)
    losses, grads = batch_loss_and_grads(spec, params, x, y)
    for i in range(9):
        li, gi = loss_and_grad(spec, params, (x[i], y[i]))
        assert losses[i] == pytest.approx(li, rel=1e-12)
        np.testing.assert_allclose(grads[i], gi, rtol=1e-12)


KERNEL_SPECS = [
    ModelSpec("linear_regression", 5),
    ModelSpec("softmax_linear", 5, 3),
    ModelSpec("mlp", 5, 4, (8, 6)),
    ModelSpec("mlp", 5, 1, (7,)),
]
KERNEL_IDS = ["linear_regression", "softmax_linear", "mlp_classifier",
              "mlp_regression"]


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=KERNEL_IDS)
def test_clipped_grad_sum_matches_materialized_gradients(spec):
    # The oracle forms the (b, P) or (R, b, P) gradients and clips them one
    # by one; the kernel never does. The clip norm sits at the median norm,
    # so about half the rows are clipped.
    rng = np.random.default_rng(40)
    runs = 3
    for stack in ((), (runs,)):
        for b in (1, 4, 33):
            params = rng.standard_normal((*stack, param_count(spec)))
            x, y = as_batch(spec, rng.standard_normal((b, spec.input_dim)),
                            rng.standard_normal(b) if spec.output_dim == 1
                            else rng.integers(0, spec.output_dim, b))
            want_losses, grads = batch_loss_and_grads(spec, params, x, y)
            want_norms = np.linalg.norm(grads, axis=-1)
            clip = float(np.median(want_norms))
            want_sum = (grads * clip_scale(want_norms, clip)[..., None]).sum(
                axis=-2)
            losses, norms, grad_sum = clipped_grad_sum(spec, params, x, y,
                                                       clip)
            assert np.array_equal(losses, want_losses)
            np.testing.assert_allclose(norms, want_norms, rtol=1e-12)
            assert grad_sum.shape == (*stack, param_count(spec))
            assert (np.linalg.norm(grad_sum - want_sum, axis=-1)
                    <= 1e-12 * np.linalg.norm(want_sum, axis=-1)).all()


def _overflow_cases():
    # A feature row of 1e160 squares to inf. softmax_linear: run 0 makes the
    # softmax exactly one-hot, so the row's delta and gradient are exactly 0;
    # run 1 leaves a delta of about 1e-100, a gradient norm of about 1e60.
    soft = ModelSpec("softmax_linear", 2, 3)
    soft_params = np.zeros((2, 3, 2))
    soft_params[0, 0, 0] = 1.0
    soft_params[1, 0, 0] = 230e-160
    # mlp regressor: a 1e-160 weight keeps the hidden units near 1 and the
    # first layer's delta near 1e-160, so every gradient entry is near 1 and
    # the bias terms count in the norm.
    mlp = ModelSpec("mlp", 2, 1, (2,))
    mlp_params = np.array([1e-160, 0.0, 0.0, 1.0, 0.0, 0.0,
                           1e-160, 2e-160, 0.3])
    x = [[1e160, 0.5], [0.5, -1.0]]
    return [(soft, soft_params.reshape(2, -1), x, [0, 2]),
            (mlp, mlp_params[None, :], x, [1.0, -2.0])]


@pytest.mark.parametrize("case", _overflow_cases(),
                         ids=["softmax_linear", "mlp_regression"])
def test_clipped_grad_sum_norms_survive_overflowing_squares(case):
    # The oracle's norms are finite, so the kernel's must be too: the norm of
    # a row whose squares overflow is taken again from rescaled rows.
    spec, params, x, y = case
    x, y = as_batch(spec, x, y)
    want_losses, grads = batch_loss_and_grads(spec, params, x, y)
    want_norms = np.linalg.norm(grads, axis=-1)
    assert np.isfinite(want_norms).all()
    clip = 1.0
    want_sum = (grads * clip_scale(want_norms, clip)[..., None]).sum(axis=-2)
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = clipped_grad_sum(spec, params, x, y, clip)
        alone = [clipped_grad_sum(spec, row, x, y, clip) for row in params]
    losses, norms, grad_sum = stacked
    assert np.array_equal(losses, want_losses)
    np.testing.assert_allclose(norms, want_norms, rtol=1e-12)
    np.testing.assert_allclose(grad_sum, want_sum, rtol=1e-12)
    for r, outs in enumerate(alone):
        for got, want in zip(outs, stacked):
            assert np.array_equal(got, want[r])


def test_as_batch_converts_once():
    spec = ModelSpec("mlp", 3, 4, (5,))
    x = np.arange(6.0).reshape(2, 3)
    xb, yb = as_batch(spec, x, [1.0, 3.0])
    assert xb is x and yb.dtype.kind == "i" and yb.tolist() == [1, 3]
    xb, yb = as_batch(ModelSpec("mlp", 3, 1, (5,)), [1, 2, 3], [2])
    assert xb.shape == (1, 3) and yb.dtype == float
    with pytest.raises(ValueError, match="feature dim"):
        as_batch(spec, np.zeros((2, 4)), [0, 1])


def test_init_params():
    rng1 = np.random.default_rng(3)
    rng2 = np.random.default_rng(3)
    spec = ModelSpec("mlp", 4, 2, (8,))
    a = init_params(spec, rng1)
    b = init_params(spec, rng2)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a[:32]).max() <= 1 / math.sqrt(4)
    assert np.all(init_params(ModelSpec("softmax_linear", 4, 3), rng1) == 0.0)


def test_dimension_mismatch_errors():
    spec = ModelSpec("softmax_linear", 4, 3)
    with pytest.raises(ValueError):
        loss_and_grad(spec, np.zeros(5), (np.zeros(4), 0))
    with pytest.raises(ValueError):
        predict_proba(spec, np.zeros(12), np.zeros((2, 9)))
    with pytest.raises(ValueError):
        predict_value(spec, np.zeros(12), np.zeros((2, 4)))


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 3)), np.zeros(0), "classification")
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, 1, 5]), "classification",
                n_classes=3)
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(2), "regression")
    data = Dataset(np.zeros((4, 2)), np.array([0, 1, 2, 1]), "classification")
    assert data.n_classes == 3 and data.n == 4 and data.dim == 2
