import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpconformal import models
from dpconformal.models import (Dataset, ModelSpec, as_batch,
                                batch_loss_and_grads, clip_scale,
                                clipped_grad_sum, init_params, loss_and_grad,
                                param_count, predict_proba, predict_value,
                                sq_row_norms)

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


@pytest.mark.parametrize("args", [
    ("softmax_linear", 3, 2, (4,)),
    ("linear_regression", 3, 1, (4,)),
    ("linear_regression", 3, 2),
], ids=["softmax_hidden", "regression_hidden", "regression_two_outputs"])
def test_model_spec_rejects_shapes_no_layout_has(args):
    # A linear kind is one bias-free layer, and linear regression has one
    # output; any other shape would make param_count and the layers disagree
    # with what the kind trains.
    with pytest.raises(ValueError):
        ModelSpec(*args)


ALL_KIND_SPECS = [
    ModelSpec("linear_regression", 7),
    ModelSpec("softmax_linear", 7, 3),
    ModelSpec("softmax_linear", 7, 1),
    ModelSpec("mlp", 7, 1, (5,)),
    ModelSpec("mlp", 7, 4, (6, 3)),
]
ALL_KIND_IDS = ["linear_regression", "softmax_linear", "softmax_one_class",
                "mlp_regression", "mlp_classifier"]


@pytest.mark.parametrize("spec", ALL_KIND_SPECS, ids=ALL_KIND_IDS)
@pytest.mark.parametrize("stack", [(), (3,)], ids=["P", "R3"])
def test_param_count_is_the_size_of_the_layer_views(spec, stack):
    # The layer views tile the parameter vector in order, with no gap and no
    # overlap, so their total size is param_count.
    params = np.arange(np.prod(stack, dtype=int) * param_count(spec),
                       dtype=float).reshape(*stack, param_count(spec))
    views = [v for layer in models._layers(spec, params) for v in layer
             if v is not None]
    assert sum(v.size for v in views) == params.size
    flat = np.concatenate([v.reshape(*stack, -1) for v in views], axis=-1)
    assert np.array_equal(flat, params)
    assert all(np.shares_memory(v, params) for v in views)


@pytest.mark.parametrize("spec, task", [
    (ModelSpec("linear_regression", 3), "regression"),
    (ModelSpec("mlp", 3, 1, (4,)), "regression"),
    (ModelSpec("softmax_linear", 3, 1), "classification"),
    (ModelSpec("softmax_linear", 3, 4), "classification"),
    (ModelSpec("mlp", 3, 2, (4,)), "classification"),
])
def test_the_head_serves_its_task_and_no_other(spec, task):
    params = np.zeros(param_count(spec))
    x = np.ones((2, 3))
    assert spec.task == task
    serves, refuses = ((predict_value, predict_proba) if task == "regression"
                       else (predict_proba, predict_value))
    assert serves(spec, params, x).shape[0] == 2
    with pytest.raises(ValueError, match="head"):
        refuses(spec, params, x)


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


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=KERNEL_IDS)
def test_clip_scale_bounds_every_per_sample_gradient(spec):
    # The kernel test above applies clip_scale on both sides; this one checks
    # the clip itself on the oracle's per-sample gradients: every clipped
    # gradient has norm at most C, and one already within C is unchanged.
    rng = np.random.default_rng(41)
    for stack in ((), (3,)):
        params = rng.standard_normal((*stack, param_count(spec)))
        x, y = as_batch(spec, rng.standard_normal((33, spec.input_dim)),
                        rng.standard_normal(33) if spec.output_dim == 1
                        else rng.integers(0, spec.output_dim, 33))
        _, grads = batch_loss_and_grads(spec, params, x, y)
        norms = np.linalg.norm(grads, axis=-1)
        for clip in (float(np.median(norms)), float(norms.min()) / 2,
                     float(norms.max())):
            clipped = grads * clip_scale(norms, clip)[..., None]
            assert (np.linalg.norm(clipped, axis=-1)
                    <= clip * (1 + 1e-12)).all()
            within = norms <= clip
            assert np.array_equal(clipped[within], grads[within])


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


def exact_norms(grads):
    """l2 norms of the rows of ``grads``, each row rescaled by an exact power
    of two before it is squared, so that no square overflows."""
    _, e = np.frexp(np.abs(grads).max(axis=-1, keepdims=True))
    return np.ldexp(np.linalg.norm(np.ldexp(grads, -e), axis=-1), e[..., 0])


def _finite_norm_cases():
    # softmax_linear at zero parameters: feature rows of norm 1e307 and 2e200
    # with deltas of norm sqrt(1/2). mlp classifier: weights of 1e100 make
    # the 1e100 row's hidden units about 1e200 and its logits about 1e300,
    # so both layers' gradient norms are about 1.4e200.
    soft = ModelSpec("softmax_linear", 2, 2)
    mlp = ModelSpec("mlp", 2, 3, (2,))
    mlp_params = np.zeros(param_count(mlp))
    (w1, _), (w2, _) = models._layers(mlp, mlp_params)
    w1[:] = 1e100 * np.eye(2)
    w2[:2] = 1e100 * np.eye(2)
    return [(soft, np.zeros(param_count(soft)), [[1e307, 0.0], [0.0, 2e200]],
             [0, 1]),
            (mlp, mlp_params, [[1e100, 0.5], [0.5, -1.0]], [1, 2])]


@pytest.mark.parametrize("case", _finite_norm_cases(),
                         ids=["softmax_linear", "mlp_classifier"])
def test_clipped_grad_sum_norms_are_finite_up_to_max_float(case):
    # A gradient norm between sqrt(max float) and max float is finite: the
    # layers' rescaled norms are combined by hypot, not squared. The oracle
    # takes each per-sample gradient's norm after an exact rescale by a
    # power of two.
    spec, params, x, y = case
    x, y = as_batch(spec, x, y)
    _, grads = batch_loss_and_grads(spec, params, x, y)
    want_norms = exact_norms(grads)
    assert np.isfinite(want_norms).all() and want_norms.max() > 1e200
    want_sum = (grads * clip_scale(want_norms, 1.0)[..., None]).sum(axis=-2)
    # The squares of the large rows overflow in sq_row_norms.
    with np.errstate(over="ignore", invalid="ignore"):
        _, norms, grad_sum = clipped_grad_sum(spec, params, x, y, 1.0)
    np.testing.assert_allclose(norms, want_norms, rtol=1e-12)
    assert (np.linalg.norm(grad_sum - want_sum)
            <= 1e-12 * np.linalg.norm(want_sum))


def test_as_batch_converts_once():
    spec = ModelSpec("mlp", 3, 4, (5,))
    x = np.arange(6.0).reshape(2, 3)
    xb, yb = as_batch(spec, x, [1.0, 3.0])
    assert xb is x and yb.dtype.kind == "i" and yb.tolist() == [1, 3]
    xb, yb = as_batch(ModelSpec("mlp", 3, 1, (5,)), [1, 2, 3], [2])
    assert xb.shape == (1, 3) and yb.dtype == float
    with pytest.raises(ValueError, match="feature dim"):
        as_batch(spec, np.zeros((2, 4)), [0, 1])
    # Classes are checked as Dataset checks them, against the head's
    # output_dim: -1 is no class (not the last one), 0.7 is not cut to 0,
    # and the 4-class head has no class 4.
    for labels, message in (([1, -1], "got label -1$"),
                            ([1, 0.7], "must be integers"),
                            ([1, 4], "got label 4$")):
        with pytest.raises(ValueError, match=message):
            as_batch(spec, x, labels)


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


@pytest.mark.parametrize("labels", [[0.5, 1.7], [0.0, 1.0 + 1e-9],
                                    [0.0, math.nan], [0.0, math.inf],
                                    ["0", "1.5"]])
def test_dataset_rejects_class_labels_that_are_not_integers(labels):
    with pytest.raises(ValueError, match="class labels must be integers"):
        Dataset(np.zeros((2, 2)), labels, "classification")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("labels,n_classes,bad", [
    ([0.0, 1e300], 0, "1e+300"), ([0.0, 2.0 ** 63], 0, "9.223372036854776e+18"),
    ([0.0, -1e300], 0, "-1e+300"), ([0.0, 1e300], 3, "1e+300"),
    ([0, 1, 5], 3, "5")])
def test_dataset_names_a_class_label_out_of_range(labels, n_classes, bad):
    # The range is checked before the cast to int, which would turn a label
    # beyond int64 into a garbage index with a RuntimeWarning.
    with pytest.raises(ValueError, match=rf"\[0, n_classes\); got label "
                                         rf"{re.escape(bad)}$"):
        Dataset(np.zeros((len(labels), 2)), labels, "classification",
                n_classes=n_classes)


def test_dataset_takes_integral_float_class_labels():
    data = Dataset(np.zeros((3, 2)), [0.0, 2.0, 1.0], "classification")
    assert data.labels.dtype == int and data.labels.tolist() == [0, 2, 1]
    assert data.n_classes == 3
    # Regression targets stay real.
    assert Dataset(np.zeros((2, 2)), [0.5, 1.7], "regression"
                   ).labels.tolist() == [0.5, 1.7]


# The per-row reductions that the column-by-column class-axis code replaces;
# they are the oracle the kernels must equal bit for bit.
def reduce_softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def reduce_loss_and_delta(spec, out, y):
    if spec.task == "regression":
        resid = out[..., 0] - y
        return 0.5 * resid**2, resid[..., None]
    rows = np.arange(y.shape[0])
    probs = reduce_softmax(out)
    losses = -np.log(np.clip(probs[..., rows, y], 1e-300, None))
    probs[..., rows, y] -= 1.0
    return losses, probs


def reduce_clipped_grad_sum(spec, params, x, y, clip_norm):
    """The ghost-norm kernel from the formulas it stands for: the
    out-of-place forward pass, the per-row reductions, the norm sum started
    from 0.0, each norm checked for finiteness, and the clip scale
    min(1, C / max(norm, 1e-300)); the oracle of ``clipped_grad_sum``."""
    layers, acts = reference_forward(spec, params, x)
    losses, delta = reduce_loss_and_delta(spec, acts[-1], y)
    deltas = [None] * len(layers)
    sq_norms = 0.0
    for i in range(len(layers) - 1, -1, -1):
        w, bias = layers[i]
        a_sq = np.square(acts[i]).sum(axis=-1)
        if bias is not None:
            a_sq = a_sq + 1.0
        sq_norms = sq_norms + np.square(delta).sum(axis=-1) * a_sq
        deltas[i] = delta
        if i > 0:
            delta = (delta @ w) * (acts[i] > 0.0)
    norms = np.sqrt(sq_norms)
    bad = ~np.isfinite(norms)
    if bad.any():
        norms = np.where(bad, models._scaled_norms(layers, acts, deltas),
                         norms)
    scale = np.minimum(1.0, clip_norm / np.maximum(norms, 1e-300))[..., None]
    chunks = []
    for (_, bias), a, delta in zip(layers, acts, deltas):
        scaled = delta * scale
        chunks.append((np.swapaxes(scaled, -1, -2) @ a).reshape(
            *params.shape[:-1], -1))
        if bias is not None:
            chunks.append(scaled.sum(axis=-2))
    return losses, norms, np.concatenate(chunks, axis=-1)


def _bits(a):
    """Shape and bit patterns, every NaN as one pattern: the max reductions
    pick the sign of a NaN their own way, and no written result shows it."""
    a = np.where(np.isnan(a), np.nan, np.asarray(a, dtype=float))
    return a.shape, a.view(np.uint64).tolist()


def _warned(f, *args):
    """f(*args) and whether it raised a RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = f(*args)
    return out, any(issubclass(w.category, RuntimeWarning) for w in caught)


EXTREME_LOGITS = np.array([1e308, -1e308, np.inf, -np.inf, np.nan, 0.0, -0.0,
                           1.0, -1.0, 709.0, -745.0, 1e-300])


def _class_axis_cases():
    rng = np.random.default_rng(23)
    for k in range(1, 13):
        for shape in ((40, k), (3, 9, k)):
            yield rng.standard_normal(shape) * 30.0
            yield rng.choice(EXTREME_LOGITS, size=shape)
            yield (rng.choice(EXTREME_LOGITS, size=shape)
                   * rng.uniform(-1.0, 1.0, size=shape))


@pytest.mark.parametrize("z", list(_class_axis_cases()))
def test_class_axis_reductions_equal_the_per_row_reductions(z):
    # numpy sums fewer than 8 entries left to right from +0.0; the column
    # path relies on that order, so this holds it on every numpy version
    # the suite runs on. The column path may warn only where the per-row
    # reductions do.
    got, new_warns = _warned(models._softmax, z.copy())
    want, old_warns = _warned(reduce_softmax, z)
    assert _bits(got) == _bits(want)
    assert old_warns or not new_warns
    with np.errstate(over="ignore"):
        squares = np.square(z)
    for v in (np.abs(z), squares):
        got, new_warns = _warned(models._sum_nonneg, v)
        want, old_warns = _warned(np.sum, v, -1)
        assert _bits(got) == _bits(want)
        assert old_warns or not new_warns
    y = np.arange(z.shape[-2]) % z.shape[-1]
    spec = ModelSpec("softmax_linear", 1, z.shape[-1])
    got, new_warns = _warned(models._loss_and_delta, spec, z.copy(), y)
    want, old_warns = _warned(reduce_loss_and_delta, spec, z, y)
    assert [_bits(a) for a in got] == [_bits(a) for a in want]
    assert old_warns or not new_warns


def test_nonneg_sum_equals_the_numpy_sum():
    # numpy's sum starts from +0.0, which changes a sum only where it is
    # -0.0; exps and squares never are. Rows mix +0.0, subnormals, the
    # largest floats (whose sums overflow), inf and NaN, and values of many
    # magnitudes, whose rounding shows the order of the additions.
    rng = np.random.default_rng(29)
    entries = np.array([0.0, 5e-324, 2.2e-308, 1e-300, 1.0, 1.7e308, np.inf,
                        np.nan])
    for k in range(1, 13):
        special = rng.choice(entries, size=(200, k))
        spread = rng.random((200, k)) * 10.0 ** rng.integers(-8, 8, (200, k))
        for v in (special, spread, np.zeros((3, k))):
            with np.errstate(over="ignore"):
                assert _bits(models._sum_nonneg(v)) == _bits(v.sum(axis=-1))


finite_or_not = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda k: st.lists(st.lists(finite_or_not, min_size=k, max_size=k),
                       min_size=1, max_size=6)))
def test_class_axis_reductions_equal_the_per_row_reductions_on_any_floats(
        rows):
    z = np.array(rows, dtype=float)
    with np.errstate(all="ignore"):
        assert _bits(models._softmax(z.copy())) == _bits(reduce_softmax(z))
        v = np.abs(z)
        assert _bits(models._sum_nonneg(v)) == _bits(v.sum(axis=-1))


def _kernel_bits(spec, params, x, y, kernel=clipped_grad_sum):
    outs = [*batch_loss_and_grads(spec, params, x, y),
            *kernel(spec, params, x, y, 1.5)]
    if params.ndim == 1 and spec.output_dim > 1:
        outs.append(predict_proba(spec, params, x))
    return [_bits(a) for a in outs]


@pytest.mark.parametrize("spec",
                         KERNEL_SPECS + [ModelSpec("mlp", 9, 12, (10,))],
                         ids=KERNEL_IDS + ["mlp_12_classes"])
@pytest.mark.parametrize("stack", [(), (1,), (4,)], ids=["P", "R1", "R4"])
def test_kernels_equal_the_per_row_reductions(spec, stack, monkeypatch):
    # The oracle's softmax and loss, swapped into the formed-gradient path
    # and the predictions, and the reduce form of the clipped-sum kernel
    # give the kernels as they were before the class axis was reduced
    # column by column.
    rng = np.random.default_rng(61)
    params = rng.standard_normal((*stack, param_count(spec))) * 3.0
    x, y = as_batch(spec, rng.standard_normal((33, spec.input_dim)) * 2.0,
                    rng.standard_normal(33) if spec.output_dim == 1
                    else rng.integers(0, spec.output_dim, 33))
    got = _kernel_bits(spec, params, x, y)
    monkeypatch.setattr(models, "_softmax", reduce_softmax)
    monkeypatch.setattr(models, "_loss_and_delta", reduce_loss_and_delta)
    assert got == _kernel_bits(spec, params, x, y, reduce_clipped_grad_sum)


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=KERNEL_IDS)
@pytest.mark.parametrize("stack", [(), (4,)], ids=["P", "R4"])
def test_trainer_keywords_change_no_bit_of_the_kernel(spec, stack):
    # DP-SGD gathers each batch's input norms from those of the training
    # set and asks a classifier head for no losses. The norms and the
    # clipped sum keep their bits, a regression head keeps its losses, and
    # the gathered norms are only read (the MLP adds its bias term out of
    # place). The batch holds a row whose squares overflow and a NaN row.
    rng = np.random.default_rng(67)
    params = rng.standard_normal((*stack, param_count(spec))) * 3.0
    features = rng.standard_normal((200, spec.input_dim)) * 2.0
    features[5] = 1e160
    features[6, 0] = np.nan
    idx = np.concatenate([[5, 6], rng.choice(200, 31)])
    x, y = as_batch(spec, features[idx],
                    rng.standard_normal(33) if spec.output_dim == 1
                    else rng.integers(0, spec.output_dim, 33))
    with np.errstate(over="ignore", invalid="ignore"):
        x_sq = sq_row_norms(features)[idx]
        kept = _bits(x_sq)
        assert kept == _bits(sq_row_norms(x))
        want = clipped_grad_sum(spec, params, x, y, 1.5)
        got = clipped_grad_sum(spec, params, x, y, 1.5, x_sq=x_sq,
                               with_losses=False)
    assert [_bits(a) for a in got[1:]] == [_bits(a) for a in want[1:]]
    if spec.output_dim == 1:
        assert _bits(got[0]) == _bits(want[0])
    else:
        assert got[0] is None
    assert _bits(x_sq) == kept


@pytest.mark.parametrize("spec", [ModelSpec("softmax_linear", 1, 4),
                                  ModelSpec("mlp", 2, 4, (3,))],
                         ids=["softmax_linear", "mlp_classifier"])
def test_a_finite_norm_implies_a_finite_classifier_loss(spec):
    # Each of 400 runs has its own logits, drawn from +-1e308, +-inf, NaN
    # and ordinary values: softmax_linear's weights times a feature of 1,
    # or the MLP's output bias behind zero output weights. A classifier
    # head's loss is finite, at most -log(1e-300), wherever its gradient
    # norm is, so DP-SGD, which reads only the norms of such a head, fails
    # the same runs as a check of both would.
    rng = np.random.default_rng(71)
    runs, k = 400, spec.output_dim
    logits = rng.choice(EXTREME_LOGITS, size=(runs, k))
    if spec.kind == "softmax_linear":
        params = logits
        x = np.array([[1.0], [1.0], [0.5]])
    else:
        params = rng.standard_normal((runs, param_count(spec)))
        params[:, -k * 4:-k] = 0.0
        params[:, -k:] = logits
        x = rng.standard_normal((3, 2))
    x, y = as_batch(spec, x, [0, 3, 1])
    with np.errstate(over="ignore", invalid="ignore"):
        losses, norms, _ = clipped_grad_sum(spec, params, x, y, 1.0)
    finite = np.isfinite(norms)
    assert 0 < finite.sum() < finite.size
    assert np.isfinite(losses[finite]).all()
    assert losses[finite].max() <= -math.log(1e-300)
    assert np.array_equal(finite.all(axis=-1),
                          (finite & np.isfinite(losses)).all(axis=-1))


def reference_forward(spec, params, x):
    """The forward pass with the bias and the ReLU applied out of place, as
    it was before they were applied in the matmul output; the oracle of
    ``_forward``."""
    layers = models._layers(spec, params)
    acts = [x]
    h = x
    for i, (w, b) in enumerate(layers):
        z = h @ np.swapaxes(w, -1, -2)
        if b is not None:
            z = z + b[..., None, :]
        h = np.maximum(z, 0.0) if i < len(layers) - 1 else z
        acts.append(h)
    return layers, acts


FORWARD_SPECS = KERNEL_SPECS + [ModelSpec("mlp", 9, 12, (10,))]
FORWARD_IDS = KERNEL_IDS + ["mlp_12_classes"]
PREACTIVATIONS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0,
                           5e-324, -5e-324, 1e308, -1e308])


class _Product(np.ndarray):
    """Features whose product with any weight matrix is ``self.product``:
    the first layer's pre-activations chosen directly, since no BLAS product
    is -0.0."""

    def __matmul__(self, other):
        return self.product.copy()


@pytest.mark.parametrize("spec", FORWARD_SPECS, ids=FORWARD_IDS)
@pytest.mark.parametrize("stack", [(), (1,), (4,)], ids=["P", "R1", "R4"])
def test_forward_equals_the_out_of_place_formula(spec, stack):
    # The first layer meets every pre-activation in PREACTIVATIONS plus a
    # bias of +-0, +-inf or NaN; the ReLU and the later layers then meet
    # zeros of both signs, infinities and NaNs.
    rng = np.random.default_rng(71)
    params = rng.standard_normal((*stack, param_count(spec)))
    width = spec.layer_dims()[0][1]
    if spec.kind == "mlp":
        pos = spec.input_dim * width
        params[..., pos:pos + width] = rng.choice(PREACTIVATIONS[:5],
                                                  size=(*stack, width))
    x = np.zeros((40, spec.input_dim)).view(_Product)
    x.product = rng.choice(PREACTIVATIONS, size=(*stack, 40, width))
    got, new_warns = _warned(models._forward, spec, params, x)
    want, old_warns = _warned(reference_forward, spec, params, x)
    assert [_bits(a) for a in got[1][1:]] == [_bits(a) for a in want[1][1:]]
    assert old_warns or not new_warns


def _model_bits(spec, params, x, y, kernel=clipped_grad_sum):
    """Bits of both kernels and of the head's predictions for every run."""
    predict = predict_value if spec.task == "regression" else predict_proba
    return _kernel_bits(spec, params, x, y, kernel) + [
        _bits(predict(spec, row, x)) for row in params]


@pytest.mark.parametrize("spec", FORWARD_SPECS, ids=FORWARD_IDS)
@pytest.mark.parametrize("stack", [(1,), (4,)], ids=["R1", "R4"])
def test_kernels_and_predictions_equal_the_out_of_place_forward(
        spec, stack, monkeypatch):
    # Features of +-inf and NaN put infinities and NaNs among the
    # pre-activations and gradients; a zero feature row and zeroed last
    # parameters put zeros.
    rng = np.random.default_rng(73)
    params = rng.standard_normal((*stack, param_count(spec))) * 3.0
    params[..., -spec.output_dim:] = 0.0
    x = rng.standard_normal((33, spec.input_dim)) * 2.0
    x[0] = 0.0
    x[1, 0] = np.inf
    x[2, -1] = -np.inf
    x[3, 0] = np.nan
    x, y = as_batch(spec, x, rng.standard_normal(33) if spec.output_dim == 1
                    else rng.integers(0, spec.output_dim, 33))
    got, new_warns = _warned(_model_bits, spec, params, x, y)
    monkeypatch.setattr(models, "_forward", reference_forward)
    want, old_warns = _warned(_model_bits, spec, params, x, y,
                              reduce_clipped_grad_sum)
    assert got == want
    assert old_warns or not new_warns


# The linear kinds' predictions as they were made before every kind
# predicted through _forward; the oracle the forward pass must equal bit for
# bit.
def linear_predict_value(spec, params, x):
    return x @ params


def linear_predict_proba(spec, params, x):
    w = params.reshape(spec.output_dim, spec.input_dim)
    return models._softmax(x @ w.T)


@pytest.mark.parametrize("d", [1, 6, 8, 9, 10, 33])
@pytest.mark.parametrize("kind", ["linear_regression", "softmax_linear"])
def test_linear_predictions_equal_the_linear_formulas(kind, d):
    # BLAS may take a matrix-vector and a matrix-matrix product down
    # different kernels; these batch sizes and widths cover the blocked and
    # the tail paths of both.
    rng = np.random.default_rng(79 + d)
    if kind == "linear_regression":
        spec, predict, oracle = (ModelSpec(kind, d), predict_value,
                                 linear_predict_value)
    else:
        spec, predict, oracle = (ModelSpec(kind, d, 5), predict_proba,
                                 linear_predict_proba)
    params = rng.standard_normal(param_count(spec))
    for b in (1, 7, 300, 2000, 4001):
        x = rng.standard_normal((b, d)) * 2.0
        assert _bits(predict(spec, params, x)) == _bits(
            oracle(spec, params, x))


def test_predict_value_allocates_one_array_per_layer():
    # Each layer's activation is its matmul output, so scoring n rows
    # through the 8 -> 32 -> 16 -> 1 regressor holds n * (32 + 16 + 1)
    # floats; the bias and the ReLU out of place held three per layer.
    spec = ModelSpec("mlp", 8, 1, (32, 16))
    params = init_params(spec, np.random.default_rng(5))
    x = np.random.default_rng(6).standard_normal((20_000, 8))
    tracemalloc.start()
    try:
        predict_value(spec, params, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 20_000 * 8 * (32 + 16 + 1)
