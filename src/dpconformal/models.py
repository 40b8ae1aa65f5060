"""Model zoo for the training pipelines: linear regression, a
multinomial-softmax linear classifier, and a small fully-connected ReLU
network. Parameters live in a single flat vector; gradients are computed by
hand and checked against finite differences in the test suite. DP-SGD reads
``clipped_grad_sum``, which clips and sums per-sample gradients without
forming them; ``batch_loss_and_grads`` forms them and is its oracle.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Dataset", "ModelSpec", "as_batch", "batch_loss_and_grads",
           "clip_scale", "clipped_grad_sum", "init_params", "loss_and_grad",
           "param_count", "predict_proba", "predict_value", "sq_row_norms"]

CLASSIFICATION = "classification"
REGRESSION = "regression"
MODEL_KINDS = ("linear_regression", "softmax_linear", "mlp")


def is_count(value) -> bool:
    """An integer, not a bool or a float such as 2.0: the rule of every
    count the package takes (widths, steps, queries, ranks)."""
    return type(value) is not bool and isinstance(value, numbers.Integral)


def _class_indices(labels: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """Class labels, exact integers, as int indices in [0, k), and k; with
    k = 0, k is one more than the largest label."""
    y = np.asarray(labels)
    if y.dtype.kind not in "biu":
        y = y.astype(float)
        if not np.all(np.isfinite(y) & (y == np.trunc(y))):
            raise ValueError("class labels must be integers")
    # Checked before the cast, which would turn a label beyond the int64
    # range into a garbage index, and by min and max, which make no n-sized
    # temporary on the training path.
    k = k or min(int(y.max()) + 1, 2 ** 63)
    if y.size and not 0 <= y.min() <= y.max() < k:
        bad = y[(y < 0) | (y >= k)][0]
        raise ValueError("class indices must lie in [0, n_classes); "
                         f"got label {bad.item()!r}")
    return y.astype(int, copy=False), k


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus labels (class indices or real targets). A class
    label must be an exact integer, which a float such as 1.0 is."""

    features: np.ndarray
    labels: np.ndarray
    task: str
    n_classes: int = 0

    def __post_init__(self) -> None:
        x = np.asarray(self.features, dtype=float)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError("features must be a nonempty (n, d) matrix")
        if self.task not in (CLASSIFICATION, REGRESSION):
            raise ValueError(f"unknown task {self.task!r}")
        if self.task == CLASSIFICATION:
            y, k = _class_indices(self.labels, self.n_classes)
        else:
            y = np.asarray(self.labels, dtype=float)
            k = 0
        if y.shape[0] != x.shape[0]:
            raise ValueError("features and labels must have the same length")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "n_classes", k)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, idx: np.ndarray | slice) -> "Dataset":
        return Dataset(self.features[idx], self.labels[idx], self.task,
                       self.n_classes)


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description. The parameter layout is each of
    ``layer_dims()``'s (fan_in, fan_out) weight matrices, then its bias if
    ``biased`` (every mlp layer; not the one layer of the linear kinds).
    ``task`` is the task the head serves."""

    kind: str
    input_dim: int
    output_dim: int = 1
    hidden: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not all(is_count(d) and d >= 1
                   for d in (self.input_dim, self.output_dim)):
            raise ValueError("input_dim and output_dim must be positive "
                             "integers")
        if self.kind == "mlp":
            if len(self.hidden) == 0 or not all(is_count(h) and h >= 1
                                                for h in self.hidden):
                raise ValueError("mlp needs a nonempty sequence of "
                                 "positive integer widths")
        elif len(self.hidden):
            raise ValueError(f"{self.kind} has no hidden layers")
        if self.kind == "linear_regression" and self.output_dim != 1:
            raise ValueError("linear_regression has one output")
        object.__setattr__(self, "hidden", tuple(self.hidden))

    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden, self.output_dim]
        return list(zip(dims[:-1], dims[1:]))

    @property
    def biased(self) -> bool:
        return self.kind == "mlp"

    @property
    def task(self) -> str:
        if self.kind != "softmax_linear" and self.output_dim == 1:
            return REGRESSION
        return CLASSIFICATION

    @cached_property
    def _layout(self) -> tuple[tuple[slice, tuple[int, int], slice | None],
                               ...]:
        """Per layer, the weight's slice of the parameter vector, its
        (fan_out, fan_in) shape and the bias's slice (None without a
        bias); taken once per spec."""
        layout = []
        pos = 0
        for fan_in, fan_out in self.layer_dims():
            w_at = slice(pos, pos + fan_in * fan_out)
            pos = w_at.stop + self.biased * fan_out
            b_at = slice(w_at.stop, pos) if self.biased else None
            layout.append((w_at, (fan_out, fan_in), b_at))
        return tuple(layout)

    @cached_property
    def _onehot(self) -> np.ndarray | None:
        """The identity whose row y is class y's one-hot label; None for a
        regression head."""
        return None if self.task == REGRESSION else np.eye(self.output_dim)


def param_count(spec: ModelSpec) -> int:
    return sum((fan_in + spec.biased) * fan_out
               for fan_in, fan_out in spec.layer_dims())


def init_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Zeros for the linear models; symmetric uniform 1/sqrt(fan_in) for the mlp."""
    if spec.kind != "mlp":
        return np.zeros(param_count(spec))
    chunks = []
    for fan_in, fan_out in spec.layer_dims():
        bound = 1.0 / np.sqrt(fan_in)
        chunks.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
        chunks.append(rng.uniform(-bound, bound, size=fan_out))
    return np.concatenate(chunks)


def _layers(spec: ModelSpec, params: np.ndarray):
    """(W, b) views per layer, b None where the spec has no bias; a leading
    run axis of ``params`` is kept."""
    lead = params.shape[:-1]
    return [(params[..., w_at].reshape(lead + shape),
             None if b_at is None else params[..., b_at])
            for w_at, shape, b_at in spec._layout]


def _check_params(spec: ModelSpec, params: np.ndarray,
                  stacked: bool = False) -> np.ndarray:
    """One flat parameter vector (P,) or, when ``stacked``, also a stack of
    R of them (R, P)."""
    params = np.asarray(params, dtype=float)
    if (params.shape[-1:] != (param_count(spec),)
            or params.ndim > (2 if stacked else 1)):
        raise ValueError(
            f"params length {params.shape} does not match spec "
            f"({param_count(spec)} expected)"
        )
    return params


def _check_features(spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != spec.input_dim:
        raise ValueError(f"feature dim {x.shape[1]} != input_dim {spec.input_dim}")
    return x


def as_batch(spec: ModelSpec, x: np.ndarray,
             y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Features as a float (b, d) matrix with d == ``spec.input_dim``, and
    labels as the (b,) float targets or int classes in [0, output_dim) that
    the head reads. Float 2-D features come back as the same array."""
    x = _check_features(spec, x)
    if spec.task == REGRESSION:
        return x, np.asarray(y, dtype=float).reshape(x.shape[0])
    return x, _class_indices(y, spec.output_dim)[0].reshape(x.shape[0])


def _forward(spec: ModelSpec, params: np.ndarray, x: np.ndarray):
    """Forward pass on a (b, d) batch, keeping activations for backprop.

    With (R, P) params every activation after the input is (R, b, width);
    each run's matmuls are the ones its own (P,) vector would make. The bias
    and the ReLU are applied in the fresh matmul output, so each layer
    allocates one array; backprop reads only the post-ReLU activations.
    """
    layers = _layers(spec, params)
    acts = [x]
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ np.swapaxes(w, -1, -2)
        if b is not None:
            z += b[..., None, :]
        if i < len(layers) - 1:
            np.maximum(z, 0.0, out=z)
        acts.append(z)
    return layers, acts


def _sum_nonneg(v: np.ndarray) -> np.ndarray:
    """``v.sum(axis=-1)``, bit for bit, for ``v`` with no -0.0 entry (such
    as squares and exps); a one-column ``v`` gives a view of its column.
    numpy adds fewer than 8 entries left to right from +0.0, one short
    reduction per row. +0.0 + v is v for any v but -0.0, so adding the
    columns in that order from the first does the same sums in a few calls
    over all rows."""
    k = v.shape[-1]
    if k >= 8:
        return v.sum(axis=-1)
    if k == 1:
        return v[..., 0]
    total = v[..., 0] + v[..., 1]
    for j in range(2, k):
        total += v[..., j]
    return total


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the class axis, made in ``z``, bit-equal to the per-row
    reductions ``z - z.max(-1)`` and ``e / e.sum(-1)``: the max is exact in
    any order (a +-0 tie changes ``z - top`` only at a zero, where exp gives
    1; a NaN row stays NaN, though its sign bit may differ), and
    ``_sum_nonneg`` keeps numpy's order."""
    k = z.shape[-1]
    top = z[..., 0] if k == 1 else np.maximum(z[..., 0], z[..., 1])
    for j in range(2, k):
        np.maximum(top, z[..., j], out=top)
    z -= top[..., None]
    np.exp(z, out=z)
    z /= _sum_nonneg(z)[..., None]
    return z


def _loss_and_delta(spec: ModelSpec, out: np.ndarray, y: np.ndarray,
                    with_losses: bool = True):
    """Per-sample losses (..., b) and the output delta d loss / d out
    (..., b, k): half squared error for regression heads, cross-entropy for
    classifier heads, whose delta is made in ``out``. Without
    ``with_losses`` a classifier head's losses are None."""
    if spec.task == REGRESSION:
        resid = out[..., 0] - y
        return 0.5 * resid**2, resid[..., None]
    probs = _softmax(out)
    losses = None
    if with_losses:
        losses = -np.log(np.maximum(probs[..., np.arange(y.shape[0]), y],
                                    1e-300))
    # p - 0.0 is p, so subtracting the one-hot rows changes only the label
    # entries, as a fancy-index update would, at a fraction of the cost.
    probs -= spec._onehot.take(y, 0)
    return losses, probs


def _next_delta(delta: np.ndarray, w: np.ndarray,
                act: np.ndarray) -> np.ndarray:
    """Backpropagate a delta through ``w`` and the ReLU that made ``act``."""
    return (delta @ w) * (act > 0.0)


def batch_loss_and_grads(
    spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample losses (b,) and per-sample gradients (b, P).

    ``params`` may also be a stack of R parameter vectors (R, P); the batch
    is then shared and the results are (R, b) and (R, b, P). Each run's
    values are bit-equal to those of a call with its own (P,) vector: the
    stacked matmuls make the same BLAS call per run, and everything else is
    elementwise or reduces along the run's own axes.

    Losses: half squared error for regression heads, cross-entropy for
    classifier heads. DP-SGD uses ``clipped_grad_sum``, which never forms
    the (b, P) gradients; this function is its oracle.
    """
    params = _check_params(spec, params, stacked=True)
    x, y = as_batch(spec, x, y)
    lead = params.shape[:-1]
    b = x.shape[0]
    layers, acts = _forward(spec, params, x)
    losses, delta = _loss_and_delta(spec, acts[-1], y)
    grad_chunks = []
    for i in range(len(layers) - 1, -1, -1):
        w, bias = layers[i]
        if bias is not None:
            grad_chunks.append(delta)
        grad_chunks.append(np.einsum("...bo,...bi->...boi", delta,
                                     acts[i]).reshape(*lead, b, -1))
        if i > 0:
            delta = _next_delta(delta, w, acts[i])
    return losses, np.concatenate(grad_chunks[::-1], axis=-1)


def clip_scale(norms: np.ndarray, clip_norm: float) -> np.ndarray:
    """The factor min(1, C / norm) that clips each per-sample gradient to
    l2 norm ``clip_norm``, as C / max(norm, C): exactly 1 where norm <= C,
    and C / norm, which rounds to at most 1, above it."""
    return clip_norm / np.maximum(norms, clip_norm)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """l2 norms of the rows of ``v``, each row divided by its largest
    magnitude before it is squared, so no square overflows."""
    top = np.abs(v).max(axis=-1, keepdims=True)
    unit = np.where(top > 0.0, top, 1.0)
    return top[..., 0] * np.sqrt(np.square(v / unit).sum(axis=-1))


def _scaled_norms(layers, acts, deltas) -> np.ndarray:
    """Per-sample gradient norms as the hypot of the layers' |delta| |a|,
    from overflow-free row norms: slower than squaring the norms apart, and
    not finite only where the gradient's own norm overflows."""
    norms = None
    for (_, bias), a, delta in zip(layers, acts, deltas):
        a_norm = _row_norms(a)
        if bias is not None:
            a_norm = np.hypot(a_norm, 1.0)
        layer = _row_norms(delta) * a_norm
        norms = layer if norms is None else np.hypot(norms, layer)
    return norms


def sq_row_norms(x: np.ndarray) -> np.ndarray:
    """Squared l2 norm of each row of ``x``, as ``clipped_grad_sum`` takes
    them for its first layer. A row's value does not depend on the other
    rows, so the norms of a training set, gathered by batch index, are bit
    for bit those of the batch."""
    return _sum_nonneg(np.square(x))


def clipped_grad_sum(
    spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray,
    clip_norm: float, *, x_sq: np.ndarray | None = None,
    with_losses: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Per-sample losses (b,), per-sample gradient l2 norms (b,) and the sum
    (P,) of the per-sample gradients each clipped to l2 norm ``clip_norm``,
    without forming the (b, P) gradients.

    A dense layer's weight gradient at one example is the outer product
    delta a^T of its output delta and its input, so its squared norm is
    |delta|^2 (|a|^2 + 1) with the bias included, and the clipped sum over
    the batch is one matmul (s * delta)^T a per layer, s the clip scale
    (ghost norms: Goodfellow 2015; Lee & Kifer 2021). The linear models are
    one layer without a bias. A finite norm bounds every gradient entry,
    since |delta_o a_i| <= |delta| |a|. Squaring the two norms apart
    overflows, or makes 0 * inf, once a delta or input row has norm above
    sqrt(max float), about 1.3e154, even where the gradient's norm is
    finite; such a norm is taken again from rescaled rows
    (``_scaled_norms``), so it is not finite only where the gradient's own
    norm overflows. Whether any norm is not finite is one test of their
    sum: a sum is finite only if every term is.

    With (R, P) params the results are (R, b), (R, b) and (R, P), each run
    bit-equal to a call with its own (P,) vector, as in
    ``batch_loss_and_grads``. The inputs are trusted: ``params`` of the
    spec's length, and ``x``, ``y`` as ``as_batch`` returns them.

    Two keywords serve a trainer that calls this once per step; neither
    changes a bit of what it returns. ``x_sq``, the ``sq_row_norms`` of
    ``x``, spares the first layer's squares, and is only read.
    ``with_losses=False`` lets a classifier head skip the cross-entropy and
    return None for the losses: a finite norm implies a finite delta, hence
    finite probabilities and a loss of at most -log(1e-300), about 690.8,
    so a caller that only checks finiteness needs the norms alone. A
    regression head returns its losses either way, since 1/2 r^2 can
    overflow where the clipped norm is finite.
    """
    lead = params.shape[:-1]
    layers, acts = _forward(spec, params, x)
    losses, delta = _loss_and_delta(spec, acts[-1], y, with_losses)
    if x_sq is None:
        x_sq = sq_row_norms(x)
    last = len(layers) - 1
    deltas = [None] * len(layers)
    for i in range(last, -1, -1):
        w, bias = layers[i]
        a_sq = x_sq if i == 0 else sq_row_norms(acts[i])
        if bias is not None:
            a_sq = a_sq + 1.0  # not in place: x_sq is the caller's
        term = _sum_nonneg(np.square(delta)) * a_sq
        sq_norms = term if i == last else sq_norms + term
        deltas[i] = delta
        if i > 0:
            delta = _next_delta(delta, w, acts[i])
    norms = np.sqrt(sq_norms, out=sq_norms)
    if not math.isfinite(np.add.reduce(norms, None)):
        bad = ~np.isfinite(norms)
        if bad.any():
            norms = np.where(bad, _scaled_norms(layers, acts, deltas), norms)
    scale = clip_scale(norms, clip_norm)[..., None]
    chunks = []
    for (_, bias), a, scaled in zip(layers, acts, deltas):
        scaled *= scale
        chunks.append((scaled.swapaxes(-1, -2) @ a).reshape(*lead, -1))
        if bias is not None:
            chunks.append(scaled.sum(axis=-2))
    grad_sum = chunks[0] if len(chunks) == 1 else np.concatenate(chunks, -1)
    return losses, norms, grad_sum


def loss_and_grad(
    spec: ModelSpec, params: np.ndarray, example: tuple[np.ndarray, float | int]
) -> tuple[float, np.ndarray]:
    """Loss and gradient at a single (features, label) example."""
    x, y = example
    losses, grads = batch_loss_and_grads(
        spec, params, np.asarray(x, dtype=float)[None, :], np.asarray([y])
    )
    return float(losses[0]), grads[0]


def _head_output(spec: ModelSpec, params: np.ndarray, x: np.ndarray,
                 task: str) -> np.ndarray:
    """The (b, output_dim) output of the forward pass that trains the model,
    on a (b, d) batch, once the head is checked to serve ``task``."""
    if spec.task != task:
        raise ValueError(f"{spec.kind} with output_dim {spec.output_dim} has "
                         f"no {task} head")
    _, acts = _forward(spec, _check_params(spec, params),
                       _check_features(spec, x))
    return acts[-1]


def predict_value(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Regression predictions on a (b, d) batch."""
    return _head_output(spec, params, x, REGRESSION)[:, 0]


def predict_proba(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Class probabilities on a (b, d) batch."""
    return _softmax(_head_output(spec, params, x, CLASSIFICATION))
