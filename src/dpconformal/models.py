"""Model zoo for the training pipelines: linear regression, a
multinomial-softmax linear classifier, and a small fully-connected ReLU
network. Parameters live in a single flat vector; gradients are computed by
hand and checked against finite differences in the test suite. DP-SGD reads
``clipped_grad_sum``, which clips and sums per-sample gradients without
forming them; ``batch_loss_and_grads`` forms them and is its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Dataset", "ModelSpec", "as_batch", "batch_loss_and_grads",
           "clip_scale", "clipped_grad_sum", "init_params", "loss_and_grad",
           "param_count", "predict_proba", "predict_value"]

CLASSIFICATION = "classification"
REGRESSION = "regression"


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus labels (class indices or real targets)."""

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
            y = np.asarray(self.labels, dtype=int)
            k = self.n_classes if self.n_classes else int(y.max()) + 1
            if y.min() < 0 or y.max() >= k:
                raise ValueError("class indices must lie in [0, n_classes)")
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
    """Architecture description; output_dim == 1 means a regression head."""

    kind: str
    input_dim: int
    output_dim: int = 1
    hidden: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("linear_regression", "softmax_linear", "mlp"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be positive")
        if self.kind == "mlp":
            if len(self.hidden) == 0 or any(h < 1 for h in self.hidden):
                raise ValueError("mlp needs a nonempty sequence of widths")
        object.__setattr__(self, "hidden", tuple(self.hidden))

    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden, self.output_dim]
        return list(zip(dims[:-1], dims[1:]))


def param_count(spec: ModelSpec) -> int:
    if spec.kind == "linear_regression":
        return spec.input_dim
    if spec.kind == "softmax_linear":
        return spec.output_dim * spec.input_dim
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in spec.layer_dims())


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
    """(W, b) views per layer, b None for the bias-free linear models; a
    leading run axis of ``params`` is kept."""
    lead = params.shape[:-1]
    if spec.kind != "mlp":
        out = 1 if spec.kind == "linear_regression" else spec.output_dim
        return [(params.reshape(*lead, out, spec.input_dim), None)]
    layers = []
    pos = 0
    for fan_in, fan_out in spec.layer_dims():
        w = params[..., pos:pos + fan_in * fan_out].reshape(*lead, fan_out,
                                                            fan_in)
        pos += fan_in * fan_out
        b = params[..., pos:pos + fan_out]
        pos += fan_out
        layers.append((w, b))
    return layers


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


def _regression_head(spec: ModelSpec) -> bool:
    return spec.kind == "linear_regression" or (
        spec.kind == "mlp" and spec.output_dim == 1)


def _check_features(spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != spec.input_dim:
        raise ValueError(f"feature dim {x.shape[1]} != input_dim {spec.input_dim}")
    return x


def as_batch(spec: ModelSpec, x: np.ndarray,
             y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Features as a float (b, d) matrix with d == ``spec.input_dim``, and
    labels as the (b,) float targets or int classes that the head reads.
    Float 2-D features come back as the same array."""
    x = _check_features(spec, x)
    dtype = float if _regression_head(spec) else int
    return x, np.asarray(y, dtype=dtype).reshape(x.shape[0])


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


def _sum_last(v: np.ndarray) -> np.ndarray:
    """``v.sum(axis=-1)``, bit for bit. numpy adds fewer than 8 entries
    left to right from +0.0, one short reduction per row; adding the columns
    in that order does the same sums in a few calls over all rows."""
    k = v.shape[-1]
    if k >= 8:
        return v.sum(axis=-1)
    total = v[..., 0] + 0.0
    for j in range(1, k):
        total += v[..., j]
    return total


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the class axis, bit-equal to the per-row reductions
    ``z - z.max(-1)`` and ``e / e.sum(-1)``: the max is exact in any order
    (a +-0 tie changes ``z - top`` only at a zero, where exp gives 1; a NaN
    row stays NaN, though its sign bit may differ), and ``_sum_last`` keeps
    numpy's order."""
    top = z[..., 0].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(top, z[..., j], out=top)
    e = z - top[..., None]
    np.exp(e, out=e)
    e /= _sum_last(e)[..., None]
    return e


def _loss_and_delta(spec: ModelSpec, out: np.ndarray, y: np.ndarray):
    """Per-sample losses (..., b) and the output delta d loss / d out
    (..., b, k): half squared error for regression heads, cross-entropy for
    classifier heads."""
    if _regression_head(spec):
        resid = out[..., 0] - y
        return 0.5 * resid**2, resid[..., None]
    rows = np.arange(y.shape[0])
    probs = _softmax(out)
    losses = -np.log(np.maximum(probs[..., rows, y], 1e-300))
    # p - 0.0 is p, so subtracting the one-hot matrix changes only the label
    # entries, as a fancy-index update would, at a quarter the cost.
    onehot = np.zeros(probs.shape[-2:])
    onehot[rows, y] = 1.0
    probs -= onehot
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
    l2 norm ``clip_norm``."""
    return np.minimum(1.0, clip_norm / np.maximum(norms, 1e-300))


def _row_norms(v: np.ndarray) -> np.ndarray:
    """l2 norms of the rows of ``v``, each row divided by its largest
    magnitude before it is squared, so no square overflows."""
    top = np.abs(v).max(axis=-1, keepdims=True)
    unit = np.where(top > 0.0, top, 1.0)
    return top[..., 0] * np.sqrt(np.square(v / unit).sum(axis=-1))


def _scaled_norms(layers, acts, deltas) -> np.ndarray:
    """Per-sample gradient norms as sqrt(sum of (|delta| |a|)^2) over the
    layers, from overflow-free row norms: slower than squaring the norms
    apart, and not finite only where some layer's gradient norm overflows."""
    sq = 0.0
    for (_, bias), a, delta in zip(layers, acts, deltas):
        a_norm = _row_norms(a)
        if bias is not None:
            a_norm = np.hypot(a_norm, 1.0)
        sq = sq + np.square(_row_norms(delta) * a_norm)
    return np.sqrt(sq)


def clipped_grad_sum(
    spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray,
    clip_norm: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    norm overflows.

    With (R, P) params the results are (R, b), (R, b) and (R, P), each run
    bit-equal to a call with its own (P,) vector, as in
    ``batch_loss_and_grads``. The inputs are trusted: ``params`` of the
    spec's length, and ``x``, ``y`` as ``as_batch`` returns them.
    """
    lead = params.shape[:-1]
    layers, acts = _forward(spec, params, x)
    losses, delta = _loss_and_delta(spec, acts[-1], y)
    deltas = [None] * len(layers)
    sq_norms = 0.0
    for i in range(len(layers) - 1, -1, -1):
        w, bias = layers[i]
        a_sq = _sum_last(np.square(acts[i]))
        if bias is not None:
            a_sq += 1.0
        sq_norms = sq_norms + _sum_last(np.square(delta)) * a_sq
        deltas[i] = delta
        if i > 0:
            delta = _next_delta(delta, w, acts[i])
    norms = np.sqrt(sq_norms)
    bad = ~np.isfinite(norms)
    if bad.any():
        norms = np.where(bad, _scaled_norms(layers, acts, deltas), norms)
    scale = clip_scale(norms, clip_norm)[..., None]
    chunks = []
    for (_, bias), a, delta in zip(layers, acts, deltas):
        scaled = delta * scale
        chunks.append((np.swapaxes(scaled, -1, -2) @ a).reshape(*lead, -1))
        if bias is not None:
            chunks.append(scaled.sum(axis=-2))
    return losses, norms, np.concatenate(chunks, axis=-1)


def loss_and_grad(
    spec: ModelSpec, params: np.ndarray, example: tuple[np.ndarray, float | int]
) -> tuple[float, np.ndarray]:
    """Loss and gradient at a single (features, label) example."""
    x, y = example
    losses, grads = batch_loss_and_grads(
        spec, params, np.asarray(x, dtype=float)[None, :], np.asarray([y])
    )
    return float(losses[0]), grads[0]


def predict_value(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Regression predictions on a (b, d) batch."""
    params = _check_params(spec, params)
    x = _check_features(spec, x)
    if spec.kind == "linear_regression":
        return x @ params
    if spec.kind == "mlp" and spec.output_dim == 1:
        _, acts = _forward(spec, params, x)
        return acts[-1][:, 0]
    raise ValueError(f"{spec.kind} with output_dim {spec.output_dim} has no "
                     "regression head")


def predict_proba(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Class probabilities on a (b, d) batch."""
    params = _check_params(spec, params)
    x = _check_features(spec, x)
    if spec.kind == "softmax_linear":
        w = params.reshape(spec.output_dim, spec.input_dim)
        return _softmax(x @ w.T)
    if spec.kind == "mlp" and spec.output_dim > 1:
        _, acts = _forward(spec, params, x)
        return _softmax(acts[-1])
    raise ValueError(f"{spec.kind} with output_dim {spec.output_dim} has no "
                     "classifier head")
