"""Model zoo for the training pipelines: linear regression, a
multinomial-softmax linear classifier, and a small fully-connected ReLU
network. Parameters live in a single flat vector; gradients are computed by
hand and checked against finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Dataset", "ModelSpec", "init_params", "loss_and_grad",
           "batch_loss_and_grads", "param_count", "predict_proba",
           "predict_value"]

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

    def subset(self, idx: np.ndarray) -> "Dataset":
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


def _mlp_unpack(spec: ModelSpec, params: np.ndarray):
    """(W, b) views per layer; a leading run axis of ``params`` is kept."""
    lead = params.shape[:-1]
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


def _mlp_forward(spec: ModelSpec, params: np.ndarray, x: np.ndarray):
    """Forward pass on a (b, d) batch, keeping activations for backprop.

    With (R, P) params every activation after the input is (R, b, width);
    each run's matmuls are the ones its own (P,) vector would make.
    """
    layers = _mlp_unpack(spec, params)
    acts = [x]
    h = x
    for i, (w, b) in enumerate(layers):
        z = h @ np.swapaxes(w, -1, -2) + b[..., None, :]
        h = np.maximum(z, 0.0) if i < len(layers) - 1 else z
        acts.append(h)
    return layers, acts


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


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
    classifier heads.
    """
    params = _check_params(spec, params, stacked=True)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != spec.input_dim:
        raise ValueError(f"feature dim {x.shape[1]} != input_dim {spec.input_dim}")
    lead = params.shape[:-1]
    b = x.shape[0]
    rows = np.arange(b)

    if spec.kind == "linear_regression":
        y = np.asarray(y, dtype=float).reshape(b)
        resid = (x @ params[..., None])[..., 0] - y
        losses = 0.5 * resid**2
        grads = resid[..., None] * x
        return losses, grads

    if spec.kind == "softmax_linear":
        yi = np.asarray(y, dtype=int).reshape(b)
        w = params.reshape(*lead, spec.output_dim, spec.input_dim)
        probs = _softmax(x @ np.swapaxes(w, -1, -2))
        losses = -np.log(np.clip(probs[..., rows, yi], 1e-300, None))
        dz = probs
        dz[..., rows, yi] -= 1.0
        grads = np.einsum("...bk,bd->...bkd", dz, x).reshape(*lead, b, -1)
        return losses, grads

    layers, acts = _mlp_forward(spec, params, x)
    out = acts[-1]
    if spec.output_dim == 1:
        yf = np.asarray(y, dtype=float).reshape(b)
        resid = out[..., 0] - yf
        losses = 0.5 * resid**2
        delta = resid[..., None]
    else:
        yi = np.asarray(y, dtype=int).reshape(b)
        probs = _softmax(out)
        losses = -np.log(np.clip(probs[..., rows, yi], 1e-300, None))
        delta = probs
        delta[..., rows, yi] -= 1.0

    grad_chunks = [None] * (2 * len(layers))
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        a_in = acts[i]
        grad_chunks[2 * i] = np.einsum("...bo,...bi->...boi", delta,
                                       a_in).reshape(*lead, b, -1)
        grad_chunks[2 * i + 1] = delta
        if i > 0:
            delta = (delta @ w) * (acts[i] > 0.0)
    return losses, np.concatenate(grad_chunks, axis=-1)


def loss_and_grad(
    spec: ModelSpec, params: np.ndarray, example: tuple[np.ndarray, float | int]
) -> tuple[float, np.ndarray]:
    """Loss and gradient at a single (features, label) example."""
    x, y = example
    losses, grads = batch_loss_and_grads(
        spec, params, np.asarray(x, dtype=float)[None, :], np.asarray([y])
    )
    return float(losses[0]), grads[0]


def _check_features(spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != spec.input_dim:
        raise ValueError(f"feature dim {x.shape[1]} != input_dim {spec.input_dim}")
    return x


def predict_value(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Regression predictions on a (b, d) batch."""
    params = _check_params(spec, params)
    x = _check_features(spec, x)
    if spec.kind == "linear_regression":
        return x @ params
    if spec.kind == "mlp" and spec.output_dim == 1:
        _, acts = _mlp_forward(spec, params, x)
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
        _, acts = _mlp_forward(spec, params, x)
        return _softmax(acts[-1])
    raise ValueError(f"{spec.kind} with output_dim {spec.output_dim} has no "
                     "classifier head")
